import random

import pytest

from funcfield.field import make_field
from funcfield.poly import Poly, parse_poly

F2 = make_field(2, 1, 0)
F3 = make_field(3, 1, 0)
F4 = make_field(2, 2, 0)
F9 = make_field(3, 2, 0)


def rand_poly(field, max_deg, rng, nonzero=False):
    deg = rng.randrange(0, max_deg + 1)
    keys = [rng.randrange(field.q) for _ in range(deg + 1)]
    if nonzero and not any(keys):
        keys[-1] = 1
    return Poly(field, keys)


def test_canonical_form_strips_trailing_zeros():
    f = Poly(F3, (1, 2, 0, 0))
    assert f.keys == (1, 2)
    assert f.degree == 1


def test_zero_degree_sentinel():
    z = Poly.zero(F3)
    assert z.is_zero()
    assert z.degree is None
    with pytest.raises(ValueError):
        z.leading_key()
    with pytest.raises(ValueError):
        z.monic()


def test_ring_identities_random():
    rng = random.Random(5)
    for _ in range(200):
        field = rng.choice((F2, F3, F9))
        a = rand_poly(field, 6, rng)
        b = rand_poly(field, 6, rng)
        c = rand_poly(field, 4, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a


def test_divmod_roundtrip_random():
    rng = random.Random(6)
    for _ in range(200):
        field = rng.choice((F2, F3, F9))
        a = rand_poly(field, 9, rng)
        b = rand_poly(field, 5, rng, nonzero=True)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.one(F3), Poly.zero(F3))


def test_gcd_divides_both():
    rng = random.Random(7)
    for _ in range(100):
        field = rng.choice((F2, F3))
        a = rand_poly(field, 7, rng, nonzero=True)
        b = rand_poly(field, 7, rng, nonzero=True)
        g = a.gcd(b)
        assert (a % g).is_zero() and (b % g).is_zero()
        assert g.is_monic()


def test_derivative_char_p():
    # d/dx of x^3 over GF(3) vanishes; product rule on a sample
    f = Poly.monomial(F3, 1, 3)
    assert f.derivative().is_zero()
    a = Poly(F3, (1, 2, 1))
    b = Poly(F3, (2, 0, 1))
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_evaluation_matches_sum():
    f = Poly(F3, (1, 2, 2))
    for e in F3.elements():
        expect = (1 + 2 * e.key + 2 * e.key * e.key) % 3
        assert f(e).key == expect


def test_eval_in_extension_field():
    f = Poly(F3, (1, 0, 1))  # x^2 + 1
    root_keys = [e.key for e in F9.elements() if f(e).is_zero()]
    assert len(root_keys) == 2


def test_pow_mod_matches_pow():
    rng = random.Random(8)
    for _ in range(50):
        f = rand_poly(F3, 4, rng, nonzero=True)
        m = rand_poly(F3, 3, rng, nonzero=True)
        if m.degree == 0:
            continue
        e = rng.randrange(0, 30)
        assert f.pow_mod(e, m) == (f ** e) % m


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_inverse_mod_matches_sympy_gcdex(p):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_gcdex, gf_rem

    def big(f):  # galoistools keeps coefficients big-endian
        return list(reversed(f.keys))

    F = make_field(p, 1, 0)
    rng = random.Random(f"inverse-mod:{p}")
    coprime = 0
    for _ in range(200):
        a = rand_poly(F, 6, rng)
        m = rand_poly(F, 6, rng, nonzero=True)
        s, _, h = gf_gcdex(big(a), big(m), p, ZZ)
        if m.degree > 0 and h == [1]:
            coprime += 1
            assert big(a.inverse_mod(m)) == gf_rem(s, big(m), p, ZZ), (a, m)
        elif m.degree > 0:
            with pytest.raises(ZeroDivisionError):
                a.inverse_mod(m)
    assert coprime >= 50


@pytest.mark.parametrize("F", [F4, F9], ids=repr)
def test_inverse_mod_matches_fermat_power(F):
    from funcfield.factor import is_irreducible

    q = F.q
    rng = random.Random(f"inverse-fermat:{q}")
    degrees = set()
    for _ in range(40):
        d = rng.randrange(1, 5)
        m = Poly(F, [rng.randrange(q) for _ in range(d)] + [1])
        if not is_irreducible(m):
            continue
        degrees.add(d)
        a = rand_poly(F, d - 1, rng, nonzero=True)
        assert a.inverse_mod(m) == a.pow_mod(q ** d - 2, m), (a, m)
        assert (a * a.inverse_mod(m)) % m == Poly.one(F)
    assert {1, 2, 3} <= degrees


def test_inverse_mod_rejects_non_coprime_pair():
    x_plus_1 = Poly(F3, (1, 1))
    with pytest.raises(ZeroDivisionError):
        x_plus_1.inverse_mod(x_plus_1 * Poly(F3, (2, 1)))
    with pytest.raises(ZeroDivisionError):
        Poly.zero(F3).inverse_mod(Poly(F3, (1, 0, 1)))
    with pytest.raises(ZeroDivisionError):
        x_plus_1.inverse_mod(Poly.zero(F3))


def test_rendering_canonical_ascending():
    assert str(Poly(F3, (1, 2, 1))) == "1 + 2*x + x^2"
    assert str(Poly(F3, (0, 1))) == "x"
    assert str(Poly.zero(F3)) == "0"
    assert str(Poly(F9, (5,))) == "[1,2]"


def test_parse_roundtrip():
    for text in ("1 + 2*x + x^2", "x", "2", "x^3 + 2*x"):
        f = parse_poly(text, F3)
        assert parse_poly(str(f), F3) == f
    assert parse_poly("x^2 - 1", F3) == Poly(F3, (2, 0, 1))
    with pytest.raises(ValueError):
        parse_poly("", F3)
    with pytest.raises(ValueError):
        parse_poly("x^-1", F3)


def test_sort_key_orders_by_degree_then_coeffs():
    a = Poly(F3, (2, 1))      # x + 2
    b = Poly(F3, (0, 1))      # x
    c = Poly(F3, (0, 0, 1))   # x^2
    assert sorted([c, a, b], key=Poly.sort_key) == [b, a, c]
