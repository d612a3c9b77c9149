import itertools
import random
import sys
import threading
import time

import pytest

from funcfield.factor import minimal_polynomial
from funcfield.field import (FieldElement, embed, embed_map, make_field,
                             preimage_keys)
from funcfield.poly import Poly

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4)]


def test_make_field_prime_field_modulus():
    F2 = make_field(2, 1, 0)
    assert (F2.p, F2.s, F2.q) == (2, 1, 2)
    assert F2.modulus == (0, 1)  # the polynomial t


def test_make_field_first_irreducible_quadratic_over_f3():
    # oracle: enumerate the 9 monic quadratics in lexicographic key order and
    # take the first without a root in GF(3)
    first = None
    for n in range(9):
        c0, c1 = n % 3, n // 3
        if all((a * a + c1 * a + c0) % 3 != 0 for a in range(3)):
            first = (c0, c1, 1)
            break
    F9 = make_field(3, 2, 0)
    assert F9.modulus == first == (1, 0, 1)


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        make_field(4, 1, 0)
    with pytest.raises(ValueError):
        make_field(2, 0, 0)


def test_make_field_deterministic_and_seed_sensitive():
    assert make_field(5, 3, 9) is make_field(5, 3, 9)
    assert make_field(2, 4, 0) == make_field(2, 4, 0)
    # a different seed starts the scan elsewhere but still yields irreducible
    F = make_field(2, 4, 7)
    assert len(F.modulus) == 5 and F.modulus[-1] == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_make_field_modulus_is_first_irreducible_by_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def irreducible(coeffs):
        return sympy.Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible

    for s in range(1, 7):
        space = p ** s
        for seed in (0, 17, 34):
            modulus = make_field(p, s, seed).modulus
            assert len(modulus) == s + 1 and modulus[-1] == 1
            assert irreducible(modulus)
            # every candidate scanned before it from the seeded start is reducible
            n = seed % space
            while True:
                candidate = tuple((n // p ** i) % p for i in range(s)) + (1,)
                if candidate == modulus:
                    break
                assert not irreducible(candidate)
                n = (n + 1) % space


def test_lazy_tables_safe_under_concurrent_first_use():
    # a field's tables are complete when its constructor returns, so threads
    # racing to a fresh field's first operations must all see the same
    # complete set; this guards against any lazily built state returning
    errors = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-3)
    try:
        for p, s in [(3, 4)] * 5 + [(3, 7)]:
            F = make_field.__wrapped__(p, s, 0)
            inverses = {}

            def first_inverse(a):
                try:
                    inverses[a] = F.inv_k(a)
                except Exception as exc:  # collected for the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=first_inverse, args=(a,))
                       for a in range(1, 61)]
            for t in threads:
                t.start()
                time.sleep(0.004)
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert all(F.mul_k(a, inv) == 1 for a, inv in inverses.items())
    finally:
        sys.setswitchinterval(old_interval)
    assert errors == []


# Every arithmetic path: fields that had q^2 tables, log/Zech-tabled fields
# of both characteristics up to the 2^16 limit, and coordinate arithmetic
# fields above it (Poly over GF(p) for odd p, bit operations for p = 2).
KERNEL_FIELDS = [(5, 3), (13, 2), (3, 5), (2, 12), (13, 4), (251, 2),
                 (2, 16), (257, 2), (2, 17), (3, 11)]


@pytest.mark.parametrize("p,s", KERNEL_FIELDS)
def test_field_ops_match_sympy_galoistools(p, s):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_add, gf_mul, gf_neg, gf_rem, gf_sub

    F = make_field(p, s, 0)
    mod = list(reversed(F.modulus))

    def poly(key):  # big-endian GF(p) coefficients, as galoistools keeps them
        digits = [key // p ** i % p for i in reversed(range(s))]
        while digits and digits[0] == 0:
            digits.pop(0)
        return digits

    def key(coeffs):
        out = 0
        for c in coeffs:
            out = out * p + c
        return out

    rng = random.Random(f"kernel-oracle:{p}^{s}")
    # fixed pairs reach a - a = 0 and 1 + (-1) = 0 (the Zech sentinel)
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (1, p - 1), (0, F.q - 1),
             (F.q - 1, 1), (F.q - 1, F.q - 1)]
    pairs += [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(500 - len(pairs))]
    for a, b in pairs:
        pa, pb = poly(a), poly(b)
        assert F.add_k(a, b) == key(gf_add(pa, pb, p, ZZ)), (a, b)
        assert F.sub_k(a, b) == key(gf_sub(pa, pb, p, ZZ)), (a, b)
        assert F.neg_k(a) == key(gf_neg(pa, p, ZZ)), a
        assert F.mul_k(a, b) == key(gf_rem(gf_mul(pa, pb, p, ZZ), mod, p, ZZ)), (a, b)
        if a:
            inverse = poly(F.inv_k(a))
            assert gf_rem(gf_mul(pa, inverse, p, ZZ), mod, p, ZZ) == [1], a
    with pytest.raises(ZeroDivisionError):
        F.inv_k(0)


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (13, 1), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive_small(p, s):
    F = make_field(p, s, 0)
    assert F.q <= 16
    els = list(F.elements())
    one = F.one()
    for a, b in itertools.product(els, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a
    for a, b, c in itertools.product(els[: min(len(els), 8)], repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in els:
        if not a.is_zero():
            assert a * a.inv() == one


@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (2, 4), (3, 2), (13, 1)])
def test_frobenius_additive_and_fixes_prime_field(p, s):
    F = make_field(p, s, 0)
    els = list(F.elements())
    fixed = []
    for a in els:
        assert (a + a) ** p == a ** p + a ** p
        if a ** p == a:
            fixed.append(a.key)
    for a, b in itertools.product(els[:10], repeat=2):
        assert (a + b) ** p == a ** p + b ** p
    assert sorted(fixed) == list(range(p))


def test_element_coords_and_rendering():
    F9 = make_field(3, 2, 0)
    e = F9.element(5)
    assert e.coords == (2, 1)
    assert repr(e) == "[1,2]"
    assert repr(make_field(7, 1, 0).element(4)) == "4"


def test_cross_field_arithmetic_rejected():
    F4 = make_field(2, 2, 0)
    F8 = make_field(2, 3, 0)
    with pytest.raises(ValueError):
        F4.one() + F8.one()


def test_embed_identity_and_unit():
    F2 = make_field(2, 1, 0)
    F16 = make_field(2, 4, 0)
    assert embed(F2.one(), F16) == F16.one()
    assert embed(F2.zero(), F16) == F16.zero()


def test_embed_least_root_choice():
    F4 = make_field(2, 2, 0)
    F16 = make_field(2, 4, 0)
    image = embed(F4.gen(), F16)
    one = F16.one()
    roots = [e.key for e in F16.elements() if (e * e + e + one).is_zero()]
    assert image.key == min(roots)
    assert (image * image + image + one).is_zero()


def test_embed_degree_contract():
    F4 = make_field(2, 2, 0)
    F8 = make_field(2, 3, 0)
    with pytest.raises(ValueError):
        embed(F4.gen(), F8)
    with pytest.raises(ValueError):
        embed(F4.gen(), make_field(3, 2, 0))


@pytest.mark.parametrize("src,tgt", [((2, 1), (2, 4)), ((2, 2), (2, 4)),
                                     ((3, 1), (3, 2)), ((2, 2), (2, 8)),
                                     ((2, 4), (2, 8)), ((5, 1), (5, 2))])
def test_embed_is_ring_homomorphism_exhaustive(src, tgt):
    S = make_field(*src, 0)
    T = make_field(*tgt, 0)
    assert T.q <= 256
    for a, b in itertools.product(S.elements(), repeat=2):
        assert embed(a + b, T) == embed(a, T) + embed(b, T)
        assert embed(a * b, T) == embed(a, T) * embed(b, T)
    images = [embed(a, T).key for a in S.elements()]
    assert preimage_keys(S, T, images) == tuple(range(S.q))
    outside = min(set(range(T.q)) - set(images))
    with pytest.raises(ValueError):
        preimage_keys(S, T, (outside,))


def test_embed_injective():
    S = make_field(3, 1, 0)
    T = make_field(3, 2, 0)
    images = {embed(a, T).key for a in S.elements()}
    assert len(images) == S.q


def test_embed_map_deterministic():
    S = make_field(2, 2, 0)
    T = make_field(2, 4, 0)
    assert embed_map(S, T) == embed_map(S, T)


def test_minimal_polynomial_through_large_source_field():
    # |GF(31^7)| is about 2.75e10: neither direction of the embedding may
    # enumerate the source field
    start = time.perf_counter()
    S, T = make_field(31, 7, 0), make_field(31, 14, 0)
    gen = S.gen()
    assert minimal_polynomial(embed(gen, T), S) == Poly(S, (S.neg_k(gen.key), 1))
    assert time.perf_counter() - start < 10
