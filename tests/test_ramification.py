from fractions import Fraction
from math import gcd

import pytest

from funcfield.ramification import (RamFiltration, abelian_different_lower_bound,
                                    conductor_exponent, conductor_via_identity,
                                    different_exponent, enumerate_filtrations,
                                    phi_herbrand, psi_herbrand)


def all_enumerated(n_max=6):
    for p in (2, 3, 5):
        for w in (1, 2):
            for b in range(1, 5):
                if gcd(b, p) != 1:
                    continue
                yield b, p, w, enumerate_filtrations(b, p, w, n_max)


def test_filtration_validation():
    RamFiltration((6, 3, 3), 3)
    with pytest.raises(ValueError):
        RamFiltration((3, 6), 3)          # increasing
    with pytest.raises(ValueError):
        RamFiltration((6, 2), 3)          # g_1 not the p-part of g_0
    with pytest.raises(ValueError):
        RamFiltration((9, 9, 6), 3)       # wild tail not a p-power
    with pytest.raises(ValueError):
        RamFiltration((1,), 3)            # orders below 2
    with pytest.raises(ValueError):
        RamFiltration((4,), 1)            # characteristic below 2


@pytest.mark.parametrize("p", [4, 6, 9])
def test_filtration_rejects_composite_characteristic(p):
    with pytest.raises(ValueError, match="must be a prime"):
        RamFiltration((8, 4), p)


def test_parse_round_trip():
    f = RamFiltration.parse("6,3,3", 3)
    assert f.orders == (6, 3, 3)
    assert str(f) == "6,3,3"
    assert RamFiltration.parse("", 2).is_unramified()


@pytest.mark.parametrize("text", ["6,,3", ",6,3", "6,3,", ",", " , "])
def test_parse_rejects_empty_entries(text):
    with pytest.raises(ValueError, match="empty entry"):
        RamFiltration.parse(text, 3)


def test_structure_accessors():
    f = RamFiltration((6, 3, 3), 3)
    assert (f.e, f.a, f.b, f.w) == (6, 3, 2, 1)
    assert f.level_counts() == (2,)
    assert f.is_wild() and not f.is_tame()
    g = RamFiltration((4, 4, 2, 2), 2)
    assert g.level_counts() == (1, 2)


def test_different_exponent_examples():
    assert different_exponent(RamFiltration((5,), 3)) == 4
    assert different_exponent(RamFiltration((3, 3), 3)) == 4
    assert different_exponent(RamFiltration((6, 3, 3), 3)) == 9


def test_phi_examples():
    f = RamFiltration((6, 3, 3), 3)
    assert phi_herbrand(f, 0) == 0
    assert phi_herbrand(RamFiltration((3, 3), 3), 1) == 1
    assert phi_herbrand(f, 2) == 1
    assert phi_herbrand(f, Fraction(-1, 2)) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        phi_herbrand(f, -2)


def test_phi_piecewise_shape_on_enumerated_filtrations():
    for b, p, w, filts in all_enumerated(4):
        for f in filts:
            prev_val = phi_herbrand(f, -1)
            prev_slope = None
            assert phi_herbrand(f, 0) == 0
            for i in range(0, f.a + 2):
                val = phi_herbrand(f, i)
                if i >= 1:
                    slope = val - phi_herbrand(f, i - 1)
                    assert slope == Fraction(f.order_at(i), f.e)
                    if prev_slope is not None:
                        assert slope <= prev_slope  # concavity
                    assert slope > 0               # strictly increasing
                    prev_slope = slope
                assert val > prev_val
                prev_val = val


def test_psi_inverts_phi():
    f = RamFiltration((6, 3, 3), 3)
    for x in (Fraction(-1), Fraction(-1, 3), Fraction(0), Fraction(1, 2),
              Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(5)):
        assert psi_herbrand(f, phi_herbrand(f, x)) == x


def test_conductor_exponent_classification():
    assert conductor_exponent(RamFiltration((), 3)) == 0
    assert conductor_exponent(RamFiltration((5,), 3)) == 1
    assert conductor_exponent(RamFiltration((3, 3), 3)) == 2
    for b, p, w, filts in all_enumerated(4):
        for f in filts:
            c = conductor_exponent(f)
            assert (c == 0) == f.is_unramified()
            assert (c == 1) == f.is_tame()
            assert (c >= 2) == f.is_wild()


def test_conductor_matches_upper_numbering_definition():
    # independent oracle straight from the definition: c is the least k >= 0
    # such that the group at lower index ceil(psi(v)) is trivial for every
    # v >= k; with psi monotone this reduces to psi(k) > a-1 plus minimality
    def oracle(f):
        if f.is_unramified():
            return 0
        k = 0
        while not psi_herbrand(f, k) > f.a - 1:
            k += 1
        return k

    cases = [RamFiltration((), 3), RamFiltration((5,), 3),
             RamFiltration((3, 3), 3), RamFiltration((6, 3, 3), 3),
             RamFiltration((4, 4, 2), 2), RamFiltration((4, 4, 2, 2), 2)]
    for b, p, w, filts in all_enumerated(4):
        cases.extend(filts)
    for f in cases:
        assert conductor_exponent(f) == oracle(f), str(f)


def test_conductor_identity_examples():
    assert conductor_via_identity(RamFiltration((5,), 3)) == 1
    assert conductor_via_identity(RamFiltration((3, 3), 3)) == 2
    assert conductor_via_identity(RamFiltration((6, 3, 3), 3)) == 2
    with pytest.raises(ValueError):
        conductor_via_identity(RamFiltration((), 3))


def test_identity_integral_on_every_enumerated_filtration():
    # Hasse-Arf surrogate: the identity value is an integer and equals the
    # conductor exponent throughout the enumeration
    for b, p, w, filts in all_enumerated():
        for f in filts:
            value = conductor_via_identity(f)
            assert value.denominator == 1
            assert value == conductor_exponent(f)


def test_identity_can_disagree_off_the_admissible_set():
    # (4,4,2) has a non-integral top jump, so the identity value is only an
    # upper rational, not the conductor exponent
    f = RamFiltration((4, 4, 2), 2)
    assert conductor_via_identity(f) == Fraction(5, 2)
    assert conductor_exponent(f) == 2


def test_conductor_upper_bound_and_d_vs_a():
    for b, p, w, filts in all_enumerated():
        for f in filts:
            d = different_exponent(f)
            assert Fraction(conductor_exponent(f)) <= Fraction(2 * d, f.e)
            assert d >= f.a


def test_lower_bound_examples():
    assert abelian_different_lower_bound(2, 1, 3, 1) == 4
    assert abelian_different_lower_bound(2, 2, 3, 1) == 9
    # verbatim formula value at (3,1,5,1); the oracle asserts >=, not equality
    assert abelian_different_lower_bound(3, 1, 5, 1) == 12
    with pytest.raises(ValueError):
        abelian_different_lower_bound(1, 1, 3, 1)
    with pytest.raises(ValueError):
        abelian_different_lower_bound(2, 3, 3, 1)


def test_lower_bound_holds_and_is_tight_on_oracle():
    slack = {}
    for b, p, w, filts in all_enumerated():
        for f in filts:
            c = conductor_exponent(f)
            if c < 2:
                continue
            d = different_exponent(f)
            bound = abelian_different_lower_bound(c, b, p, w)
            assert d >= bound, (str(f), d, bound)
            key = (c, b, p, w)
            slack[key] = min(slack.get(key, d - bound), d - bound)
    # the bound is attained at these parameter points, so it is sharp there
    assert slack[(2, 1, 3, 1)] == 0
    assert slack[(2, 2, 3, 1)] == 0
    assert slack[(3, 1, 5, 1)] == 0


def test_enumerate_examples():
    got = [str(f) for f in enumerate_filtrations(1, 3, 1, 2)]
    assert got == ["3,3", "3,3,3"]
    assert enumerate_filtrations(2, 3, 1, 1) == []
    # (4,4,2) is excluded by jump integrality; only (4,4) survives n_max=1
    got = [str(f) for f in enumerate_filtrations(1, 2, 2, 1)]
    assert got == ["4,4"]
    with pytest.raises(ValueError):
        enumerate_filtrations(3, 3, 1, 2)
    with pytest.raises(ValueError):
        enumerate_filtrations(1, 3, 0, 2)


def test_enumerate_is_deterministic_and_constrained():
    a = enumerate_filtrations(2, 3, 1, 6)
    b = enumerate_filtrations(2, 3, 1, 6)
    assert a == b
    for f in a:
        assert f.e == 6 and f.orders[1] == 3
        assert f.level_counts()[0] % 2 == 0
