from fractions import Fraction

import pytest

from funcfield.carlitz import DivisorShape
from funcfield.genus import (GenusParityError, GenusResult, RamSummary,
                             cyclotomic_genus, cyclotomic_genus_via_hurwitz,
                             cyclotomic_phi, hurwitz, prime_power_torsion_genus,
                             prime_torsion_genus, ray_class_degree,
                             ray_class_genus, s_infinity_class_number)


def test_genus_result_validation():
    g = GenusResult.from_two_g_minus_2(2)
    assert g.g == 2
    assert GenusResult.from_two_g_minus_2(-2).g == 0
    with pytest.raises(GenusParityError):
        GenusResult.from_two_g_minus_2(3)
    with pytest.raises(GenusParityError):
        GenusResult.from_two_g_minus_2(-4)


def test_hurwitz_examples():
    assert hurwitz(3, 0, RamSummary.of((1, 2, 4))).g == 2
    assert hurwitz(1, 7, RamSummary.empty()).g == 7
    assert hurwitz(2, 0, RamSummary.of((1, 1, 2))).g == 0
    with pytest.raises(ValueError):
        hurwitz(0, 0, RamSummary.empty())
    with pytest.raises(GenusParityError):
        hurwitz(2, 0, RamSummary.of((1, 1, 1)))  # odd different degree


def test_ram_summary_validation():
    with pytest.raises(ValueError):
        RamSummary.of((0, 1, 1))
    with pytest.raises(ValueError):
        RamSummary.of((1, -1, 1))
    assert RamSummary.of((2, 3, 4)).different_degree() == 24


def test_cyclotomic_genus_examples():
    assert cyclotomic_genus(2, 1, 1).g == 0
    r = cyclotomic_genus(3, 2, 1)
    assert (r.two_g_minus_2, r.g) == (2, 2)
    assert cyclotomic_genus(2, 1, 2).g == 0


def test_prime_torsion_genus_examples():
    assert prime_torsion_genus(2, 2).two_g_minus_2 == -2
    assert prime_torsion_genus(3, 2).two_g_minus_2 == 2
    # the expanded form agrees with the closed form even at d = 1
    assert prime_torsion_genus(2, 1).two_g_minus_2 == -2
    assert prime_torsion_genus(2, 1) == cyclotomic_genus(2, 1, 1)


def test_prime_power_torsion_genus_examples():
    assert prime_power_torsion_genus(2, 1, 2).two_g_minus_2 == -2
    assert prime_power_torsion_genus(3, 1, 2).g == 1
    assert prime_power_torsion_genus(2, 2, 2) == cyclotomic_genus(2, 2, 2)
    with pytest.raises(ValueError):
        prime_power_torsion_genus(2, 1, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_genus_triangle(q):
    for d in range(1, 7):
        base = cyclotomic_genus(q, d, 1)
        assert base == prime_torsion_genus(q, d)
        assert base == cyclotomic_genus_via_hurwitz(q, d, 1)
        for n in range(2, 5):
            val = cyclotomic_genus(q, d, n)
            assert val == prime_power_torsion_genus(q, d, n)
            assert val == cyclotomic_genus_via_hurwitz(q, d, n)


def test_hurwitz_reassembly_never_trips_parity():
    # the triangle above only passes if no GenusParityError fired; spot-check
    # the summary contents for one instance
    phi = cyclotomic_phi(3, 2, 2)
    assert phi == 9 * 8
    r = cyclotomic_genus_via_hurwitz(3, 2, 2)
    assert r == cyclotomic_genus(3, 2, 2)


def test_ray_class_degree_examples():
    assert ray_class_degree(1, 1, 3, DivisorShape.of((1, 1))) == 1
    assert ray_class_degree(1, 2, 2, DivisorShape.of((1, 2))) == 4
    assert ray_class_degree(2, 3, 4, DivisorShape.of((2, 1))) == 30
    with pytest.raises(ValueError):
        ray_class_degree(1, 1, 3, DivisorShape.empty())


def test_ray_class_degree_can_be_fractional():
    # callers asserting a field degree must check integrality themselves, so
    # the value is an exact Fraction even when it is whole: phi = 4 - 1 = 3
    value = ray_class_degree(1, 1, 4, DivisorShape.of((1, 1)))
    assert isinstance(value, Fraction)
    assert value == 1


def test_ray_class_genus_single_place_branch():
    assert ray_class_genus(1, 0, 4, DivisorShape.of((1, 2))) == Fraction(4, 3)
    assert ray_class_genus(1, 1, 2, DivisorShape.of((1, 1))) == 3
    # a degree-2 place to the second power over GF(3): phi(D) = 9 * 8 = 72,
    # phi(Q) = 8, w = (72/8 - 3 - 2) * 2 = 8, g = 1 + (72 * 2 - 8) / 4
    assert ray_class_genus(1, 0, 3, DivisorShape.of((2, 2))) == 35


def test_ray_class_genus_multi_place_branch():
    D = DivisorShape.of((1, 1), (1, 1))
    assert ray_class_genus(1, 0, 2, D) == 0
    # a degree-2 and a degree-1 place over GF(3): phi(D) = 8 * 2 = 16,
    # w = 16 * 2/8 + 16 * 1/2 = 12, g = 1 + (16 * 1 - 12) / 4
    assert ray_class_genus(1, 0, 3, DivisorShape.of((2, 1), (1, 1))) == 2
    with pytest.raises(ValueError):
        ray_class_genus(1, 0, 2, DivisorShape.empty())


def test_s_infinity_class_number():
    assert s_infinity_class_number(1, 1) == 1
    assert s_infinity_class_number(7, 3) == 21
    with pytest.raises(ValueError):
        s_infinity_class_number(0, 1)
