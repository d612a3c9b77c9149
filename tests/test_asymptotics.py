import decimal
from fractions import Fraction

import pytest

from funcfield.asymptotics import (ChebotarevParams, chebotarev_lower,
                                   genus_lower_bound, hasse_weil_class_bound,
                                   mf_log_upper_bound, mq_ratio_sequence,
                                   splitting_place_feasible, t_of)
from funcfield.genus import prime_torsion_genus
from funcfield.intbounds import (ceil_log, ceil_root, floor_log,
                                 geometric_samples, iroot, prime_divisors,
                                 root_bracket, scaled_power_le)


def test_iroot_and_ceil_root():
    assert iroot(0, 3) == 0
    assert iroot(63, 2) == 7
    assert iroot(64, 2) == 8
    assert iroot(2 ** 40 - 1, 4) == 1023
    assert ceil_root(8, 2) == 3
    assert ceil_root(9, 2) == 3
    for n in (2, 5, 10, 100, 12345):
        for k in (2, 3, 4, 5):
            r = iroot(n, k)
            assert r ** k <= n < (r + 1) ** k


def test_integer_logs():
    assert floor_log(2, 1) == 0
    assert floor_log(2, 1023) == 9
    assert ceil_log(2, 1024) == 10
    assert ceil_log(2, 1025) == 11
    assert ceil_log(3, 1) == 0


def test_prime_divisors_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 10 ** 4 + 1):
        assert prime_divisors(n) == sympy.primefactors(n), n
    with pytest.raises(ValueError):
        prime_divisors(0)


def test_root_bracket_contains_and_shrinks():
    lo1, hi1 = root_bracket(2, 2, 5)
    lo2, hi2 = root_bracket(2, 2, 15)
    assert lo1 ** 2 <= 2 <= hi1 ** 2
    assert lo2 ** 2 <= 2 <= hi2 ** 2
    assert lo1 <= lo2 <= hi2 <= hi1
    assert hi2 - lo2 <= Fraction(1, 10 ** 15)
    assert hi1 - lo1 <= Fraction(1, 10 ** 5)


def test_scaled_power_le_exactness():
    # 3 * 2**(1/2) vs 4.25: 9*2 = 18 > 18.0625, so LHS < RHS
    assert scaled_power_le(3, 2, 1, 2, Fraction(17, 4))
    assert not scaled_power_le(3, 2, 1, 2, Fraction(42, 10))
    assert scaled_power_le(0, 2, 5, 4, 0)


def test_geometric_samples():
    samples = geometric_samples(2, 10 ** 5, 40)
    assert len(samples) == 40
    assert samples[0] == 2 and samples[-1] == 10 ** 5
    assert all(b > a for a, b in zip(samples, samples[1:]))
    assert geometric_samples(2, 10 ** 5, 40) == samples  # deterministic


def test_t_of_exact_characterization():
    assert t_of(2, 2) == 24
    assert t_of(2, 3) == 28
    assert t_of(9, 9) == 24
    for q, g in ((2, 2), (2, 3), (3, 10), (9, 9), (5, 1000)):
        t = t_of(q, g)
        assert q ** t >= g ** 6 * q ** 18
        assert q ** (t - 1) < g ** 6 * q ** 18
    with pytest.raises(ValueError):
        t_of(2, 1)


def test_chebotarev_params_validation():
    with pytest.raises(ValueError):
        ChebotarevParams(q=2, k=1, m=2, g_f=0, g_e=0, d=1, conj_size=3)
    with pytest.raises(ValueError):
        ChebotarevParams(q=2, k=0, m=2, g_f=0, g_e=0, d=1, conj_size=1)
    with pytest.raises(ValueError):
        ChebotarevParams(q=2, k=1, m=2, g_f=-1, g_e=0, d=1, conj_size=1)


def test_chebotarev_lower_examples():
    big = chebotarev_lower(ChebotarevParams(q=2, k=24, m=12, g_f=2, g_e=0,
                                            d=25, conj_size=1))
    assert big > 0
    small = chebotarev_lower(ChebotarevParams(q=2, k=4, m=12, g_f=2, g_e=0,
                                              d=25, conj_size=1))
    assert small < 0
    # identity extension at k=1: assembled value sits below the main term q
    degenerate = chebotarev_lower(ChebotarevParams(q=7, k=1, m=1, g_f=0,
                                                   g_e=0, d=1, conj_size=1))
    assert degenerate < 7


def test_chebotarev_exact_when_k_divisible_by_four():
    params = ChebotarevParams(q=3, k=8, m=4, g_f=1, g_e=0, d=2, conj_size=2)
    q_half, q_quarter = 3 ** 4, 3 ** 2
    expected = (Fraction(2, 8 * 4) * 3 ** 8
                - (Fraction(4, 8 * 4) * (4 + 1) * q_half
                   + 4 * 1 * q_quarter + 1 + 2 * 4))
    assert chebotarev_lower(params) == expected


def test_chebotarev_lower_is_a_lower_bound_when_rounding():
    # for k odd the subtracted error uses root ceilings: recomputing with the
    # exact bracket ends must not fall below the returned value
    params = ChebotarevParams(q=2, k=9, m=3, g_f=1, g_e=1, d=4, conj_size=1)
    value = chebotarev_lower(params)
    lo_h, hi_h = root_bracket(2 ** 9, 2, 25)
    lo_q, hi_q = root_bracket(2 ** 9, 4, 25)
    main = Fraction(1, 9 * 3) * 2 ** 9
    truth_hi = main - (Fraction(2, 27) * 4 * hi_h + 3 * 3 * hi_q + 1 + 12)
    truth_lo = main - (Fraction(2, 27) * 4 * lo_h + 3 * 3 * lo_q + 1 + 12)
    assert value <= truth_hi <= truth_lo


def test_chebotarev_monotone_in_k_once_positive():
    prev = None
    positive = False
    for k in range(2, 80):
        v = chebotarev_lower(ChebotarevParams(q=2, k=k, m=12, g_f=2, g_e=0,
                                              d=25, conj_size=1))
        if positive:
            assert v > prev
        if v > 0:
            positive = True
        prev = v
    assert positive


def test_splitting_feasible_reference_cases():
    report = splitting_place_feasible(2, 2)
    assert report.feasible and report.params.t == 24
    assert report.params.m_f == 12 and report.d == (2 * 2 + 1) * 24
    assert all(c.holds for c in report.checks)
    assert splitting_place_feasible(5, 100).feasible
    bad = splitting_place_feasible(2, 2, t=4)
    assert not bad.feasible
    assert any(not c.holds for c in bad.checks)
    with pytest.raises(ValueError):
        splitting_place_feasible(2, 1)


def test_mf_log_upper_bound_examples():
    b = mf_log_upper_bound(2, 1, 0, 0)
    assert b.upper_int == 0 and b.m_f_bound == 1
    b = mf_log_upper_bound(2, 24, 0, 5)
    assert (b.log_ceil, b.affine, b.upper_int) == (5, 5, 10)
    assert b.m_f_bound == 24 * 2 ** 5
    b = mf_log_upper_bound(3, 10, 2, 3)
    assert (b.log_ceil, b.affine, b.upper_int) == (3, 9, 12)
    with pytest.raises(ValueError):
        mf_log_upper_bound(2, 0, 0, 0)


def test_genus_lower_bound_examples():
    b = genus_lower_bound(3, 81, 3, "odd")
    assert b.exact and b.value == 1
    b = genus_lower_bound(2, 64, 4, "even")
    assert b.exact and b.value == 1
    b = genus_lower_bound(2, 1, 1, "even")
    assert b.exact and b.value == 0
    with pytest.raises(ValueError):
        genus_lower_bound(2, 1, 1, "mixed")


def test_genus_lower_bound_bracket_orientation():
    b = genus_lower_bound(2, 100, 3, "even")
    assert not b.exact and b.lower <= b.upper
    with pytest.raises(ValueError):
        _ = b.value


def test_genus_lower_bound_respects_true_genus():
    # prime-torsion family: the certified upper end never exceeds the genus
    for q, parity in ((2, "even"), (3, "odd")):
        for d in range(2, 13):
            m = q ** d - 1
            g = prime_torsion_genus(q, d).g
            if g < 2:
                continue
            bracket = genus_lower_bound(q, m, t_of(q, g), parity)
            assert bracket.upper <= g


def test_mq_ratio_rows():
    rows = mq_ratio_sequence(2, "d", [10])
    assert rows[0].m == 1023 and rows[0].g == 4088
    assert str(rows[0].ratio).startswith("2.502")
    rows = mq_ratio_sequence(2, "d", [200])
    assert abs(rows[0].ratio - 2) < decimal.Decimal("0.1")
    rows = mq_ratio_sequence(2, "n", [2], d=1)
    assert rows[0].skipped and rows[0].ratio is None


def test_mq_ratio_family_d_decreasing_tail():
    rows = mq_ratio_sequence(2, "d", range(6, 60))
    ratios = [r.ratio for r in rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert all(r > 2 for r in ratios)


def test_mq_ratio_family_n_approaches_two():
    rows = mq_ratio_sequence(3, "n", range(3, 40), d=1)
    ratios = [r.ratio for r in rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 2
    assert ratios[-1] - 2 < decimal.Decimal("0.2")


def test_mq_ratio_precision_control():
    r20 = mq_ratio_sequence(2, "d", [10], precision=20)[0].ratio
    r30 = mq_ratio_sequence(2, "d", [10], precision=30)[0].ratio
    assert str(r30).startswith(str(r20)[:18])
    with pytest.raises(ValueError):
        mq_ratio_sequence(2, "d", [10], precision=4)


def test_hasse_weil_class_bound():
    assert hasse_weil_class_bound(2, 0) == 1
    assert hasse_weil_class_bound(4, 1) == 9
    assert hasse_weil_class_bound(2, 1) == 6
    # exact in square q, ceiling otherwise; compare against brackets
    for q in (2, 3, 5):
        for g in range(0, 6):
            lo, hi = root_bracket(q, 2, 30)
            truth_lo = (1 + lo) ** (2 * g)
            truth_hi = (1 + hi) ** (2 * g)
            value = hasse_weil_class_bound(q, g)
            assert truth_lo <= value
            assert value - 1 < truth_hi
