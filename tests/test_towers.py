import random
from fractions import Fraction

import pytest

from funcfield.factor import factorize, is_irreducible, minimal_polynomial, roots_in
from funcfield.field import FieldElement, make_field
from funcfield.poly import Poly
from funcfield.towers import (ClosureBudgetError, ClosureSet, ProjPoint,
                              RationalMap, WildKummerError, bq_lower_bound,
                              builtin_tower, closure, closure_sweep_adds_nothing,
                              first_step_genus, gamma_upper_bound,
                              genus_growth_lower_bounds, kummer_ramified,
                              tameness_check, tower_summary)
from funcfield.towers import _image_min_poly, _solutions_for

F3 = make_field(3, 1, 0)
F5 = make_field(5, 1, 0)


def y3_spec(q):
    return builtin_tower("y3", q)


def y4_spec(q):
    return builtin_tower("y4", q)


def point(base, *keys):
    return ProjPoint.from_min_poly(base, Poly(base, keys))


def test_rational_map_normalization():
    num = Poly(F5, (2, 0, 2))
    den = Poly(F5, (0, 4))
    h = RationalMap(num, den)
    assert h.den.is_monic()
    assert h.degree == 2
    with pytest.raises(ValueError):
        RationalMap(Poly.zero(F5), Poly.one(F5))
    with pytest.raises(ValueError):
        RationalMap(Poly.one(F5), Poly.zero(F5))


def test_rational_map_reduces_common_factors():
    x = Poly.x(F5)
    h = RationalMap(x * x, x)
    assert h.num == x and h.den == Poly.one(F5)


def test_tameness_check_examples():
    assert tameness_check(3, 4) == (True, None)
    assert tameness_check(3, 9) == (False, 3)
    assert tameness_check(4, 5) == (True, None)
    with pytest.raises(ValueError):
        tameness_check(1, 4)


def test_kummer_ramified_y3_over_f5():
    spec = y3_spec(5)
    locus = kummer_ramified(3, spec.h)
    # {0, infinity, the conjugate pair of primitive cube roots of unity}
    idents = {pt.ident() for pt in locus}
    assert idents == {None, (0, 1), (1, 1, 1)}
    assert locus.degree_sum == 4
    degrees = sorted(pt.degree for pt in locus)
    assert degrees == [1, 1, 2]


def test_kummer_ramified_y4_over_f3():
    spec = y4_spec(3)
    locus = kummer_ramified(4, spec.h)
    assert {pt.ident() for pt in locus} == {None, (0, 1), (1, 0, 1)}
    assert locus.degree_sum == 4


def test_kummer_perfect_power_shape_is_unramified():
    h = RationalMap(Poly.monomial(F3, 1, 2), Poly.one(F3))
    locus = kummer_ramified(2, h)
    assert len(locus) == 0 and locus.degree_sum == 0


def test_kummer_rejects_wild_and_constant():
    h_char3 = RationalMap(Poly(F3, (1, 1, 1)), Poly(F3, (0, 1)))
    with pytest.raises(WildKummerError):
        kummer_ramified(3, h_char3)
    with pytest.raises(ValueError):
        kummer_ramified(2, RationalMap(Poly.constant(F5, 2), Poly.one(F5)))


def test_closure_case_analysis_y3():
    # the published bullet list for Y^3 = (X^2+X+1)/(3X)
    spec = y3_spec(5)
    base = spec.base
    inf = ProjPoint.infinity(base)
    assert {p.ident() for p in _solutions_for(spec.f, spec.h, inf, 12)} == \
        {None, (0, 1)}
    zero = point(base, 0, 1)
    assert {p.ident() for p in _solutions_for(spec.f, spec.h, zero, 12)} == \
        {(1, 1, 1)}
    one = point(base, 4, 1)
    assert {p.ident() for p in _solutions_for(spec.f, spec.h, one, 12)} == \
        {(4, 1)}
    omega = point(base, 1, 1, 1)
    assert {p.ident() for p in _solutions_for(spec.f, spec.h, omega, 12)} == \
        {(4, 1)}


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_y3_tower_locus_and_bounds(q):
    summary = tower_summary(y3_spec(q))
    lam = summary["lambda"]
    base = lam.base
    expected = {None, (0, 1), (base.neg_k(1), 1)}
    for factor_poly, _ in factorize(Poly(base, (1, 1, 1))):
        expected.add(factor_poly.keys)
    assert {pt.ident() for pt in lam} == expected
    assert summary["degree_sum"] == 5
    assert summary["gamma_bound"] == Fraction(3, 2)
    assert summary["bq_lower"] == Fraction(2, 3)
    assert summary["first_step_genus"] == 2
    assert summary["tame"] is True


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_y4_tower_locus_and_bounds(q):
    summary = tower_summary(y4_spec(q))
    lam = summary["lambda"]
    base = lam.base
    expected = {None, (0, 1), (base.neg_k(1), 1)}
    for factor_poly, _ in factorize(Poly(base, (1, 0, 1))):
        expected.add(factor_poly.keys)
    assert {pt.ident() for pt in lam} == expected
    assert summary["degree_sum"] == 5
    assert summary["gamma_bound"] == Fraction(3, 2)
    assert summary["bq_lower"] == Fraction(2, 3)
    assert summary["first_step_genus"] == 3


def test_builtin_tower_rejects_wrong_characteristic():
    with pytest.raises(WildKummerError):
        builtin_tower("y3", 9)
    with pytest.raises(WildKummerError):
        builtin_tower("y4", 4)
    with pytest.raises(ValueError):
        builtin_tower("y5", 7)


def test_closure_trivial_fixed_point():
    f = RationalMap.power(F3, 2)
    h = RationalMap(Poly.monomial(F3, 1, 2), Poly.one(F3))
    seed = ClosureSet(F3, [point(F3, 0, 1)])
    lam = closure(f, h, seed)
    assert [pt.render() for pt in lam] == ["x"]
    assert closure_sweep_adds_nothing(f, h, lam)


def test_closure_monotone_and_idempotent():
    for q in (5, 7):
        spec = y3_spec(q)
        seed = kummer_ramified(3, spec.h)
        lam = closure(spec.f, spec.h, seed)
        for pt in seed:
            assert pt in lam
        assert closure_sweep_adds_nothing(spec.f, spec.h, lam)


def test_closure_worklist_order_independent():
    spec = y3_spec(5)
    seed = kummer_ramified(3, spec.h)
    lam1 = closure(spec.f, spec.h, seed)
    for ordering in ([*seed.points], [*reversed(seed.points)]):
        lam2 = closure(spec.f, spec.h, ClosureSet(spec.base, ordering))
        assert lam1 == lam2
    # seeding from a superset inside the closed set changes nothing
    lam3 = closure(spec.f, spec.h, lam1)
    assert lam3 == lam1


def test_closure_surfaces_budget_error_on_exploding_locus():
    # a generic quadratic pair has no finite closed locus at this scale; the
    # fixed point must fail loudly instead of truncating
    f = RationalMap.power(F3, 2)
    h = RationalMap(Poly(F3, (0, 1, 1)), Poly.one(F3))
    seed = ClosureSet(F3, [point(F3, 0, 1)])
    with pytest.raises(ClosureBudgetError) as info:
        closure(f, h, seed, max_ext=6, max_iter=16)
    assert info.value.kind in ("extension", "iterations")


def test_closure_budget_errors_are_typed():
    spec = y3_spec(5)
    seed = kummer_ramified(3, spec.h)
    with pytest.raises(ClosureBudgetError) as info:
        closure(spec.f, spec.h, seed, max_iter=1)
    assert info.value.kind == "iterations"
    with pytest.raises(ClosureBudgetError) as info:
        closure(spec.f, spec.h, seed, max_ext=1)
    assert info.value.kind == "extension"
    with pytest.raises(ValueError):
        closure(spec.f, spec.h, ClosureSet(spec.base, []))


def test_gamma_and_bq_bounds():
    spec = y3_spec(5)
    lam = closure(spec.f, spec.h, kummer_ramified(3, spec.h))
    assert gamma_upper_bound(0, lam) == Fraction(3, 2)
    assert bq_lower_bound(Fraction(3, 2)) == Fraction(2, 3)
    assert bq_lower_bound(1) == 1
    assert bq_lower_bound(Fraction(5, 2)) == Fraction(2, 5)
    empty = ClosureSet(spec.base, [])
    assert gamma_upper_bound(0, empty) == -1  # vacuous, a tower must ramify
    with pytest.raises(ValueError):
        bq_lower_bound(gamma_upper_bound(0, empty))
    assert gamma_upper_bound(1, ClosureSet(spec.base, list(
        kummer_ramified(3, spec.h)))) == 2


def test_first_step_genus_values():
    spec = y3_spec(5)
    locus0 = kummer_ramified(3, spec.h)
    assert first_step_genus(3, locus0).g == 2
    two_points = ClosureSet(F3, [point(F3, 0, 1), point(F3, 1, 1)])
    assert first_step_genus(2, two_points).g == 0
    locus_y4 = kummer_ramified(4, y4_spec(3).h)
    r = first_step_genus(4, locus_y4)
    assert (r.two_g_minus_2, r.g) == (4, 3)


def test_genus_growth_lower_bounds():
    seq = genus_growth_lower_bounds(3, 2, 20)
    assert len(seq) == 20
    assert all(b > a for a, b in zip(seq, seq[1:]))
    for i, value in enumerate(seq):
        assert value >= 2 * Fraction(3, 2) ** i
    with pytest.raises(ValueError):
        genus_growth_lower_bounds(1, 2, 5)


def test_point_canonicalization_across_ambient_fields():
    # the same class reached through different ambient extensions collapses
    base = F5
    F25 = make_field(5, 2, 0)
    F625 = make_field(5, 4, 0)
    quad = Poly(base, (1, 1, 1))
    r25 = roots_in(quad, F25)[0]
    r625 = roots_in(quad.lift(F25), F625)[0]
    p1 = ProjPoint.from_value(r25, base)
    p2 = ProjPoint.from_value(r625, base)
    assert p1 == p2
    assert p1.degree == 2


def test_closure_set_rendering_sorted():
    spec = y3_spec(5)
    lam = closure(spec.f, spec.h, kummer_ramified(3, spec.h))
    rendered = lam.render()
    assert rendered[0] == "inf"
    assert len(rendered) == len(set(rendered))
    # rebuilding from shuffled points reproduces the same canonical order
    shuffled = ClosureSet(spec.base, list(reversed(lam.points)))
    assert shuffled.render() == rendered


def _random_poly(rng, field, degree):
    return Poly(field, [rng.randrange(field.q) for _ in range(degree)]
                + [rng.randrange(1, field.q)])


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_image_min_poly_matches_root_oracle(p, s):
    # mu computed in F[Z]/(m) against the minimal polynomial of f at an
    # explicit root of m in GF(q^r)
    base = make_field(p, s, 0)
    rng = random.Random(6000 + base.q)
    for _ in range(30):
        r = rng.randrange(1, 5)
        m = _random_poly(rng, base, r).monic()
        while not is_irreducible(m):
            m = _random_poly(rng, base, r).monic()
        f = RationalMap(_random_poly(rng, base, rng.randrange(0, 4)),
                        _random_poly(rng, base, rng.randrange(0, 4)))
        K = make_field(p, s * r, 0)
        b = roots_in(m, K)[0].key
        nv = f.num.lift(K).eval_k(b)
        dv = f.den.lift(K).eval_k(b)
        expected = None if dv == 0 else \
            minimal_polynomial(FieldElement(K, K.mul_k(nv, K.inv_k(dv))), base)
        assert _image_min_poly(f, ProjPoint(base, m)) == expected, (m, f)


def test_closure_builds_no_field():
    # the locus has a degree-4 class over GF(27), whose roots lie in GF(3^12)
    base = make_field(3, 3, 0)
    f = RationalMap.power(base, 5)
    h = RationalMap(Poly(base, (2, 2, 1)), Poly(base, (0, 2)))
    seed = kummer_ramified(5, h)
    misses = make_field.cache_info().misses
    lam = closure(f, h, seed, max_ext=5)
    assert make_field.cache_info().misses == misses
    assert sorted(pt.degree for pt in lam) == [1, 1, 2, 2, 4]


def test_extension_budget_is_lcm_of_class_degrees():
    # beta = i over GF(3) has beta^2 = 2 in the base; h = 2 at the roots of
    # the cubic x^3+2x+2, which share a field with i only in GF(3^6)
    f = RationalMap.power(F3, 2)
    h = RationalMap(Poly(F3, (1, 2, 0, 1)), Poly.one(F3))
    beta = point(F3, 1, 0, 1)
    with pytest.raises(ClosureBudgetError) as info:
        _solutions_for(f, h, beta, 5)
    assert "extension degree 6 > max_ext=5" in str(info.value)
    assert {p.render() for p in _solutions_for(f, h, beta, 6)} == {"2 + 2*x + x^3"}
