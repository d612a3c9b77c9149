"""Recursive towers f(Y) = h(X): ramification locus and tower genus bounds.

Points of the projective line over the algebraic closure are carried as
conjugacy classes over the base field: a class is identified by its minimal
polynomial, with a deterministic representative (the least-key root in the
least-degree extension).  Set semantics and degree accounting per class make
the closure computation independent of worklist order and of the ambient
extension chosen for any intermediate root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .factor import factorize, minimal_polynomial, roots_in
from .field import FieldHandle, embed_keys, make_field
from .genus import GenusResult, RamSummary, hurwitz
from .intbounds import prime_power_decompose
from .poly import Poly


class ClosureBudgetError(RuntimeError):
    """The closure fixed point exceeded its extension or iteration budget.

    Signals that the locus is possibly infinite or beyond the configured
    budget; never a silent truncation.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class WildKummerError(ValueError):
    """Kummer ramification analysis requires gcd(e, q) = 1."""


class ProjPoint:
    """A point of the projective line, as a conjugacy class over the base.

    Either the infinite point, or a finite class identified by its monic
    minimal polynomial over the base field together with the canonical
    representative value in the least-degree extension.
    """

    __slots__ = ("base", "min_poly", "field", "value_key")

    def __init__(self, base, min_poly, field, value_key):
        self.base = base
        self.min_poly = min_poly      # Poly over base, or None for infinity
        self.field = field            # FieldHandle of the representative
        self.value_key = value_key    # key of the representative, or None

    @classmethod
    def infinity(cls, base: FieldHandle) -> "ProjPoint":
        return cls(base, None, None, None)

    @classmethod
    def from_min_poly(cls, base: FieldHandle, min_poly: Poly) -> "ProjPoint":
        """Canonical class point: least-key root in the least-degree field."""
        if min_poly.field != base:
            raise ValueError("minimal polynomial must live over the base field")
        deg = min_poly.degree
        if deg is None or deg < 1:
            raise ValueError("minimal polynomial must be nonconstant")
        rep_field = make_field(base.p, base.s * deg, 0)
        roots = roots_in(min_poly, rep_field)
        if not roots:
            raise ValueError("polynomial is not irreducible over the base")
        return cls(base, min_poly.monic(), rep_field, roots[0].key)

    @classmethod
    def from_value(cls, value, base: FieldHandle) -> "ProjPoint":
        """Class of an explicit element of an extension of the base."""
        return cls.from_min_poly(base, minimal_polynomial(value, base))

    def is_infinity(self) -> bool:
        return self.min_poly is None

    @property
    def degree(self) -> int:
        return 1 if self.min_poly is None else self.min_poly.degree

    def ident(self):
        return None if self.min_poly is None else self.min_poly.keys

    def sort_key(self):
        if self.min_poly is None:
            return (0, ())
        return (1,) + self.min_poly.sort_key()

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.base == other.base and self.ident() == other.ident()

    def __hash__(self):
        return hash((self.base, self.ident()))

    def render(self) -> str:
        return "inf" if self.min_poly is None else str(self.min_poly)

    __repr__ = render


class ClosureSet:
    """A finite set of projective classes, canonically sorted."""

    __slots__ = ("base", "points")

    def __init__(self, base: FieldHandle, points=()):
        unique = {}
        for pt in points:
            if pt.base != base:
                raise ValueError("point over a different base field")
            unique[pt.ident()] = pt
        self.base = base
        self.points = tuple(sorted(unique.values(), key=ProjPoint.sort_key))

    @property
    def degree_sum(self) -> int:
        return sum(pt.degree for pt in self.points)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, pt: ProjPoint):
        return any(p == pt for p in self.points)

    def union(self, points) -> "ClosureSet":
        return ClosureSet(self.base, tuple(self.points) + tuple(points))

    def render(self) -> list[str]:
        return [pt.render() for pt in self.points]

    def __eq__(self, other):
        if not isinstance(other, ClosureSet):
            return NotImplemented
        return self.base == other.base and \
            tuple(p.ident() for p in self.points) == tuple(p.ident() for p in other.points)

    def __repr__(self):
        return "{" + ", ".join(self.render()) + "}"


class RationalMap:
    """A nonzero rational function num/den over a finite field, reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if num.field != den.field:
            raise ValueError("numerator and denominator over different fields")
        if den.is_zero():
            raise ValueError("zero denominator")
        if num.is_zero():
            raise ValueError("zero rational map")
        g = num.gcd(den)
        if g.degree != 0:
            num, den = num // g, den // g
        lead_inv = den.field.inv_k(den.leading_key())
        self.num = num.scale_k(lead_inv)
        self.den = den.scale_k(lead_inv)

    @property
    def field(self) -> FieldHandle:
        return self.num.field

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    def is_constant(self) -> bool:
        return self.degree == 0

    @classmethod
    def power(cls, field: FieldHandle, e: int) -> "RationalMap":
        """The map Y**e."""
        return cls(Poly.monomial(field, 1, e), Poly.one(field))

    def value_at_infinity(self, ext: FieldHandle):
        """Projective value at the infinite point, as a key of ext or None (= infinity)."""
        dn, dd = self.num.degree, self.den.degree
        if dn > dd:
            return None
        if dn < dd:
            return 0
        ratio = self.field.mul_k(self.num.leading_key(),
                                 self.field.inv_k(self.den.leading_key()))
        return embed_keys(self.field, ext, (ratio,))[0]

    def value_at(self, ext: FieldHandle, key: int):
        """Projective value at a finite point, as a key of ext or None (= infinity)."""
        num_l = self.num.lift(ext)
        den_l = self.den.lift(ext)
        dv = den_l.eval_k(key)
        nv = num_l.eval_k(key)
        if dv == 0:
            return None  # coprimality keeps nv nonzero
        return ext.mul_k(nv, ext.inv_k(dv))

    def __str__(self):
        return f"({self.num}) / ({self.den})"


def tameness_check(e: int, q: int):
    """True with no certificate iff gcd(e, q) = 1, else False plus the
    offending characteristic."""
    if e < 2:
        raise ValueError("Kummer exponent must be >= 2")
    p, _ = prime_power_decompose(q)
    if e % p == 0:
        return False, p
    return True, None


def kummer_ramified(e: int, h: RationalMap) -> ClosureSet:
    """Places of the bottom rational field ramified in the Kummer step Y**e = h.

    These are the points where the valuation of h is not divisible by e:
    roots of the numerator and denominator with multiplicity not 0 mod e,
    plus infinity when deg num and deg den differ mod e.
    """
    base = h.field
    if gcd(e, base.q) != 1:
        raise WildKummerError(f"gcd({e}, {base.q}) != 1: wild Kummer step")
    if h.is_constant():
        raise ValueError("constant map has no ramification structure")
    points = []
    for poly in (h.num, h.den):
        if poly.degree == 0:
            continue
        for factor_poly, mult in factorize(poly):
            if mult % e != 0:
                points.append(ProjPoint.from_min_poly(base, factor_poly))
    if (h.num.degree - h.den.degree) % e != 0:
        points.append(ProjPoint.infinity(base))
    return ClosureSet(base, points)


def _solutions_for(f: RationalMap, h: RationalMap, beta: ProjPoint,
                   max_ext: int) -> list[ProjPoint]:
    """All classes alpha with h(alpha) = f(beta), by projective case analysis."""
    base = h.field
    out: list[ProjPoint] = []
    if beta.is_infinity():
        ext = base
        value = f.value_at_infinity(base)
    else:
        ext = beta.field
        value = f.value_at(ext, beta.value_key)

    if value is None:
        # h(alpha) must be the infinite point: poles of h, maybe infinity
        if h.den.degree > 0:
            for factor_poly, _ in factorize(h.den):
                out.append(ProjPoint.from_min_poly(base, factor_poly))
        if h.num.degree > h.den.degree:
            out.append(ProjPoint.infinity(base))
        return out

    # finite target value v in ext: roots of num - v*den over ext
    num_l = h.num.lift(ext)
    den_l = h.den.lift(ext)
    g = num_l - den_l.scale_k(value)
    if g.is_zero():
        raise ValueError("rational map is constant")
    rel_degree = ext.s // base.s
    if g.degree and g.degree > 0:
        for factor_poly, _ in factorize(g):
            fdeg = factor_poly.degree
            total = rel_degree * fdeg
            if total > max_ext:
                raise ClosureBudgetError(
                    "extension",
                    f"solution class needs extension degree {total} > max_ext={max_ext}")
            big = make_field(base.p, base.s * total, 0)
            for root in roots_in(factor_poly, big):
                out.append(ProjPoint.from_value(root, base))
    # alpha = infinity solves h(alpha) = v iff the leading behavior matches
    dn, dd = h.num.degree, h.den.degree
    if dn < dd and value == 0:
        out.append(ProjPoint.infinity(base))
    elif dn == dd:
        ratio = base.mul_k(h.num.leading_key(), base.inv_k(h.den.leading_key()))
        if embed_keys(base, ext, (ratio,))[0] == value:
            out.append(ProjPoint.infinity(base))
    return out


def closure(f: RationalMap, h: RationalMap, seed: ClosureSet,
            max_ext: int = 12, max_iter: int = 64) -> ClosureSet:
    """Least superset of seed closed under beta -> {alpha : h(alpha) = f(beta)}.

    Worklist fixed point over conjugacy classes.  Budget violations raise
    ClosureBudgetError; they mean the locus may be infinite or out of reach,
    never that a partial answer was returned.
    """
    if f.is_constant() or h.is_constant():
        raise ValueError("both maps must be nonconstant")
    if len(seed) == 0:
        raise ValueError("seed must be nonempty")
    if seed.base != h.field or f.field != h.field:
        raise ValueError("seed and maps must share one base field")
    known = {pt.ident(): pt for pt in seed}
    worklist = list(seed.points)
    processed = 0
    while worklist:
        beta = worklist.pop()
        processed += 1
        if processed > max_iter:
            raise ClosureBudgetError(
                "iterations", f"closure exceeded max_iter={max_iter} point expansions")
        for alpha in _solutions_for(f, h, beta, max_ext):
            if alpha.ident() not in known:
                known[alpha.ident()] = alpha
                worklist.append(alpha)
    return ClosureSet(seed.base, known.values())


def closure_sweep_adds_nothing(f: RationalMap, h: RationalMap,
                               closed: ClosureSet, max_ext: int = 12) -> bool:
    """Idempotence probe: one more full sweep finds no new class."""
    for beta in closed:
        for alpha in _solutions_for(f, h, beta, max_ext):
            if alpha not in closed:
                return False
    return True


def gamma_upper_bound(g0: int, locus: ClosureSet) -> Fraction:
    """Tame tower genus bound g0 - 1 + degree_sum / 2."""
    return g0 - 1 + Fraction(locus.degree_sum, 2)


def bq_lower_bound(gamma) -> Fraction:
    """1/gamma: the limit ratio of group order to genus along the tower."""
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive (a tower must ramify)")
    return 1 / gamma


def first_step_genus(e: int, locus0: ClosureSet) -> GenusResult:
    """Genus after one totally ramified tame Kummer step of degree e."""
    entries = [(pt.degree, e - 1, 1) for pt in locus0]
    return hurwitz(e, 0, RamSummary.of(*entries))


def genus_growth_lower_bounds(step_degree: int, g_first, steps: int) -> list[Fraction]:
    """Lower bounds for the genus along the tower from
    2*g_(i+1) - 2 >= [F_(i+1):F_i] * (2*g_i - 2), iterated exactly."""
    if step_degree < 2:
        raise ValueError("tower steps have degree >= 2")
    if steps < 1:
        raise ValueError("need at least one step")
    seq = [Fraction(g_first)]
    for _ in range(steps - 1):
        prev = seq[-1]
        seq.append((step_degree * (2 * prev - 2) + 2) / 2)
    return seq


@dataclass(frozen=True)
class TowerSpec:
    """A recursive Kummer tower Y**e = h(X) over a chosen constant field."""

    name: str
    e: int
    f: RationalMap
    h: RationalMap
    base: FieldHandle


def builtin_tower(name: str, q: int) -> TowerSpec:
    """The two bundled tame towers: y3 is Y**3 = (X**2+X+1)/(3X) away from
    characteristic 3, y4 is Y**4 = (X**2+1)/(2X) in odd characteristic."""
    p, s = prime_power_decompose(q)
    base = make_field(p, s, 0)
    if name == "y3":
        e = 3
        num = Poly(base, (1 % p, 1, 1))
        den = Poly(base, (0, 3 % p))
    elif name == "y4":
        e = 4
        num = Poly(base, (1 % p, 0, 1))
        den = Poly(base, (0, 2 % p))
    else:
        raise ValueError(f"unknown builtin tower {name!r}")
    ok, bad = tameness_check(e, q)
    if not ok:
        raise WildKummerError(f"tower {name} is wild in characteristic {bad}")
    return TowerSpec(name=name, e=e, f=RationalMap.power(base, e),
                     h=RationalMap(num, den), base=base)


def tower_summary(spec: TowerSpec, max_ext: int = 12, max_iter: int = 64) -> dict:
    """Full analysis of one tower: entry locus, closure, genus data, limits."""
    lambda0 = kummer_ramified(spec.e, spec.h)
    lam = closure(spec.f, spec.h, lambda0, max_ext=max_ext, max_iter=max_iter)
    gamma = gamma_upper_bound(0, lam)
    tame, _ = tameness_check(spec.e, spec.base.q)
    return {
        "tower": spec.name,
        "q": spec.base.q,
        "e": spec.e,
        "lambda0": lambda0,
        "lambda": lam,
        "degree_sum": lam.degree_sum,
        "gamma_bound": gamma,
        "bq_lower": bq_lower_bound(gamma),
        "tame": tame,
        "first_step_genus": first_step_genus(spec.e, lambda0).g,
    }
