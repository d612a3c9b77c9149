"""The acceptance suite: one callable per criterion, shared by pytest and CLI.

Each criterion function returns an AcceptanceResult; run_all executes every
criterion in order and prints one pass/fail line each.  All expected values
are exact and pinned here, never recomputed from the code path under test.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .asymptotics import mq_ratio_sequence, splitting_place_feasible, t_of
from .carlitz import carlitz_action_of, compose, specialize, torsion_polynomial
from .factor import count_roots_in_ext, factorize, is_irreducible
from .field import make_field
from .genus import (cyclotomic_genus, cyclotomic_genus_via_hurwitz,
                    prime_power_torsion_genus, prime_torsion_genus)
from .intbounds import geometric_samples
from .poly import Poly
from .ramification import (abelian_different_lower_bound, conductor_exponent,
                           conductor_via_identity, different_exponent,
                           enumerate_filtrations)
from .towers import builtin_tower, tower_summary

_SAMPLE_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2)}


@dataclass
class AcceptanceResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number}: {self.name} ({self.elapsed:.2f}s) {self.detail}"


def _random_nonzero_poly(field, max_deg, rng):
    deg = rng.randrange(0, max_deg + 1)
    keys = [rng.randrange(field.q) for _ in range(deg)]
    keys.append(rng.randrange(1, field.q))
    return Poly(field, keys)


def _criterion(number: int, name: str, budget: float | None = None):
    """Wrap a check body as a timed criterion returning an AcceptanceResult.

    The body returns (passed, detail) at its first failure or once it has
    checked everything; a passing body over its budget (seconds) fails.
    """
    def wrap(body):
        @functools.wraps(body)
        def run() -> AcceptanceResult:
            start = time.monotonic()
            ok, detail = body()
            elapsed = time.monotonic() - start
            if ok and budget is not None and elapsed >= budget:
                ok, detail = False, f"runtime {elapsed:.2f}s exceeds {budget:g}s budget"
            return AcceptanceResult(number, name, ok, elapsed, detail)
        return run
    return wrap


@_criterion(1, "carlitz-module-axioms", budget=10.0)
def criterion_1_module_axioms():
    """action(M+N) = action(M)+action(N) and action(MN) = action(M) o action(N)."""
    rng = random.Random(20240917)
    pairs = 0
    for q, (p, s) in _SAMPLE_FIELDS.items():
        F = make_field(p, s, 0)
        for _ in range(70):
            M = _random_nonzero_poly(F, 4, rng)
            N = _random_nonzero_poly(F, 4, rng)
            S = M + N
            if not S.is_zero():
                if carlitz_action_of(S) != carlitz_action_of(M) + carlitz_action_of(N):
                    return False, f"additivity broke at q={q} M={M} N={N}"
            if carlitz_action_of(M * N) != compose(carlitz_action_of(M),
                                                   carlitz_action_of(N)):
                return False, f"multiplicativity broke at q={q} M={M} N={N}"
            pairs += 1
    return True, f"{pairs} random pairs, q in {{2,3,4}}, deg <= 4"


@_criterion(2, "torsion-degree-separability")
def criterion_2_torsion_degree():
    """z-degree of the torsion polynomial is q**deg(M) and d/dz recovers M."""
    rng = random.Random(4047)
    checked = 0
    for q, (p, s) in _SAMPLE_FIELDS.items():
        F = make_field(p, s, 0)
        for _ in range(60):
            M = _random_nonzero_poly(F, 4, rng)
            rho = torsion_polynomial(M)
            if rho.z_degree() != q ** M.degree or rho.z_derivative() != M:
                return False, f"failed at q={q}, M={M}"
            checked += 1
    return True, f"{checked} sampled moduli"


@_criterion(3, "torsion-counting-good-places", budget=5.0)
def criterion_3_torsion_counts():
    """Good-place specializations have exactly q**deg(M) torsion points."""
    checked = 0
    for q in (2, 3):
        p, s = _SAMPLE_FIELDS[q]
        F = make_field(p, s, 0)
        F2 = make_field(p, 2 * s, 0)
        moduli = []
        for d in (1, 2):
            for low in itertools.product(range(q), repeat=d):
                for lead in range(1, q):
                    moduli.append(Poly(F, tuple(low) + (lead,)))
        for M in moduli:
            op = carlitz_action_of(M)
            target = q ** M.degree
            for K in (F, F2):
                Mk = M.lift(K)
                for alpha in K.elements():
                    if Mk(alpha).is_zero():
                        continue
                    spec = specialize(op, alpha)
                    if spec.derivative().is_zero():
                        return False, f"inseparable at good place M={M} alpha={alpha}"
                    if not any(count_roots_in_ext(spec, m_ext) == target
                               for m_ext in range(1, 65)):
                        return False, f"no splitting extension for M={M} alpha={alpha}"
                    checked += 1
    return True, f"{checked} (modulus, place) specializations"


@_criterion(4, "genus-formula-triangle")
def criterion_4_genus_triangle():
    """Closed form, expanded forms and Hurwitz reassembly agree exactly."""
    cells = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for d in range(1, 7):
            direct = cyclotomic_genus(q, d, 1)
            if direct != prime_torsion_genus(q, d) or \
               direct != cyclotomic_genus_via_hurwitz(q, d, 1):
                return False, f"n=1 mismatch at q={q}, d={d}"
            cells += 1
            for n in range(2, 5):
                direct = cyclotomic_genus(q, d, n)
                if direct != prime_power_torsion_genus(q, d, n) or \
                   direct != cyclotomic_genus_via_hurwitz(q, d, n):
                    return False, f"mismatch at q={q}, d={d}, n={n}"
                cells += 1
    return True, f"{cells} exact cells"


@_criterion(5, "mq-estimator-trend")
def criterion_5_mq_estimator():
    """Family-d ratios stay above 2 on [5, 200] and land within 0.1 of 2."""
    for q in (2, 3):
        rows = mq_ratio_sequence(q, "d", range(5, 201), precision=20)
        for row in rows:
            if row.skipped or not row.ratio > 2:
                return False, f"ratio not above 2 at q={q}, d={row.index}"
        final = rows[-1].ratio
        if abs(final - 2) >= decimal.Decimal("0.1"):
            return False, f"|ratio-2| = {abs(final - 2)} at q={q}, d=200"
    return True, "q in {2,3}, d in [5,200], 20-digit decimals"


@_criterion(6, "tower-reproduction", budget=30.0)
def criterion_6_towers():
    """Both towers reproduce the published locus, bounds and first genus."""
    runs = 0
    for name, qs, g1 in (("y3", (5, 7, 11, 13), 2), ("y4", (3, 5, 7, 9), 3)):
        for q in qs:
            s = tower_summary(builtin_tower(name, q))
            base = s["lambda"].base
            x = Poly.x(base)
            expected = {x.keys, (base.neg_k(1), 1), None}  # classes of 0, 1, infinity
            if name == "y3":
                unit_poly = Poly(base, (1, 1, 1))
            else:
                unit_poly = Poly(base, (1, 0, 1))
            for factor_poly, _ in factorize(unit_poly):
                expected.add(factor_poly.keys)
            got = {pt.ident() for pt in s["lambda"]}
            if got != expected:
                return False, f"{name} q={q}: locus {s['lambda'].render()}"
            if s["degree_sum"] != 5 or s["gamma_bound"] != Fraction(3, 2) \
               or s["bq_lower"] != Fraction(2, 3) or s["first_step_genus"] != g1:
                return False, f"{name} q={q}: numbers off"
            runs += 1
    return True, f"{runs} tower instances, locus/gamma/Bq/first-genus exact"


@_criterion(7, "ramification-identity")
def criterion_7_ramification_identity():
    """Conductor identity, wild bound and the different lower bound, exhaustively."""
    count = 0
    for p in (2, 3, 5):
        for w in (1, 2):
            for b in range(1, 5):
                if gcd(b, p) != 1:
                    continue
                for filt in enumerate_filtrations(b, p, w, 6):
                    d = different_exponent(filt)
                    c = conductor_exponent(filt)
                    ident = conductor_via_identity(filt)
                    if ident != c:
                        return False, f"identity broke at {filt} (p={p})"
                    if Fraction(c) > Fraction(2 * d, filt.e):
                        return False, f"c > 2d/e at {filt} (p={p})"
                    if c >= 2 and d < abelian_different_lower_bound(c, b, p, w):
                        return False, f"different bound broke at {filt} (p={p})"
                    count += 1
    return True, f"{count} filtrations, exhaustive and exact"


@_criterion(8, "splitting-place-feasibility")
def criterion_8_splitting_feasibility():
    """Feasibility holds across the (q, genus) grid; fails under t = 4."""
    count = 0
    genera = geometric_samples(2, 10 ** 5, 40)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25):
        for g in genera:
            report = splitting_place_feasible(q, g)
            if not report.feasible or report.params.t != t_of(q, g):
                return False, f"feasibility failed at q={q}, g={g}"
            count += 1
    if splitting_place_feasible(2, 2, t=4).feasible:
        return False, "t=4 override unexpectedly feasible"
    return True, f"{count} (q, g) cells plus the t=4 counterexample"


@_criterion(9, "kernel-oracles")
def criterion_9_kernel_oracles():
    """Factorization round-trips and extension root counts match brute force."""
    rng = random.Random(90125)
    fields = [make_field(2, 1, 0), make_field(3, 1, 0), make_field(2, 2, 0),
              make_field(5, 1, 0), make_field(7, 1, 0), make_field(2, 3, 0),
              make_field(3, 2, 0)]
    for trial in range(1000):
        F = rng.choice(fields)
        deg = rng.randrange(1, 13)
        keys = [rng.randrange(F.q) for _ in range(deg)] + [rng.randrange(1, F.q)]
        f = Poly(F, keys)
        product = Poly.constant(F, f.leading_key())
        for g, mult in factorize(f):
            if not (g.is_monic() and is_irreducible(g)):
                return False, f"non-irreducible factor for {f} over {F!r}"
            product = product * g ** mult
        if product != f:
            return False, f"round-trip failed for {f} over {F!r} (trial {trial})"
    count_checks = 0
    for trial in range(40):
        F = rng.choice(fields)
        deg = rng.randrange(1, 13)
        keys = [rng.randrange(F.q) for _ in range(deg)] + [rng.randrange(1, F.q)]
        f = Poly(F, keys)
        m = 1
        while F.q ** (m + 1) <= 4096:
            m += 1
        for m_ext in range(1, m + 1):
            K = make_field(F.p, F.s * m_ext, 0)
            fk = f.lift(K)
            brute = sum(1 for e in K.elements() if fk.eval_k(e.key) == 0)
            if count_roots_in_ext(f, m_ext) != brute:
                return False, f"root count mismatch for {f}, m={m_ext}"
            count_checks += 1
    return True, f"1000 round-trips, {count_checks} exhaustive root counts"


CRITERIA = (
    criterion_1_module_axioms,
    criterion_2_torsion_degree,
    criterion_3_torsion_counts,
    criterion_4_genus_triangle,
    criterion_5_mq_estimator,
    criterion_6_towers,
    criterion_7_ramification_identity,
    criterion_8_splitting_feasibility,
    criterion_9_kernel_oracles,
)


def run_all(emit=print) -> list[AcceptanceResult]:
    results = []
    for criterion in CRITERIA:
        result = criterion()
        results.append(result)
        emit(result.line())
    return results
