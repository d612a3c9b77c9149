"""The four seeded workloads: input generation, execution and answer checks.

Generation draws only plain integers, element keys and argv lists from the
seed; no field is built, so the benchmark's set-up time covers interpreter
start, import and this generation alone.  Each workload keeps the mix of
costly query kinds fixed and lets the seed pick coefficients, sample members
and order, so that seeds differ in inputs but not in the amount of work.

towers
    ``cli.main(["tower", ...])`` in-process.  Builtin y3/y4 over a fixed set
    of extension q up to 2187 (where ``closure``, ``minimal_polynomial`` and
    ``embed_map`` do most of the work) and over fixed primes whose special
    polynomial does not split, plus a seeded sample of primes above 200
    where it splits; seeded custom Kummer maps Y^e = h(X) of degree <= 3 over q in
    {3, 5, 7, 9, 25} at max-ext 2; the three slow custom towers of the
    ROADMAP at budgets that finish (q=5 max-ext 8, q=3 max-ext 9, q=7 max-ext
    8, all exit 3).  The same towers at max-ext 24-27 take 128-295 s or end
    in MemoryError and are excluded for run length.
factor
    ``factorize``, ``roots_in`` (prime-field source, so ``embed_map`` is
    trivial) and ``count_roots_in_ext`` on seeded polynomials of degree 4-16
    over four field regimes.  Loads ``poly``, ``factor`` and the field kernel
    through Frobenius ``pow_mod`` with no closure and no embedding tables.
    Over untabled fields ``factorize`` stays at low degree (see
    FACTORIZE_DEGREES), so that seeds do not differ in the latency tail.
torsion
    Carlitz module axioms (``carlitz_action_of``/``compose``) at moderate
    modulus degree, then ``specialize`` at every place of GF(q) and GF(q^2)
    with ``count_roots_in_ext`` up to the splitting degree, q in
    {2, 3, 4, 5, 7, 8, 9}: thousands of short Frobenius steps on tabled
    fields.  The only workload that runs ``carlitz``.
invariants
    ``cli.main`` sweeps of cyclotomic, asymptotic, chebotarev, bounds and
    ramification.  Never touches ``field``, ``poly`` or ``factor``: the
    control on which a kernel change predicts no change, and the workload
    that measures ``genus``, ``ramification``, ``asymptotics``, ``intbounds``
    and the CLI's per-call overhead.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from fractions import Fraction

FACTOR_REGIMES = {
    "prime": ((3, 1), (7, 1), (101, 1)),
    "tabled": ((2, 3), (3, 2), (5, 3)),
    "untabled_p2": ((2, 8), (2, 12)),
    "untabled_odd": ((3, 5), (5, 4)),
}

# Degrees per regime.  The cost of factorize over an untabled field varies
# severalfold with the factor pattern the seed draws (0.5-2.2 s at degree 16
# over GF(5^4)), so there it stays at low degree and the expensive tail is
# carried by count_roots_in_ext, whose cost depends on degree and m alone.
FACTORIZE_DEGREES = {"prime": range(4, 17), "tabled": range(4, 17),
                     "untabled_p2": range(4, 11), "untabled_odd": range(4, 7)}
COUNT_DEGREES = {"prime": range(4, 17), "tabled": range(4, 17),
                 "untabled_p2": range(4, 17), "untabled_odd": (4, 6, 8, 10, 12)}

# (q, e, f, h, max_ext) of the ROADMAP's slow custom towers, at budgets that
# finish in 1-3 s; each overflows its budget (exit 3) at this size.
SLOW_TOWERS = (
    (5, 2, "x^2", "x^2+1/x", 8),
    (3, 2, "x^2", "x+2*x^3/1", 9),
    (7, 3, "x^3", "x^3+x+1/x^2", 8),
)
BUILTIN_EXT_Q = (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169,
                 243, 256, 289, 343, 361, 512, 625, 729, 1024, 1331, 2187)
# funcfield tables fields up to this size; seeded primes stay above it, so
# that the seed does not change how many q^2 tables a pass holds.
TABLE_LIMIT = 200
# Small primes where the builtin's special polynomial does not split, so the
# tower works in the tabled GF(p^2).  _gen_towers adds 40 such primes above
# TABLE_LIMIT, evenly spaced: 30-150 ms each, a cost that varies with p, so
# they are fixed and the seed samples the cheap, flat-cost split primes.
BUILTIN_NONSPLIT_SMALL = (("y3", 2), ("y3", 5), ("y3", 11), ("y3", 101),
                          ("y4", 3), ("y4", 7), ("y4", 11), ("y4", 103))
NONSPLIT_LARGE_PER_BUILTIN = 20
BUILTIN_PINNED = {"degree_sum": 5, "gamma_bound": "3/2", "bq_lower": "2/3",
                  "tame": True}
BUILTIN_FIRST_GENUS = {"y3": 2, "y4": 3}
TORSION_AXIOMS = 20
TORSION_AXIOM_DEGREE = {2: 4, 3: 3, 4: 2, 5: 2, 7: 2, 8: 2, 9: 1}
TORSION_Q = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
             9: (3, 2)}


# -- generation ---------------------------------------------------------------


def _primes_up_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\0\0"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(n + 1) if sieve[i]]


def _prime_of(q):
    return next(p for p in range(2, q + 1) if q % p == 0)


def _class_degree(rendered):
    """Degree of a class rendered by its minimal polynomial, or 1 for inf;
    terms ascend, so the last exponent is the degree."""
    last = rendered.rpartition(" + ")[2]
    return int(last.rpartition("x^")[2]) if "x^" in last else 1


def _poly_text(coeffs):
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            terms.append(str(c) if i == 0 else f"{c}*x" if i == 1 else f"{c}*x^{i}")
    return "+".join(terms)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = (out[i + j] + u * v) % p
    return out


def _kummer_map(rng, p):
    """num/den coefficient lists over GF(p), coprime, squarefree, degree <= 3,
    with total degree >= 3 so that the tower ramifies enough to be a tower."""
    squares = {(x * x) % p for x in range(p)}
    nonsquares = [n for n in range(1, p) if n not in squares]
    while True:
        roots = rng.sample(range(p), min(p, 3))
        split = rng.randrange(len(roots) + 1)
        num_roots, den_roots = roots[:split], roots[split:]
        num, den = [rng.randrange(1, p)], [1]
        for r in num_roots:
            num = _poly_mul(num, [(-r) % p, 1], p)
        for r in den_roots:
            den = _poly_mul(den, [(-r) % p, 1], p)
        if nonsquares and rng.random() < 0.5:
            quad = [(-rng.choice(nonsquares)) % p, 0, 1]
            if len(num) <= 2 and rng.random() < 0.5:
                num = _poly_mul(num, quad, p)
            elif len(den) <= 2:
                den = _poly_mul(den, quad, p)
        if len(num) + len(den) - 2 >= 3 and max(len(num), len(den)) <= 4:
            return num, den


def _splits(name, p):
    """Whether the special polynomial of the builtin (x^2+x+1 for y3, x^2+1
    for y4) splits over GF(p); if not, its roots live in GF(p^2)."""
    return p % 3 == 1 if name == "y3" else p % 4 == 1


def _gen_towers(rng):
    """Fixed towers in a fixed order, seeded towers inserted at seeded places.

    Towers over one field share its tables and embeddings, so whichever runs
    first pays for them; fixing the order of the fixed part keeps that cost
    on the same queries for every seed.
    """
    builtin = lambda name, q: ("cli", ["tower", "--builtin", name, "--q", str(q)],
                               {"builtin": name})
    fixed = []
    for q in BUILTIN_EXT_Q:
        p = _prime_of(q)
        fixed += [builtin(name, q) for name, ok in (("y3", p != 3), ("y4", p != 2)) if ok]
    fixed += [builtin(name, q) for name, q in BUILTIN_NONSPLIT_SMALL]
    for name in ("y3", "y4"):
        large = [p for p in _primes_up_to(2187) if p > TABLE_LIMIT and not _splits(name, p)]
        step = len(large) / NONSPLIT_LARGE_PER_BUILTIN
        fixed += [builtin(name, large[int(i * step)]) for i in range(NONSPLIT_LARGE_PER_BUILTIN)]
    for q, e, f, h, max_ext in SLOW_TOWERS:
        argv = ["tower", "--q", str(q), "--e", str(e), "--f", f, "--h", h,
                "--max-ext", str(max_ext)]
        fixed.append(("cli", argv, {"expect_exit": 3}))
    split = [(name, p) for p in _primes_up_to(2187) for name in ("y3", "y4")
             if p > TABLE_LIMIT and _splits(name, p)]
    seeded = [builtin(name, q) for name, q in rng.sample(split, 115)]
    for q in (3, 5, 7, 9, 25) * 6:
        p = _prime_of(q)
        e = 2 if p == 3 else rng.choice((2, 3))
        num, den = _kummer_map(rng, p)
        argv = ["tower", "--q", str(q), "--e", str(e), "--f", f"x^{e}",
                "--h", f"{_poly_text(num)}/{_poly_text(den)}", "--max-ext", "2"]
        seeded.append(("cli", argv, {"custom": (q, e, num, den, 2)}))
    queries = fixed
    for query in seeded:
        queries.insert(rng.randrange(len(queries) + 1), query)
    return queries


def _random_keys(rng, q, degree):
    return [rng.randrange(q) for _ in range(degree)] + [rng.randrange(1, q)]


def _gen_factor(rng):
    queries = []
    for regime, fields in FACTOR_REGIMES.items():
        for p, s in fields:
            q = p ** s
            for _ in range(3):
                for deg in FACTORIZE_DEGREES[regime]:
                    queries.append(("factorize", (p, s, _random_keys(rng, q, deg)), {}))
                for i, deg in enumerate(COUNT_DEGREES[regime]):
                    m = 2 if regime == "untabled_odd" else 1 + i % 4
                    queries.append(("count", (p, s, _random_keys(rng, q, deg), m), {}))
                for deg in range(4, 17):
                    queries.append(("roots_in", (p, s, _random_keys(rng, p, deg)), {}))
    rng.shuffle(queries)
    return queries


def _gen_torsion(rng):
    """Every monic modulus of degree 1 (and 2 for q <= 5), each scaled by a
    seeded unit, which leaves its torsion and so the work unchanged."""
    queries = []
    for q, (p, s) in TORSION_Q.items():
        top = TORSION_AXIOM_DEGREE[q]
        for i in range(TORSION_AXIOMS):
            deg_m, deg_n = 1 + i % top, 1 + (i // top) % top
            queries.append(("axioms", (p, s, _random_keys(rng, q, deg_m),
                                       _random_keys(rng, q, deg_n)), {}))
        monic = [[b, 1] for b in range(q)]
        if q <= 5:
            monic += [[c, b, 1] for b in range(q) for c in range(q)]
        for M in monic:
            unit = rng.randrange(1, q)
            for ext in (1, 2):
                for alpha in range(q ** ext):
                    queries.append(("torsion", (p, s, M, unit, ext, alpha), {}))
    rng.shuffle(queries)
    return queries


def _admissible(orders, g0):
    """Integral upper ramification jumps (Hasse-Arf for abelian extensions)."""
    acc = 0
    for i in range(1, len(orders)):
        acc += orders[i]
        nxt = orders[i + 1] if i + 1 < len(orders) else 1
        if orders[i] > nxt and acc % g0:
            return False
    return True


def _filtration(rng, p):
    while True:
        b = rng.choice([x for x in range(1, 7) if x % p])
        w = rng.randrange(3)
        orders = [b * p ** w]
        for j in range(1, w + 1):
            orders += [p ** (w - j + 1)] * rng.randrange(0 if j > 1 else 1, 7)
        if orders[0] >= 2 and _admissible(orders, orders[0]):
            return ",".join(map(str, orders))


def _gen_invariants(rng):
    prime_powers = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49]
    qs = lambda: str(rng.choice(prime_powers))
    queries = []
    for _ in range(7 * 40):
        d = rng.randrange(1, 6)
        queries.append(["cyclotomic", "--q", qs(), "--d", f"{d}..{d + rng.randrange(4)}",
                        "--n", f"1..{rng.randrange(1, 5)}"])
    for _ in range(7 * 30):
        d = rng.randrange(1, 40)
        queries.append(["asymptotic", "--q", qs(), "--family", "d",
                        "--d", f"{d}..{d + rng.randrange(10)}"])
        n = rng.randrange(2, 6)
        queries.append(["asymptotic", "--q", qs(), "--family", "n",
                        "--d", str(rng.randrange(1, 6)), "--n", f"{n}..{n + rng.randrange(6)}"])
    for _ in range(7 * 40):
        k = rng.randrange(1, 40)
        m = rng.randrange(1, 30)
        queries.append(["chebotarev", "--q", qs(), "--k", f"{k}..{k + rng.randrange(8)}",
                        "--m", str(m), "--conj-size", str(rng.randrange(1, m + 1)),
                        "--g-f", str(rng.randrange(0, 50)), "--g-e", str(rng.randrange(0, 5)),
                        "--d", str(rng.randrange(1, 5))])
    for _ in range(7 * 40):
        g = rng.randrange(2, 3000)
        queries.append(["bounds", "--mode", "splitting", "--q", qs(),
                        "--g", f"{g}..{g + rng.randrange(10)}"])
        m_f = rng.randrange(1, 5000)
        queries.append(["bounds", "--mode", "genus", "--q", qs(),
                        "--m-f", f"{m_f}..{m_f + rng.randrange(10)}",
                        "--t", str(rng.randrange(1, 40))])
        t = rng.randrange(1, 100)
        queries.append(["bounds", "--mode", "mflog", "--q", qs(),
                        "--t-range", f"{t}..{t + rng.randrange(10)}",
                        "--g-e", str(rng.randrange(0, 6)),
                        "--conductor-degree", str(rng.randrange(0, 6))])
    for _ in range(7 * 80):
        p = rng.choice((2, 3, 5, 7))
        queries.append(["ramification", "--orders", _filtration(rng, p), "--p", str(p)])
    for _ in range(7 * 20):
        p = rng.choice((2, 3, 5))
        queries.append(["ramification", "--enumerate", "--p", str(p),
                        "--b", str(rng.choice([x for x in range(1, 5) if x % p])),
                        "--w", str(rng.randrange(1, 3)), "--n-max", str(rng.randrange(2, 7))])
    queries = [(["--format", "json"] if rng.random() < 0.3 else []) + q for q in queries]
    rng.shuffle(queries)
    return [("cli", argv, {}) for argv in queries]


GENERATORS = {"towers": _gen_towers, "factor": _gen_factor,
              "torsion": _gen_torsion, "invariants": _gen_invariants}


def generate(workload: str, seed: int) -> list:
    """The workload's query list: (kind, args, meta) tuples of plain data."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# -- execution ------------------------------------------------------------------


def _canon(value) -> str:
    return json.dumps(value, separators=(",", ":"))


class Runner:
    """Executes queries against the funcfield modules it is given.

    Every call goes through a module attribute looked up at call time, so a
    tracer that rebinds those attributes sees the calls.
    """

    def __init__(self, modules):
        self.m = modules

    def execute(self, query) -> str:
        kind, args, _ = query
        if kind == "cli":
            return self._q_cli(args)
        return getattr(self, "_q_" + kind)(*args)

    def _q_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.m.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects the flags, as the CLI would
                code = exc.code
        return f"exit={code}\n{out.getvalue()}"

    def _field(self, p, s):
        return self.m.field.make_field(p, s, 0)

    def _q_factorize(self, p, s, keys):
        f = self.m.poly.Poly(self._field(p, s), keys)
        return _canon([[list(g.keys), mult] for g, mult in self.m.factor.factorize(f)])

    def _q_count(self, p, s, keys, m):
        f = self.m.poly.Poly(self._field(p, s), keys)
        return _canon(self.m.factor.count_roots_in_ext(f, m))

    def _q_roots_in(self, p, s, keys):
        f = self.m.poly.Poly(self._field(p, 1), keys)
        return _canon([r.key for r in self.m.factor.roots_in(f, self._field(p, s))])

    def _q_axioms(self, p, s, M, N):
        Poly, carlitz = self.m.poly.Poly, self.m.carlitz
        F = self._field(p, s)
        Mp, Np = Poly(F, M), Poly(F, N)
        op = lambda A: [list(c.keys) for c in A.coeffs]
        A, B = carlitz.carlitz_action_of(Mp), carlitz.carlitz_action_of(Np)
        S = Mp + Np
        return _canon({
            "A": op(A), "B": op(B),
            "S": op(carlitz.carlitz_action_of(S)) if not S.is_zero() else None,
            "P": op(carlitz.carlitz_action_of(Mp * Np)),
            "C": op(carlitz.compose(A, B)),
        })

    def _q_torsion(self, p, s, M, unit, ext, alpha):
        Poly, carlitz, factor = self.m.poly.Poly, self.m.carlitz, self.m.factor
        F = self._field(p, s)
        K = self._field(p, s * ext)
        Mp = Poly(F, M).scale_k(unit)
        if Mp.lift(K).eval_k(alpha) == 0:
            return _canon("bad")
        spec = carlitz.specialize(carlitz.carlitz_action_of(Mp), K.element(alpha))
        target = F.q ** Mp.degree
        counts = []
        for m in range(1, 65):
            counts.append(factor.count_roots_in_ext(spec, m))
            if counts[-1] == target:
                break
        return _canon(counts)


# -- checks (outside the timed region) ------------------------------------------


class Checker:
    """Independent checks of each query's answer; returns a failure reason or None."""

    def __init__(self, modules):
        self.m = modules

    def check(self, query, output: str):
        kind, args, meta = query
        if kind == "cli":
            code, _, text = output.partition("\n")
            return self._check_cli(args, int(code[len("exit="):]), text, meta)
        return getattr(self, "_c_" + kind)(*args, json.loads(output))

    def _field(self, p, s):
        return self.m.field.make_field(p, s, 0)

    def _factors(self, F, factor_keys):
        Poly = self.m.poly.Poly
        return [(Poly(F, keys), mult) for keys, mult in factor_keys]

    def _c_factorize(self, p, s, keys, result):
        Poly, factor = self.m.poly.Poly, self.m.factor
        F = self._field(p, s)
        f = Poly(F, keys)
        product = Poly.constant(F, f.leading_key())
        for g, mult in self._factors(F, result):
            if not g.is_monic() or not factor.is_irreducible(g):
                return f"factor {g} is not monic irreducible"
            product = product * g ** mult
        if product != f:
            return "factor product does not reproduce f"
        return None

    def _distinct_root_count(self, f, m):
        """Sum of deg g over the irreducible factors g of f with deg g | m."""
        return sum(g.degree for g, _ in self.m.factor.factorize(f) if m % g.degree == 0)

    def _c_count(self, p, s, keys, m, result):
        f = self.m.poly.Poly(self._field(p, s), keys)
        expected = self._distinct_root_count(f, m)
        return None if result == expected else f"count {result} != {expected}"

    def _c_roots_in(self, p, s, keys, result):
        Poly = self.m.poly.Poly
        f = Poly(self._field(p, 1), keys)
        K = self._field(p, s)
        fk = f.lift(K)
        if any(fk.eval_k(r) != 0 for r in result):
            return "a returned root does not evaluate to zero"
        if result != sorted(set(result)):
            return "roots not distinct and sorted"
        expected = self._distinct_root_count(f, s)
        return None if len(result) == expected else f"{len(result)} roots != {expected}"

    def _c_axioms(self, p, s, M, N, result):
        Poly = self.m.poly.Poly
        F = self._field(p, s)
        if result["S"] is not None:
            width = max(len(result["A"]), len(result["B"]))
            pad = lambda op: [Poly(F, c) for c in op] + [Poly.zero(F)] * (width - len(op))
            summed = [a + b for a, b in zip(pad(result["A"]), pad(result["B"]))]
            while summed and summed[-1].is_zero():
                summed.pop()
            if [list(c.keys) for c in summed] != result["S"]:
                return "action(M+N) != action(M) + action(N)"
        if result["P"] != result["C"]:
            return "action(MN) != action(M) o action(N)"
        if len(result["A"]) - 1 != len(M) - 1:
            return "z-degree of action(M) is not q^deg M"
        if result["A"][0] != list(Poly(F, M).keys):
            return "d/dz of action(M) does not recover M"
        return None

    def _c_torsion(self, p, s, M, unit, ext, alpha, result):
        if result == "bad":
            return None  # counted per (M, ext) in check_bad_places
        F = self._field(p, s)
        target = F.q ** (len(M) - 1)
        if not result or result[-1] != target:
            return f"torsion count never reaches {target}: {result}"
        if any(target % c for c in result):
            return "a torsion count does not divide q^deg M"
        return None

    def check_bad_places(self, queries, outputs):
        """Bad places of M in GF(q^ext) are exactly the roots of M there.

        Returns a failure reason for every query of a (M, ext) group whose
        count of bad places differs from the root count of M.
        """
        groups = {}
        for qid, ((kind, args, _), out) in enumerate(zip(queries, outputs)):
            if kind == "torsion" and out is not None:
                p, s, M, _unit, ext, alpha = args
                group = groups.setdefault((p, s, tuple(M), ext), ({}, set()))
                group[0][qid] = alpha
                if json.loads(out) == "bad":
                    group[1].add(alpha)
        failures = {}
        for (p, s, M, ext), (members, bad) in groups.items():
            expected = self._distinct_root_count(self.m.poly.Poly(self._field(p, s), M), ext)
            if len(bad) != expected:
                for qid in members:
                    failures[qid] = f"M={list(M)} ext={ext}: {len(bad)} bad places, {expected} roots"
        return failures

    # -- CLI outputs --

    def _check_cli(self, argv, code, text, meta):
        command = next(a for a in argv if not a.startswith("-") and a != "json")
        if command == "tower":
            return self._check_tower(argv, code, text, meta)
        if code != 0:
            return f"exit {code}"
        rows = self._rows(argv, text)
        return getattr(self, "_cli_" + command)(argv, rows)

    @staticmethod
    def _rows(argv, text):
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            return [{k: str(v) for k, v in row.items()} for row in json.loads(text)["rows"]]
        reader = csv.reader(text.splitlines())
        header = next(reader)
        return [dict(zip(header, row)) for row in reader]

    @staticmethod
    def _flag(argv, name, default=None):
        return argv[argv.index(name) + 1] if name in argv else default

    @staticmethod
    def _span(text):
        lo, _, hi = text.partition("..")
        return range(int(lo), int(hi or lo) + 1)

    def _cli_cyclotomic(self, argv, rows):
        genus = self.m.genus
        q = int(self._flag(argv, "--q"))
        ds, ns = self._span(self._flag(argv, "--d")), self._span(self._flag(argv, "--n"))
        if len(rows) != len(ds) * len(ns):
            return "row count differs from the grid"
        for row in rows:
            d, n, g = int(row["d"]), int(row["n"]), int(row["g"])
            expanded = genus.prime_torsion_genus(q, d) if n == 1 else \
                genus.prime_power_torsion_genus(q, d, n)
            if not g == expanded.g == genus.cyclotomic_genus_via_hurwitz(q, d, n).g:
                return f"genus forms disagree at q={q} d={d} n={n}"
        return None

    def _cli_asymptotic(self, argv, rows):
        genus = self.m.genus
        q = int(self._flag(argv, "--q"))
        family = self._flag(argv, "--family")
        indices = self._span(self._flag(argv, "--d" if family == "d" else "--n"))
        if len(rows) != len(indices):
            return "row count differs from the grid"
        for row in rows:
            d, n, m, g = (int(row[k]) for k in ("d", "n", "m", "g"))
            if m != (q ** d - 1) * q ** ((n - 1) * d):
                return f"m wrong at d={d} n={n}"
            expected = genus.prime_torsion_genus(q, d) if n == 1 else \
                genus.prime_power_torsion_genus(q, d, n)
            if g != expected.g:
                return f"genus wrong at d={d} n={n}"
            if (row["ratio"] == "") != (g <= 0 or m <= 1):
                return f"ratio presence wrong at d={d} n={n}"
        return None

    def _cli_chebotarev(self, argv, rows):
        if len(rows) != len(self._span(self._flag(argv, "--k"))):
            return "row count differs from the grid"
        for row in rows:
            if int(row["positive"]) != int(Fraction(row["lower"]) > 0):
                return f"positive flag wrong at k={row['k']}"
        return None

    def _cli_bounds(self, argv, rows):
        mode = self._flag(argv, "--mode")
        q = int(self._flag(argv, "--q"))
        grid = {"splitting": "--g", "genus": "--m-f", "mflog": "--t-range"}[mode]
        if len(rows) != len(self._span(self._flag(argv, grid))):
            return "row count differs from the grid"
        for row in rows:
            if mode == "splitting":
                parts = [int(row[k]) for k in ("frobenius_half", "base_quarter",
                                               "genus_term", "degree_term")]
                if int(row["feasible"]) != 1 or not all(parts):
                    return f"split place infeasible at g={row['g']}"
            elif mode == "genus":
                lower, upper = Fraction(row["lower"]), Fraction(row["upper"])
                if lower > upper or int(row["exact"]) != (lower == upper):
                    return f"genus bracket inconsistent at m_f={row['m_f']}"
            else:
                t, g_e, c = int(row["t"]), int(row["g_e"]), int(row["conductor_degree"])
                if int(row["m_f_bound"]) != t * q ** (3 * g_e + c):
                    return f"m_f bound wrong at t={t}"
                if q ** (int(row["log_ceil"]) - 1) >= t and t > 1:
                    return f"log ceiling too large at t={t}"
        return None

    def _cli_ramification(self, argv, rows):
        if "--orders" in argv and len(rows) != 1:
            return "single filtration gave several rows"
        for row in rows:
            orders = [int(x) for x in row["orders"].split(",")]
            d, c, e, a = (int(row[k]) for k in ("d", "c", "e", "a"))
            if d != sum(g - 1 for g in orders) or e != orders[0] or a != len(orders):
                return f"filtration data wrong for {row['orders']}"
            if Fraction(d + a, e) != c:
                return f"conductor identity c = (d+a)/e fails for {row['orders']}"
        return None

    def _check_tower(self, argv, code, text, meta):
        if "expect_exit" in meta:
            return None if code == meta["expect_exit"] else f"exit {code}, expected {meta['expect_exit']}"
        if "custom" in meta and code == 3:
            return None  # budget overflow is a documented outcome for a custom map
        if code != 0:
            return f"exit {code}"
        out = json.loads(text)
        if not set(out["lambda0"]) <= set(out["lambda"]):
            return "lambda0 is not inside lambda"
        if sum(map(_class_degree, out["lambda"])) != out["degree_sum"]:
            return "degree_sum differs from the listed classes"
        e = out["e"]
        two_g_minus_2 = -2 * e + (e - 1) * sum(map(_class_degree, out["lambda0"]))
        if out["first_step_genus"] != two_g_minus_2 // 2 + 1:
            return "first_step_genus differs from the Hurwitz formula"
        gamma = Fraction(out["degree_sum"], 2) - 1
        if Fraction(out["gamma_bound"]) != gamma or Fraction(out["bq_lower"]) != 1 / gamma:
            return "gamma or B_q inconsistent with degree_sum"
        if "builtin" in meta:
            pinned = dict(BUILTIN_PINNED, first_step_genus=BUILTIN_FIRST_GENUS[meta["builtin"]])
            for key, value in pinned.items():
                if out[key] != value:
                    return f"{key} = {out[key]}, paper value {value}"
            return None
        return self._check_custom_locus(meta["custom"], out)

    def _check_custom_locus(self, custom, out):
        q, e, num, den, max_ext = custom
        towers, Poly = self.m.towers, self.m.poly.Poly
        p = _prime_of(q)
        base = self._field(p, 1 if q == p else 2)
        h = towers.RationalMap(Poly(base, num), Poly(base, den))
        f = towers.RationalMap.power(base, e)
        lam = towers.closure(f, h, towers.kummer_ramified(e, h), max_ext=max_ext)
        if lam.render() != out["lambda"]:
            return "rendered locus differs from the closure"
        if not towers.closure_sweep_adds_nothing(f, h, lam, max_ext=max_ext):
            return "one more closure sweep adds a class"
        return None
