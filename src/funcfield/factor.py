"""Factorization and root finding for polynomials over finite fields.

The pipeline is the classical one: squarefree decomposition (with p-th root
extraction in characteristic p), distinct-degree factorization by Frobenius
powers, then equal-degree splitting (Cantor-Zassenhaus for odd q, trace maps
in characteristic 2).  Splitting candidates come from a fixed seeded
generator and the returned factor list is sorted canonically (degree, then
big-endian coefficient keys), so output order never depends on the random
walk taken to find it.
"""

from __future__ import annotations

import random

from .field import FieldElement, FieldHandle, preimage_keys
from .poly import Poly

_SPLIT_SEED = 0x5EED


def _frobenius_power(h: Poly, mod: Poly, times: int, exponent: int) -> Poly:
    """h**(exponent**times) mod `mod`, one exponent-power step at a time."""
    for _ in range(times):
        h = h.pow_mod(exponent, mod)
    return h


def is_irreducible(f: Poly) -> bool:
    """Rabin irreducibility test over the coefficient field."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    n = f.degree
    if n == 0:
        return False
    if n == 1:
        return True
    q = f.field.q
    fm = f.monic()
    x = Poly.x(f.field)
    h = _frobenius_power(x, fm, n, q)
    if not (h - x).is_zero():
        return False
    ell = 2
    m = n
    checked = set()
    while ell * ell <= m:
        if m % ell == 0:
            checked.add(ell)
            while m % ell == 0:
                m //= ell
        ell += 1
    if m > 1:
        checked.add(m)
    for ell in checked:
        h = _frobenius_power(x, fm, n // ell, q)
        if (h - x).gcd(fm).degree != 0:
            return False
    return True


def _pth_root(f: Poly) -> Poly:
    """p-th root of a polynomial whose exponents are all multiples of p."""
    F = f.field
    p, q = F.p, F.q
    root_exp = q // p  # c ** (q/p) is the p-th root of c in GF(q)
    keys = []
    for i in range(0, len(f.keys), p):
        keys.append(F.pow_k(f.keys[i], root_exp))
    return Poly(F, keys)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree factors with multiplicities; product recovers f/lc."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    f = f.monic()
    p = f.field.p
    out: list[tuple[Poly, int]] = []

    def recurse(g: Poly, outer: int):
        d = g.derivative()
        if d.is_zero():
            recurse(_pth_root(g), outer * p)
            return
        c = g.gcd(d)
        w = g // c
        i = 1
        while w.degree != 0:
            y = w.gcd(c)
            z = w // y
            if z.degree != 0:
                out.append((z, i * outer))
            i += 1
            w = y
            c = c // y
        if c.degree != 0:
            recurse(_pth_root(c), outer * p)

    if f.degree > 0:
        recurse(f, 1)
    return out


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    """Split a monic squarefree f into products of same-degree irreducibles."""
    F = f.field
    q = F.q
    x = Poly.x(F)
    out = []
    h = x
    rest = f
    d = 0
    while rest.degree is not None and rest.degree > 0:
        d += 1
        if rest.degree < 2 * d:
            out.append((rest, rest.degree))
            break
        h = h.pow_mod(q, rest)
        g = (h - x).gcd(rest)
        if g.degree != 0:
            out.append((g, d))
            rest = rest // g
            h = h % rest
    return out


def _random_poly(field: FieldHandle, degree: int, rng: random.Random) -> Poly:
    keys = [rng.randrange(field.q) for _ in range(degree)]
    keys.append(rng.randrange(1, field.q))
    return Poly(field, keys)


def _equal_degree(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """All monic irreducible factors of f, each known to have degree d."""
    n = f.degree
    if n == d:
        return [f]
    F = f.field
    q, p, s = F.q, F.p, F.s
    one = Poly.one(F)
    while True:
        h = _random_poly(F, max(n - 1, 1), rng)
        if p == 2:
            # trace map over GF(2) splits products of degree-d irreducibles
            t = h % f
            acc = t
            for _ in range(s * d - 1):
                t = t.pow_mod(2, f)
                acc = acc + t
            g = acc.gcd(f)
        else:
            e = (q ** d - 1) // 2
            g = (h.pow_mod(e, f) - one).gcd(f)
        if g.degree not in (0, n):
            return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def factorize(f: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors of f with multiplicities.

    The product of the factors (with multiplicity) times the leading
    coefficient of f reproduces f exactly.  Constants factor into the empty
    list.  Raises ValueError on the zero polynomial.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return []
    rng = random.Random(_SPLIT_SEED)
    factors: list[tuple[Poly, int]] = []
    for g, mult in squarefree_decomposition(f):
        for part, d in _distinct_degree(g):
            for irr in _equal_degree(part, d, rng):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: fm[0].sort_key())
    return factors


def roots_in(f: Poly, K: FieldHandle) -> list[FieldElement]:
    """All distinct roots of f in the extension K, sorted canonically.

    Computed as gcd(f, z**|K| - z) over K followed by linear splitting; no
    exhaustive scan of K.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    fk = f.lift(K)
    if fk.degree == 0:
        return []
    fk = fk.monic()
    x = Poly.x(K)
    h = _frobenius_power(x, fk, K.s, K.p)  # z**(p**s) = z**|K| mod fk
    g = (h - x).gcd(fk)
    if g.degree == 0:
        return []
    rng = random.Random(_SPLIT_SEED)
    keys = []
    for lin in _equal_degree(g, 1, rng):
        keys.append(K.neg_k(lin.keys[0]))
    keys.sort()
    return [FieldElement(K, k) for k in keys]


def count_roots_in_ext(f: Poly, m: int) -> int:
    """Number of distinct roots of f in GF(q**m), without building the field.

    z**(q**m) is reduced mod f by m repeated q-power maps; the answer is the
    degree of gcd(f, z**(q**m) - z).
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if m < 1:
        raise ValueError("extension exponent must be >= 1")
    if f.degree == 0:
        return 0
    fm = f.monic()
    q = f.field.q
    x = Poly.x(f.field)
    h = _frobenius_power(x, fm, m, q)
    g = (h - x).gcd(fm)
    return g.degree if g.degree is not None else 0


def minimal_polynomial(alpha: FieldElement, base: FieldHandle) -> Poly:
    """Minimal polynomial of alpha over the base subfield.

    alpha lives in an extension of base; the result is monic irreducible
    over base with alpha as a root.
    """
    K = alpha.owner
    if K.p != base.p or K.s % base.s != 0:
        raise ValueError("alpha does not live in an extension of base")
    qb = base.q
    # Frobenius orbit of alpha over the base field
    orbit = [alpha.key]
    cur = K.pow_k(alpha.key, qb)
    while cur != alpha.key:
        orbit.append(cur)
        cur = K.pow_k(cur, qb)
    prod = Poly.one(K)
    for root in orbit:
        prod = prod * Poly(K, (K.neg_k(root), 1))
    return Poly(base, preimage_keys(base, K, prod.keys))
