"""Ramification filtrations: different exponents, Herbrand functions, conductors.

A filtration is modeled abstractly as the non-increasing sequence of
ramification group orders (g_0, g_1, ...), with g_i = 1 implicitly from the
first trivial index onward.  All derived quantities (different exponent d,
ramification index e = g_0, first trivial index a, conductor exponent c) are
computed from the orders alone, in exact rational arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .intbounds import is_prime


def _p_adic_split(n: int, p: int) -> tuple[int, int]:
    """Write n = b * p**w with p not dividing b."""
    w = 0
    while n % p == 0:
        n //= p
        w += 1
    return n, w


def _is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


@dataclass(frozen=True)
class RamFiltration:
    """Orders (g_0, ..., g_{a-1}) of the ramification groups at a place.

    The empty sequence is the unramified filtration.  For a ramified place,
    g_0 is the ramification index; g_1 (when present) must be the p-part of
    g_0 and every later order a p-power dividing its predecessor.
    """

    orders: tuple[int, ...]
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("characteristic must be a prime")
        orders = tuple(self.orders)
        object.__setattr__(self, "orders", orders)
        for g in orders:
            if g < 2:
                raise ValueError("ramification group orders must be >= 2")
        for i in range(len(orders) - 1):
            if orders[i] < orders[i + 1]:
                raise ValueError("orders must be non-increasing")
        if len(orders) >= 2:
            b, w = _p_adic_split(orders[0], self.p)
            if orders[1] != self.p ** w:
                raise ValueError("g_1 must equal the p-part of g_0")
            for g in orders[1:]:
                if not _is_power_of(g, self.p):
                    raise ValueError("wild orders must be powers of p")
            for i in range(1, len(orders) - 1):
                if orders[i] % orders[i + 1] != 0:
                    raise ValueError("orders must form a divisibility chain")

    @classmethod
    def parse(cls, text: str, p: int) -> "RamFiltration":
        """Parse the CLI text form, comma-separated orders like ``6,3,3``."""
        text = text.strip()
        if not text:
            return cls((), p)
        entries = text.split(",")
        if not all(t.strip() for t in entries):
            raise ValueError(f"empty entry in orders {text!r}")
        return cls(tuple(int(t) for t in entries), p)

    @property
    def e(self) -> int:
        """Ramification index g_0 (1 when unramified)."""
        return self.orders[0] if self.orders else 1

    @property
    def a(self) -> int:
        """Least index from which all ramification groups are trivial."""
        return len(self.orders)

    def order_at(self, i: int) -> int:
        if i < 0:
            raise ValueError("negative filtration index")
        return self.orders[i] if i < len(self.orders) else 1

    def is_unramified(self) -> bool:
        return not self.orders

    def is_tame(self) -> bool:
        return len(self.orders) == 1

    def is_wild(self) -> bool:
        return len(self.orders) >= 2

    @property
    def b(self) -> int:
        """Prime-to-p part of the ramification index."""
        return _p_adic_split(self.e, self.p)[0]

    @property
    def w(self) -> int:
        """p-adic valuation of the ramification index."""
        return _p_adic_split(self.e, self.p)[1]

    def level_counts(self) -> tuple[int, ...]:
        """(n_1, ..., n_w): n_j counts the indices i >= 1 with g_i = p**(w-j+1)."""
        w = self.w
        counts = [0] * w
        for g in self.orders[1:]:
            j = w - _p_adic_split(g, self.p)[1] + 1
            counts[j - 1] += 1
        return tuple(counts)

    def __str__(self):
        return ",".join(str(g) for g in self.orders)


def different_exponent(filtration: RamFiltration) -> int:
    """Hilbert's different theorem: d = sum of (g_i - 1)."""
    return sum(g - 1 for g in filtration.orders)


def phi_herbrand(filtration: RamFiltration, x) -> Fraction:
    """The lower-to-upper numbering transition function, exactly.

    phi(x) = x on [-1, 0]; for x > 0 it is the piecewise-linear function
    (g_1 + ... + g_floor(x) + (x - floor(x)) * g_(floor(x)+1)) / g_0.
    """
    x = Fraction(x)
    if x < -1:
        raise ValueError("phi is only defined for x >= -1")
    if x <= 0:
        return x
    g0 = filtration.e
    whole = int(x)
    acc = Fraction(0)
    for i in range(1, whole + 1):
        acc += filtration.order_at(i)
    acc += (x - whole) * filtration.order_at(whole + 1)
    return acc / g0


def psi_herbrand(filtration: RamFiltration, v) -> Fraction:
    """Inverse of phi, by walking the linear segments."""
    v = Fraction(v)
    if v < -1:
        raise ValueError("psi is only defined for v >= -1")
    if v <= 0:
        return v
    g0 = filtration.e
    x = Fraction(0)
    height = Fraction(0)
    i = 1
    while True:
        slope = Fraction(filtration.order_at(i), g0)
        if height + slope >= v or i > filtration.a:
            return x + (v - height) / slope
        height += slope
        x += 1
        i += 1


def conductor_exponent(filtration: RamFiltration) -> int:
    """Least integer k with trivial upper-numbering groups from k on.

    0 iff unramified, 1 iff tame; for wild filtrations this is
    floor(phi(a-1)) + 1, computed exactly.
    """
    if filtration.is_unramified():
        return 0
    if filtration.is_tame():
        return 1
    jump = phi_herbrand(filtration, filtration.a - 1)
    return int(jump) + 1


def conductor_via_identity(filtration: RamFiltration) -> Fraction:
    """The rational (d + a) / e; equals the conductor exponent exactly when
    integral (guaranteed on filtrations with integral upper jumps)."""
    if filtration.a < 1:
        raise ValueError("identity requires a ramified filtration")
    d = different_exponent(filtration)
    return Fraction(d + filtration.a, filtration.e)


def abelian_different_lower_bound(c: int, b: int, p: int, w: int) -> int:
    """Lower bound c*b*p**w - 1 - b - (c-2)*b*p**(w-1) on the different
    exponent of a wildly ramified place in an abelian extension."""
    if c < 2:
        raise ValueError("the bound requires conductor exponent c >= 2")
    if w < 1:
        raise ValueError("w must be >= 1")
    if gcd(b, p) != 1:
        raise ValueError("b must be coprime to p")
    return c * b * p ** w - 1 - b - (c - 2) * b * p ** (w - 1)


def _upper_jumps_integral(orders: tuple[int, ...], g0: int) -> bool:
    # Hasse-Arf surrogate: phi must be an integer at every jump i >= 1,
    # including the final drop to the trivial group.
    acc = 0
    for i in range(1, len(orders)):
        acc += orders[i]
        nxt = orders[i + 1] if i + 1 < len(orders) else 1
        if orders[i] > nxt and acc % g0 != 0:
            return False
    return True


def enumerate_filtrations(b: int, p: int, w: int, n_max: int) -> list[RamFiltration]:
    """All admissible wild filtrations with e = b*p**w and level counts <= n_max.

    A filtration is built from level counts (n_1, ..., n_w) with n_1 >= 1 and
    each n_j <= n_max: the orders are g_0 = b*p**w followed by n_j copies of
    p**(w-j+1) for each level j.  Admissibility imposes b | n_1 together with
    integrality of the upper-numbering jumps (both consequences of Hasse-Arf
    for abelian extensions).  Deterministic lexicographic order in the level
    counts.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    if gcd(b, p) != 1:
        raise ValueError("b must be coprime to p")
    g0 = b * p ** w
    out = []
    for counts in itertools.product(range(n_max + 1), repeat=w):
        n1 = counts[0]
        if n1 < 1 or n1 % b != 0:
            continue
        orders = [g0]
        for j, nj in enumerate(counts, start=1):
            orders.extend([p ** (w - j + 1)] * nj)
        orders = tuple(orders)
        if not _upper_jumps_integral(orders, g0):
            continue
        out.append(RamFiltration(orders, p))
    return out
