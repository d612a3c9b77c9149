"""Exact integer and rational bracketing utilities.

Every inequality the library certifies is decided in integer or rational
arithmetic.  Irrational quantities (square roots, fourth roots, base-q
logarithms) never enter a comparison as floats: they are either eliminated
by raising both sides to an integer power, or replaced by integer floor or
ceiling brackets whose direction preserves the claimed inequality.
"""

from __future__ import annotations

import math
from fractions import Fraction


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test, adequate at desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def prime_divisors(n: int) -> list[int]:
    """The distinct prime divisors of n >= 1 in increasing order, by trial
    division."""
    if n < 1:
        raise ValueError("prime_divisors needs n >= 1")
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Write q = p**s with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = q
    for cand in range(2, q + 1):
        if cand * cand > q:
            break
        if q % cand == 0:
            p = cand
            break
    s = 0
    rest = q
    while rest % p == 0:
        rest //= p
        s += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, s


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a non-negative integer."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0 and k >= 1")
    if n < 2 or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << (-(-n.bit_length() // k))  # initial overestimate
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def ceil_root(n: int, k: int) -> int:
    """Ceiling of the k-th root of a non-negative integer."""
    r = iroot(n, k)
    return r if r ** k == n else r + 1


def floor_log(base: int, n: int) -> int:
    """Largest u >= 0 with base**u <= n, for base >= 2 and n >= 1."""
    if base < 2 or n < 1:
        raise ValueError("floor_log needs base >= 2 and n >= 1")
    u = 0
    power = base
    while power <= n:
        u += 1
        power *= base
    return u


def ceil_log(base: int, n: int) -> int:
    """Smallest u >= 0 with base**u >= n, for base >= 2 and n >= 1."""
    if base < 2 or n < 1:
        raise ValueError("ceil_log needs base >= 2 and n >= 1")
    u = 0
    power = 1
    while power < n:
        u += 1
        power *= base
    return u


def root_bracket(n: int, k: int, digits: int = 20) -> tuple[Fraction, Fraction]:
    """Exact rational bracket [lo, hi] around n**(1/k) of width <= 10**-digits."""
    if n < 0 or k < 1 or digits < 0:
        raise ValueError("root_bracket needs n >= 0, k >= 1, digits >= 0")
    scale = 10 ** digits
    f = iroot(n * scale ** k, k)
    lo = Fraction(f, scale)
    hi = lo if lo ** k == n else Fraction(f + 1, scale)
    return lo, hi


def scaled_power_le(a, base: int, kpow: int, root: int, b) -> bool:
    """Decide a * base**(kpow/root) <= b exactly for rational a, b >= 0.

    Both sides are raised to the root-th power, so no irrational value is
    ever approximated.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a < 0 or b < 0:
        raise ValueError("scaled_power_le compares non-negative quantities")
    if a == 0:
        return True
    return a ** root * base ** kpow <= b ** root


def geometric_samples(lo: int, hi: int, count: int) -> list[int]:
    """Deterministic strictly increasing log-spaced integer samples in [lo, hi].

    Pure integer interpolation (k-th roots of mixed powers), so the sample is
    bit-identical across platforms.
    """
    if lo < 1 or hi < lo or count < 1:
        raise ValueError("geometric_samples needs 1 <= lo <= hi, count >= 1")
    if count == 1:
        return [lo]
    if count > hi - lo + 1:
        raise ValueError("sample count too large for range")
    out: list[int] = []
    steps = count - 1
    for i in range(count):
        val = iroot(lo ** (steps - i) * hi ** i, steps)
        if out:
            val = max(val, out[-1] + 1)
        out.append(val)
    if out[-1] > hi:
        raise ValueError("rounding pushed samples past the upper end")
    return out
