"""Exact arithmetic in prime-power finite fields GF(p**s).

Elements are held in polynomial-basis coordinates over GF(p): an element is
a vector (c_0, ..., c_{s-1}) of residues mod p, encoded compactly as the
integer key sum(c_i * p**i).  The defining modulus of every field is chosen
deterministically (lexicographically first monic irreducible polynomial from
a seeded start), so all outputs are reproducible across runs and platforms.

Prime fields use plain modular arithmetic.  Extension fields with
q <= 2**16 build log/antilog tables over the keys in the constructor, in
O(q) steps, against an internal primitive element g (the least key >= p of
multiplicative order q - 1): a product is exp[log a + log b], and for odd p
a sum is exp[log a + zech[log b - log a]] with the Zech logarithm
zech[d] = log(1 + g**d); in characteristic 2 a sum is the XOR of the keys.
The limit is the width of the 16-bit table entries.  Larger extension
fields work on coordinates.  For p = 2 a key is the GF(2)[t] bit polynomial,
and a product is a carry-free multiply reduced by the modulus bits.  For odd
p a sum adds coordinates digit-wise, and a product or an inverse is taken by
funcfield.poly.Poly over GF(p) modulo the modulus; the table build uses the
same path before its tables exist.  The embedding between two fields is
stored as one key, the image of the source generator, found on first use
per field pair.  A field never changes after its constructor returns, so
it is safe to share across threads.
"""

from __future__ import annotations

import functools
from array import array

from .intbounds import is_prime, prime_divisors

_TABLE_LIMIT = 1 << 16  # log/antilog/Zech entries are 16-bit ("H") values
_NO_LOG = 0xFFFF        # Zech entry where 1 + g**d = 0, which has no log
_SEARCH_CAP = 2_000_000


class FieldHandle:
    """A finite field GF(p**s) with a fixed defining modulus.

    Arithmetic is exposed on integer element keys (the *_k methods); the
    FieldElement wrapper provides operator syntax on top of them.
    """

    __slots__ = ("p", "s", "modulus", "q", "_exp", "_log", "_zech", "_mod_int",
                 "_mod_poly")

    def __init__(self, p: int, s: int, modulus: tuple[int, ...]):
        self.p = p
        self.s = s
        self.modulus = modulus
        self.q = p ** s
        # in characteristic 2 a key IS the GF(2)[t] bit polynomial; for odd
        # p the modulus is a Poly over GF(p), which mul_k and inv_k reduce by
        self._mod_int = sum(c << i for i, c in enumerate(modulus)) if p == 2 else None
        self._mod_poly = None
        if p != 2 and s > 1:
            from .poly import Poly
            self._mod_poly = Poly(make_field(p, 1, 0), modulus)
        # the table build multiplies through the coordinate path, which
        # mul_k takes while these are None
        self._exp = self._log = self._zech = None
        if s > 1 and self.q <= _TABLE_LIMIT:
            self._exp, self._log, self._zech = self._log_tables()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldHandle):
            return NotImplemented
        return (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus)

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.s})" if self.s > 1 else f"GF({self.p})"

    # -- key <-> coordinate conversions ------------------------------------

    def coords_of(self, key: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.s):
            key, r = divmod(key, p)
            out.append(r)
        return tuple(out)

    def key_of(self, coords) -> int:
        key = 0
        for c in reversed(tuple(coords)):
            key = key * self.p + c % self.p
        return key

    # -- element constructors ----------------------------------------------

    def element(self, key: int) -> "FieldElement":
        if not 0 <= key < self.q:
            raise ValueError(f"key {key} out of range for {self!r}")
        return FieldElement(self, key)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def gen(self) -> "FieldElement":
        """Image of the defining indeterminate (a residue in a prime field)."""
        if self.s == 1:
            return FieldElement(self, (-self.modulus[0]) % self.p)
        return FieldElement(self, self.p)

    def elements(self):
        for key in range(self.q):
            yield FieldElement(self, key)

    # -- log/antilog/Zech tables -------------------------------------------

    def _primitive_key(self) -> int:
        """Least key >= p of multiplicative order q - 1 (keys below p lie in
        the prime field), tested by coordinate arithmetic."""
        n = self.q - 1
        cofactors = [n // d for d in prime_divisors(n)]
        return next(g for g in range(self.p, self.q)
                    if all(self.pow_k(g, e) != 1 for e in cofactors))

    def _log_tables(self):
        """(exp, log, zech) for a primitive element g, in O(q) steps.

        exp holds g**i for two periods, 0 <= i < 2(q - 1), so that a sum of
        two logs needs no reduction; zech is None for p = 2 and likewise
        holds two periods, so that differences of logs shifted by
        (q - 1) / 2 index it directly.
        """
        p, s, q = self.p, self.s, self.q
        g = self._primitive_key()
        # multiplication by g is GF(p)-linear: the image of a key is the
        # digit-wise sum of the images of its low h digits and of its high
        # s - h digits, each found once by coordinate arithmetic
        h = (s + 1) // 2
        P = p ** h
        exp = array("H", [0]) * (2 * (q - 1))
        log = array("H", [0]) * q
        x = 1
        if p == 2:
            low = [self.mul_k(k, g) for k in range(P)]
            high = [self.mul_k(k * P, g) for k in range(q // P)]
            for i in range(q - 1):
                exp[i] = x
                log[x] = i
                x = low[x & (P - 1)] ^ high[x >> h]
        else:
            # images keep their digits re-read in base b = 2p - 1, where the
            # sum of two never carries; red maps h such digits back to a key
            b = 2 * p - 1
            B = b ** h

            def spread(key):
                return sum(c * b ** i for i, c in enumerate(self.coords_of(key)))

            low = [spread(self.mul_k(k, g)) for k in range(P)]
            high = [spread(self.mul_k(k * P, g)) for k in range(q // P)]
            red = [0]
            for t in range(1, B):
                red.append(t % b % p + p * red[t // b])
            for i in range(q - 1):
                exp[i] = x
                log[x] = i
                hi, lo = divmod(x, P)
                hi, lo = divmod(low[lo] + high[hi], B)
                x = red[hi] * P + red[lo]
        if x != 1:
            raise ArithmeticError(f"{g} is not primitive in {self!r}")
        exp[q - 1:] = exp[:q - 1]
        if p == 2:
            return exp, log, None
        zech = array("H", [0]) * (2 * (q - 1))
        for d in range(q - 1):
            # 1 + g**d: digit 0 of the key of g**d goes up by one mod p
            y = exp[d] + 1
            if y % p == 0:
                y -= p
            zech[d] = log[y] if y else _NO_LOG
        zech[q - 1:] = zech[:q - 1]
        return exp, log, zech

    # -- key arithmetic ------------------------------------------------------

    def add_k(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.s == 1:
            return (a + b) % self.p
        zech = self._zech
        if zech is not None:
            if not a:
                return b
            if not b:
                return a
            log = self._log
            la = log[a]
            z = zech[log[b] - la]
            return self._exp[la + z] if z != _NO_LOG else 0
        # key_of reduces each digit mod p
        return self.key_of(x + y for x, y in zip(self.coords_of(a), self.coords_of(b)))

    def neg_k(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        if self.s == 1:
            return (-a) % p
        if self._exp is not None:
            # -1 = g**((q - 1) / 2)
            return self._exp[self._log[a] + (self.q >> 1)] if a else 0
        return self.key_of(tuple((-c) % p for c in self.coords_of(a)))

    def sub_k(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.s == 1:
            return (a - b) % self.p
        zech = self._zech
        if zech is not None:
            if not b:
                return a
            log = self._log
            lb = log[b] + (self.q >> 1)  # log of -b
            if not a:
                return self._exp[lb]
            la = log[a]
            z = zech[lb - la]
            return self._exp[la + z] if z != _NO_LOG else 0
        return self.add_k(a, self.neg_k(b))

    def _coord_poly(self, a: int):
        # the coordinates of a as a Poly over GF(p), for odd p and s > 1
        M = self._mod_poly
        return type(M)(M.field, self.coords_of(a))

    def _mul_k_bits(self, a: int, b: int) -> int:
        # carry-free multiply then reduce by the modulus bit polynomial
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            a <<= 1
            b >>= 1
        mod = self._mod_int
        s = self.s
        top = acc.bit_length() - 1
        while top >= s:
            acc ^= mod << (top - s)
            top = acc.bit_length() - 1
        return acc

    def mul_k(self, a: int, b: int) -> int:
        if self.s == 1:
            return a * b % self.p
        exp = self._exp
        if exp is not None:
            if a and b:
                log = self._log
                return exp[log[a] + log[b]]
            return 0
        if self.p == 2:
            return self._mul_k_bits(a, b)
        M = self._mod_poly
        return self.key_of((self._coord_poly(a) * self._coord_poly(b) % M).keys)

    def inv_k(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        if self.s == 1:
            return pow(a, p - 2, p)
        if self._exp is not None:
            # index -log a reads g**(2(q - 1) - log a), the inverse of a
            return self._exp[-self._log[a]]
        if p == 2:
            return self.pow_k(a, self.q - 2)
        return self.key_of(self._coord_poly(a).inverse_mod(self._mod_poly).keys)

    def pow_k(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv_k(a)
            e = -e
        result = 1
        while e:
            if e & 1:
                result = self.mul_k(result, a)
            a = self.mul_k(a, a)
            e >>= 1
        return result

    def render_key(self, key: int) -> str:
        if self.s == 1:
            return str(key)
        return "[" + ",".join(str(c) for c in reversed(self.coords_of(key))) + "]"


class FieldElement:
    """An element of a FieldHandle, with overloaded field arithmetic."""

    __slots__ = ("owner", "key")

    def __init__(self, owner: FieldHandle, key: int):
        self.owner = owner
        self.key = key

    @property
    def coords(self) -> tuple[int, ...]:
        return self.owner.coords_of(self.key)

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        if other.owner != self.owner:
            raise ValueError("elements belong to different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.owner, self.owner.add_k(self.key, other.key))

    def __sub__(self, other):
        other = self._check(other)
        return FieldElement(self.owner, self.owner.sub_k(self.key, other.key))

    def __neg__(self):
        return FieldElement(self.owner, self.owner.neg_k(self.key))

    def __mul__(self, other):
        other = self._check(other)
        return FieldElement(self.owner, self.owner.mul_k(self.key, other.key))

    def __truediv__(self, other):
        other = self._check(other)
        return FieldElement(self.owner, self.owner.mul_k(self.key, self.owner.inv_k(other.key)))

    def __pow__(self, e: int):
        return FieldElement(self.owner, self.owner.pow_k(self.key, e))

    def inv(self):
        return FieldElement(self.owner, self.owner.inv_k(self.key))

    def is_zero(self) -> bool:
        return self.key == 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.owner == other.owner and self.key == other.key

    def __hash__(self):
        return hash((self.owner, self.key))

    def __repr__(self):
        return self.owner.render_key(self.key)


@functools.lru_cache(maxsize=None)
def make_field(p: int, s: int, seed: int = 0) -> FieldHandle:
    """Construct GF(p**s) with a deterministically chosen modulus.

    The modulus is the first monic irreducible polynomial of degree s over
    GF(p), scanning candidates in lexicographic (base-p numeral) order from
    the seeded start and wrapping around.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if s < 1:
        raise ValueError("extension degree must be >= 1")
    if s == 1:
        # every monic linear polynomial is irreducible; this also ends the
        # recursion through the prime field the scan below tests over
        return FieldHandle(p, 1, (seed % p, 1))

    from .factor import is_irreducible
    from .poly import Poly

    prime = make_field(p, 1, 0)
    space = p ** s
    start = seed % space
    for step in range(min(space, _SEARCH_CAP)):
        m = (start + step) % space
        coords = []
        for _ in range(s):
            m, r = divmod(m, p)
            coords.append(r)
        candidate = tuple(coords) + (1,)
        if is_irreducible(Poly(prime, candidate)):
            return FieldHandle(p, s, candidate)
    raise RuntimeError("no irreducible modulus found within search budget")


# ---------------------------------------------------------------------------
# Embeddings between compatible fields.  The fixed embedding src -> tgt is
# GF(p)-linear, so it is stored as one key of tgt: beta, the image of the
# source generator.  Only the functions below read it.


@functools.lru_cache(maxsize=None)
def embed_map(src: FieldHandle, tgt: FieldHandle) -> int:
    """Key of beta, the image of src's generator under the fixed embedding.

    beta is the root of the source modulus in the target with the least
    coordinate vector (lexicographic on the rendered big-endian digit
    vector, which is plain numeric order on keys); for src == tgt it is the
    generator itself.  A source element with coordinates c_i maps to
    sum c_i * beta**i.  Deterministic per ordered field pair.
    """
    if src.p != tgt.p:
        raise ValueError("incompatible characteristics")
    if tgt.s % src.s != 0:
        raise ValueError(f"no embedding GF({src.p}^{src.s}) -> GF({tgt.p}^{tgt.s})")
    if src == tgt or src.s == 1:
        # src == tgt: the identity.  A prime-field generator is a residue mod
        # p, with the same key in every representation; roots_in below lifts
        # a prime-field polynomial, so this case also ends the recursion
        return src.gen().key

    from .factor import roots_in
    from .poly import Poly

    roots = roots_in(Poly(make_field(src.p, 1, 0), src.modulus), tgt)
    if not roots:
        raise RuntimeError("source modulus has no root in target field")
    return roots[0].key  # least key, roots_in sorts canonically


def embed_keys(src: FieldHandle, tgt: FieldHandle, keys) -> tuple[int, ...]:
    """Images in tgt of src element keys under the fixed embedding."""
    beta = embed_map(src, tgt)
    if src.s == 1:
        return tuple(keys)
    add_k, mul_k = tgt.add_k, tgt.mul_k
    out = []
    for key in keys:
        acc = 0
        for c in reversed(src.coords_of(key)):
            # residues mod p are exactly the prime-subfield keys of tgt
            acc = add_k(mul_k(acc, beta), c)
        out.append(acc)
    return tuple(out)


def preimage_keys(src: FieldHandle, tgt: FieldHandle, keys) -> tuple[int, ...]:
    """Keys of src that the fixed embedding sends to the given keys of tgt.

    The coordinates c of a preimage of y solve sum c_i * beta**i = y, a
    linear system over GF(p) in the coordinates of tgt; all keys are solved
    together by Gauss-Jordan elimination.  Raises ValueError for a key
    outside the image of src.
    """
    keys = tuple(keys)
    beta = embed_map(src, tgt)
    p, s = src.p, src.s
    powers = [1]
    for _ in range(s - 1):
        powers.append(tgt.mul_k(powers[-1], beta))
    columns = [tgt.coords_of(k) for k in powers + list(keys)]
    rows = [list(row) for row in zip(*columns)]
    for col in range(s):
        # beta generates src over GF(p), so the s power columns are independent
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        head = rows[col] = [v * inv % p for v in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                f = row[col]
                rows[r] = [(v - f * h) % p for v, h in zip(row, head)]
    out = []
    for j, key in enumerate(keys, start=s):
        if any(row[j] for row in rows[s:]):
            raise ValueError(f"key {key} of {tgt!r} is not in the image of {src!r}")
        out.append(src.key_of(row[j] for row in rows[:s]))
    return tuple(out)


def embed(e: FieldElement, target: FieldHandle) -> FieldElement:
    """Image of e under the fixed embedding of its field into target."""
    return FieldElement(target, embed_keys(e.owner, target, (e.key,))[0])
