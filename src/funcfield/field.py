"""Exact arithmetic in prime-power finite fields GF(p**s).

Elements are held in polynomial-basis coordinates over GF(p): an element is
a vector (c_0, ..., c_{s-1}) of residues mod p, encoded compactly as the
integer key sum(c_i * p**i).  The defining modulus of every field is chosen
deterministically (lexicographically first monic irreducible polynomial from
a seeded start), so all outputs are reproducible across runs and platforms.

Small fields (q <= 200) build full addition, multiplication and inverse
tables over the integer keys on first use; larger fields fall back to
coordinate arithmetic.  The embedding between two fields is stored as one
key, the image of the source generator, found on first use per field pair.
Fields are safe to share across threads: concurrent first uses may each
build the tables, and the inverse table, which marks a complete set, is
published last.
"""

from __future__ import annotations

import functools

from .intbounds import is_prime

_TABLE_LIMIT = 200
_SEARCH_CAP = 2_000_000


# ---------------------------------------------------------------------------
# Polynomial arithmetic over GF(p) on little-endian int tuples.  Only used for
# coordinate arithmetic; public polynomial arithmetic over arbitrary fields,
# and the irreducibility test that picks moduli, live in funcfield.poly and
# funcfield.factor.

def _pp_trim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _pp_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    return _pp_trim(out)


def _pp_sub(a, b, p):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _pp_trim(out)


def _pp_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                if v:
                    out[i + j] = (out[i + j] + u * v) % p
    return _pp_trim(out)


def _pp_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if len(a) < len(b):
        return (), _pp_trim(a)
    rem = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p) if p > 2 else b[-1]
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        coef = rem[i]
        if coef:
            factor = (coef * inv_lead) % p
            quo[i - db] = factor
            for j, v in enumerate(b):
                rem[i - db + j] = (rem[i - db + j] - factor * v) % p
    return _pp_trim(quo), _pp_trim(rem)


def _pp_mod(a, b, p):
    return _pp_divmod(a, b, p)[1]


def _pp_ext_gcd(a, b, p):
    # returns (g, u, v) with u*a + v*b = g, g monic
    r0, r1 = _pp_trim(a), _pp_trim(b)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = _pp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pp_sub(s0, _pp_mul(q, s1, p), p)
        t0, t1 = t1, _pp_sub(t0, _pp_mul(q, t1, p), p)
    if r0:
        inv_lead = pow(r0[-1], p - 2, p) if p > 2 else r0[-1]
        scale = lambda c: tuple((v * inv_lead) % p for v in c)
        return scale(r0), scale(s0), scale(t0)
    return r0, s0, t0


# ---------------------------------------------------------------------------


class FieldHandle:
    """A finite field GF(p**s) with a fixed defining modulus.

    Arithmetic is exposed on integer element keys (the *_k methods); the
    FieldElement wrapper provides operator syntax on top of them.
    """

    __slots__ = ("p", "s", "modulus", "q", "_add_table", "_mul_table",
                 "_inv_table", "_mod_int")

    def __init__(self, p: int, s: int, modulus: tuple[int, ...]):
        self.p = p
        self.s = s
        self.modulus = modulus
        self.q = p ** s
        self._add_table = None
        self._mul_table = None
        self._inv_table = None
        # in characteristic 2 a key IS the GF(2)[t] bit polynomial
        self._mod_int = sum(c << i for i, c in enumerate(modulus)) if p == 2 else None

    def __eq__(self, other):
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

    # -- key arithmetic ------------------------------------------------------

    def _build_tables(self):
        q, p = self.q, self.p
        if self.s == 1:
            add = [(a + b) % p for a in range(q) for b in range(q)]
            mul = [(a * b) % p for a in range(q) for b in range(q)]
        else:
            coords = [self.coords_of(k) for k in range(q)]
            add = [0] * (q * q)
            mul = [0] * (q * q)
            mod = self.modulus
            for a in range(q):
                ca = coords[a]
                row = a * q
                for b in range(a, q):
                    s_key = self.key_of(_pp_add(_pp_trim(ca), _pp_trim(coords[b]), p)
                                        + (0,) * self.s)
                    add[row + b] = s_key
                    add[b * q + a] = s_key
                    m_key = self.key_of(
                        _pp_mod(_pp_mul(_pp_trim(ca), _pp_trim(coords[b]), p), mod, p)
                        + (0,) * self.s)
                    mul[row + b] = m_key
                    mul[b * q + a] = m_key
        inv = [0] * q
        for a in range(1, q):
            row = a * q
            inv[a] = mul.index(1, row, row + q) - row
        # the inverse table goes last: _ensure_tables tests it, so a thread
        # that sees it published also sees the other two
        self._add_table, self._mul_table = add, mul
        self._inv_table = inv

    def _ensure_tables(self):
        if self._inv_table is None and self.q <= _TABLE_LIMIT:
            self._build_tables()
        return self._inv_table is not None

    def add_k(self, a: int, b: int) -> int:
        if self._add_table is not None or self._ensure_tables():
            return self._add_table[a * self.q + b]
        p = self.p
        if p == 2:
            return a ^ b
        if self.s == 1:
            return (a + b) % p
        return self.key_of(_pp_add(_pp_trim(self.coords_of(a)),
                                   _pp_trim(self.coords_of(b)), p) + (0,) * self.s)

    def neg_k(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        if self.s == 1:
            return (-a) % p
        return self.key_of(tuple((-c) % p for c in self.coords_of(a)))

    def sub_k(self, a: int, b: int) -> int:
        return self.add_k(a, self.neg_k(b))

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
        if self._mul_table is not None or self._ensure_tables():
            return self._mul_table[a * self.q + b]
        p = self.p
        if p == 2:
            return self._mul_k_bits(a, b)
        if self.s == 1:
            return (a * b) % p
        prod = _pp_mod(_pp_mul(_pp_trim(self.coords_of(a)),
                               _pp_trim(self.coords_of(b)), p), self.modulus, p)
        return self.key_of(prod + (0,) * self.s)

    def _inv_k_generic(self, a: int) -> int:
        p = self.p
        if self.s == 1:
            return pow(a, p - 2, p)
        if p == 2:
            return self.pow_k(a, self.q - 2)
        g, u, _ = _pp_ext_gcd(_pp_trim(self.coords_of(a)), self.modulus, p)
        if g != (1,):
            raise ZeroDivisionError("element not invertible")
        return self.key_of(u + (0,) * self.s)

    def inv_k(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._inv_table is not None or self._ensure_tables():
            return self._inv_table[a]
        return self._inv_k_generic(a)

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

    def frobenius_k(self, a: int) -> int:
        return self.pow_k(a, self.p)

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
