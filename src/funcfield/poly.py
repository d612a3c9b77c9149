"""Dense univariate polynomials over a finite field.

Coefficients are stored little-endian as a tuple of element keys with no
trailing zeros, so every polynomial has exactly one representation.  The
degree of the zero polynomial is a distinguished sentinel (None), never an
integer; call sites guard it explicitly.

The canonical text form lists coefficients ascending: ``c0 + c1*x + c2*x^2``.
"""

from __future__ import annotations

from .field import FieldElement, FieldHandle, embed_keys


class Poly:
    """Immutable univariate polynomial over a FieldHandle."""

    __slots__ = ("field", "keys")

    def __init__(self, field: FieldHandle, keys=()):
        n = len(keys)
        while n and keys[n - 1] == 0:
            n -= 1
        self.field = field
        self.keys = tuple(keys[:n])

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field, key):
        return cls(field, (key,))

    @classmethod
    def monomial(cls, field, key, exponent):
        if key == 0:
            return cls(field, ())
        return cls(field, (0,) * exponent + (key,))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.keys) - 1 if self.keys else None

    def is_zero(self) -> bool:
        return not self.keys

    def is_constant(self) -> bool:
        return len(self.keys) <= 1

    def is_monic(self) -> bool:
        return bool(self.keys) and self.keys[-1] == 1

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, k) for k in self.keys)

    def leading_key(self) -> int:
        if not self.keys:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.keys[-1]

    def sort_key(self):
        """Canonical ordering: by degree, then big-endian coefficient keys."""
        return (len(self.keys), tuple(reversed(self.keys)))

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"cannot combine Poly with {type(other).__name__}")
        if other.field != self.field:
            raise ValueError("polynomials over different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        F = self.field
        a, b = self.keys, other.keys
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, k in enumerate(b):
            out[i] = F.add_k(out[i], k)
        return Poly(F, out)

    def __neg__(self):
        F = self.field
        return Poly(F, tuple(F.neg_k(k) for k in self.keys))

    def __sub__(self, other):
        other = self._check(other)
        F = self.field
        out = list(self.keys) + [0] * max(0, len(other.keys) - len(self.keys))
        for i, k in enumerate(other.keys):
            out[i] = F.sub_k(out[i], k)
        return Poly(F, out)

    def __mul__(self, other):
        other = self._check(other)
        F = self.field
        a, b = self.keys, other.keys
        if not a or not b:
            return Poly(F, ())
        out = [0] * (len(a) + len(b) - 1)
        add_k, mul_k = F.add_k, F.mul_k
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    if v:
                        out[i + j] = add_k(out[i + j], mul_k(u, v))
        return Poly(F, out)

    def scale_k(self, c: int) -> "Poly":
        F = self.field
        if c == 0:
            return Poly(F, ())
        if c == 1:
            return self
        return Poly(F, tuple(F.mul_k(c, k) for k in self.keys))

    def monic(self) -> "Poly":
        if not self.keys:
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.keys[-1]
        if lead == 1:
            return self
        return self.scale_k(self.field.inv_k(lead))

    def __divmod__(self, other):
        other = self._check(other)
        if not other.keys:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        if len(self.keys) < len(other.keys):
            return Poly(F, ()), self
        rem = list(self.keys)
        db = len(other.keys) - 1
        inv_lead = F.inv_k(other.keys[-1])
        quo = [0] * (len(rem) - db)
        sub_k, mul_k = F.sub_k, F.mul_k
        for i in range(len(rem) - 1, db - 1, -1):
            coef = rem[i]
            if coef:
                factor = mul_k(coef, inv_lead)
                quo[i - db] = factor
                for j, v in enumerate(other.keys):
                    if v:
                        rem[i - db + j] = sub_k(rem[i - db + j], mul_k(factor, v))
        return Poly(F, quo), Poly(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.field) % mod
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def gcd(self, other: "Poly") -> "Poly":
        other = self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Poly":
        F = self.field
        p = F.p
        out = []
        for i in range(1, len(self.keys)):
            n = i % p
            k = self.keys[i]
            acc = 0
            for _ in range(n):
                acc = F.add_k(acc, k)
            out.append(acc)
        return Poly(F, out)

    # -- evaluation and mapping -------------------------------------------------

    def eval_k(self, key: int) -> int:
        """Horner evaluation at an element key of the coefficient field."""
        F = self.field
        acc = 0
        for k in reversed(self.keys):
            acc = F.add_k(F.mul_k(acc, key), k)
        return acc

    def __call__(self, point: FieldElement) -> FieldElement:
        if point.owner == self.field:
            return FieldElement(self.field, self.eval_k(point.key))
        return self.lift(point.owner)(point)

    def lift(self, target: FieldHandle) -> "Poly":
        """The same polynomial with coefficients embedded into target."""
        if target == self.field:
            return self
        return Poly(target, embed_keys(self.field, target, self.keys))

    # -- comparisons and rendering ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.keys == other.keys

    def __hash__(self):
        return hash((self.field, self.keys))

    def __repr__(self):
        return f"Poly({self.field!r}, {self})"

    def __str__(self):
        if not self.keys:
            return "0"
        F = self.field
        terms = []
        for i, k in enumerate(self.keys):
            if k == 0:
                continue
            c = F.render_key(k)
            if i == 0:
                terms.append(c)
            elif i == 1:
                terms.append("x" if k == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if k == 1 else f"{c}*x^{i}")
        return " + ".join(terms)


def parse_poly(text: str, field: FieldHandle) -> Poly:
    """Parse the canonical ascending text form into a Poly.

    Accepts terms like ``3``, ``x``, ``3*x``, ``x^2``, ``3*x^2`` joined by
    ``+`` or ``-``.  Integer coefficients are interpreted in the prime
    subfield (reduced mod p).
    """
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise ValueError("empty polynomial text")
    cleaned = cleaned.replace("-", "+-")
    if cleaned.startswith("+"):
        cleaned = cleaned[1:]
    coeffs: dict[int, int] = {}
    p = field.p
    for term in cleaned.split("+"):
        if not term:
            raise ValueError(f"malformed polynomial text: {text!r}")
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:]
        if "x" in term:
            head, _, tail = term.partition("x")
            coef = int(head.rstrip("*")) if head not in ("", "*") else 1
            if tail.startswith("^"):
                exp = int(tail[1:])
            elif tail == "":
                exp = 1
            else:
                raise ValueError(f"malformed term in polynomial text: {term!r}")
        else:
            coef = int(term)
            exp = 0
        if exp < 0:
            raise ValueError("negative exponent in polynomial text")
        coeffs[exp] = (coeffs.get(exp, 0) + sign * coef) % p
    size = max(coeffs) + 1 if coeffs else 0
    keys = [0] * size
    for exp, c in coeffs.items():
        keys[exp] = c
    return Poly(field, keys)
