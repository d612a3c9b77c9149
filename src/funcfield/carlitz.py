"""The Carlitz module: twisted polynomial action, torsion, Euler functions.

A modulus M in GF(q)[x] acts on the algebraic closure through the additive
endomorphism z -> z**q + x*z; the image M(phi) of M under this action is a
q-linearized operator sum a_i * z**(q**i) with coefficients a_i in GF(q)[x].
Operators are stored sparsely by q-power exponent, since an operator of
z-degree q**d has only d+1 terms.  Concrete torsion counting goes through
specialization x := alpha at places of good reduction, which turns the
operator into an additive polynomial over a finite field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factor import factorize
from .field import FieldElement, FieldHandle
from .poly import Poly


class LinearizedOperator:
    """A q-linearized operator sum a_i * z**(q**i) with a_i in GF(q)[x]."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base: FieldHandle, coeffs=()):
        n = len(coeffs)
        while n and coeffs[n - 1].is_zero():
            n -= 1
        for c in coeffs[:n]:
            if c.field != base:
                raise ValueError("operator coefficient over the wrong field")
        self.base = base
        self.coeffs = tuple(coeffs[:n])

    @classmethod
    def identity(cls, base):
        return cls(base, (Poly.one(base),))

    @classmethod
    def scalar(cls, base, poly: Poly):
        return cls(base, (poly,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def rank(self):
        """Top q-power index, or None for the zero operator."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def z_degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero operator has no degree")
        return self.base.q ** (len(self.coeffs) - 1)

    def coefficient(self, i: int) -> Poly:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Poly.zero(self.base)

    def __add__(self, other: "LinearizedOperator") -> "LinearizedOperator":
        if not isinstance(other, LinearizedOperator):
            raise TypeError("expected a LinearizedOperator")
        if other.base != self.base:
            raise ValueError("operators over different base fields")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return LinearizedOperator(self.base, out)

    def __eq__(self, other):
        if not isinstance(other, LinearizedOperator):
            return NotImplemented
        return self.base == other.base and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.base, self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                parts.append(f"({c}) * z^(q^{i})")
        return " + ".join(parts)

    __repr__ = __str__


def _twist(poly: Poly, qpow: int) -> Poly:
    # poly(x)**qpow for qpow a power of q: coefficients are Frobenius-fixed
    # in GF(q), so only the exponents scale.
    if qpow == 1 or poly.is_zero():
        return poly
    keys = [0] * ((len(poly.keys) - 1) * qpow + 1)
    for e, k in enumerate(poly.keys):
        if k:
            keys[e * qpow] = k
    return Poly(poly.field, keys)


def compose(A: LinearizedOperator, B: LinearizedOperator) -> LinearizedOperator:
    """Operator composition (A o B)(z) = A(B(z)).

    The coefficient of z**(q**k) is sum over i+j=k of a_i * b_j**(q**i).
    """
    if A.base != B.base:
        raise ValueError("operators over different base fields")
    base = A.base
    if A.is_zero() or B.is_zero():
        return LinearizedOperator(base, ())
    q = base.q
    out = [Poly.zero(base) for _ in range(len(A.coeffs) + len(B.coeffs) - 1)]
    for i, a in enumerate(A.coeffs):
        if a.is_zero():
            continue
        qi = q ** i
        for j, b in enumerate(B.coeffs):
            if b.is_zero():
                continue
            out[i + j] = out[i + j] + a * _twist(b, qi)
    return LinearizedOperator(base, out)


def carlitz_action_of(M: Poly) -> LinearizedOperator:
    """The operator M(phi) for the action z -> z**q + x*z, by twisted Horner."""
    if M.is_zero():
        raise ValueError("zero modulus has no Carlitz action")
    base = M.field
    phi = LinearizedOperator(base, (Poly.x(base), Poly.one(base)))
    acc = LinearizedOperator.scalar(base, Poly.constant(base, M.keys[-1]))
    for i in range(len(M.keys) - 2, -1, -1):
        acc = compose(acc, phi)
        k = M.keys[i]
        if k:
            acc = acc + LinearizedOperator.scalar(base, Poly.constant(base, k))
    return acc


class TorsionPolynomial:
    """Flattened view of M(phi) as a polynomial in z over GF(q)[x].

    Storage stays sparse by q-power exponent; the dense view is only
    materialized through the accessors.
    """

    __slots__ = ("operator",)

    def __init__(self, operator: LinearizedOperator):
        if operator.is_zero():
            raise ValueError("zero operator is not a torsion polynomial")
        self.operator = operator

    @property
    def base(self) -> FieldHandle:
        return self.operator.base

    def z_degree(self) -> int:
        return self.operator.z_degree()

    def coefficient(self, k: int) -> Poly:
        """Coefficient of z**k; zero unless k is a power of q."""
        q = self.base.q
        i = 0
        qi = 1
        while qi < k:
            qi *= q
            i += 1
        if qi == k:
            return self.operator.coefficient(i)
        return Poly.zero(self.base)

    def terms(self):
        """Pairs (z-exponent, coefficient) of the nonzero terms."""
        q = self.base.q
        for i, c in enumerate(self.operator.coeffs):
            if not c.is_zero():
                yield q ** i, c

    def z_derivative(self) -> Poly:
        """Formal d/dz: every exponent q**i with i >= 1 vanishes in char p."""
        return self.operator.coefficient(0)


def torsion_polynomial(M: Poly) -> TorsionPolynomial:
    """The torsion polynomial rho_M(z), of z-degree q**deg(M)."""
    return TorsionPolynomial(carlitz_action_of(M))


def specialize(op: LinearizedOperator, alpha: FieldElement) -> Poly:
    """Substitute x := alpha in every coefficient of the operator.

    alpha must live in an extension of the operator's base field; the result
    is an additive polynomial in z over that extension.
    """
    base = op.base
    K = alpha.owner
    if K.p != base.p or K.s % base.s != 0:
        raise ValueError("alpha does not live in an extension of the base field")
    if op.is_zero():
        return Poly.zero(K)
    q = base.q
    keys = [0] * (q ** (len(op.coeffs) - 1) + 1)
    for i, c in enumerate(op.coeffs):
        keys[q ** i] = c.lift(K).eval_k(alpha.key)
    return Poly(K, keys)


def euler_phi_modulus(M: Poly, factored=None) -> int:
    """Order of the unit group of GF(q)[x]/(M), as an exact integer."""
    if M.is_zero():
        raise ValueError("zero modulus")
    if M.degree == 0:
        raise ValueError("constant modulus has a trivial residue ring")
    q = M.field.q
    if factored is None:
        factored = factorize(M)
    total = 1
    for P, n in factored:
        d = P.degree
        total *= q ** ((n - 1) * d) * (q ** d - 1)
    return total


@dataclass(frozen=True)
class DivisorShape:
    """A positive divisor described by (place degree, multiplicity) pairs."""

    places: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for deg, mult in self.places:
            if deg < 1 or mult < 1:
                raise ValueError("place degrees and multiplicities must be >= 1")

    @classmethod
    def of(cls, *places: tuple[int, int]) -> "DivisorShape":
        return cls(tuple(places))

    @classmethod
    def empty(cls) -> "DivisorShape":
        return cls(())

    def is_empty(self) -> bool:
        return not self.places

    def degree(self) -> int:
        return sum(deg * mult for deg, mult in self.places)


def euler_phi_divisor(D: DivisorShape, q: int) -> int:
    """Euler function of a divisor: product of (q**deg - 1) * q**((c-1)*deg)."""
    total = 1
    for deg, mult in D.places:
        total *= (q ** deg - 1) * q ** ((mult - 1) * deg)
    return total
