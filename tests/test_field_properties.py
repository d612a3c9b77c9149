"""Property tests of the field axioms on fields with q > 200, which the
exhaustive small-field tests do not reach: log/Zech tables of both
characteristics and coordinate arithmetic above the table limit."""

import pytest

from funcfield.field import make_field

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LARGE_FIELDS = [(3, 5), (2, 8), (5, 4), (3, 7), (2, 12), (13, 4), (257, 2),
                (2, 17), (3, 11)]


@st.composite
def _field_and_keys(draw, count):
    F = make_field(*draw(st.sampled_from(LARGE_FIELDS)), 0)
    keys = st.one_of(st.sampled_from((0, 1, F.q - 1)),
                     st.integers(min_value=0, max_value=F.q - 1))
    return (F,) + tuple(draw(keys) for _ in range(count))


@hypothesis.settings(max_examples=300)
@hypothesis.given(_field_and_keys(3))
def test_large_field_ring_axioms(drawn):
    F, a, b, c = drawn
    add, mul = F.add_k, F.mul_k
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
    assert add(a, F.neg_k(a)) == 0
    assert F.sub_k(a, b) == add(a, F.neg_k(b))
    assert add(F.sub_k(a, b), b) == a


@hypothesis.settings(max_examples=300)
@hypothesis.given(_field_and_keys(2))
def test_large_field_inverse_and_frobenius(drawn):
    F, a, b = drawn
    if a:
        assert F.mul_k(a, F.inv_k(a)) == 1
        assert F.pow_k(a, F.q - 1) == 1
    p = F.p
    assert F.pow_k(F.add_k(a, b), p) == F.add_k(F.pow_k(a, p), F.pow_k(b, p))
    assert F.pow_k(F.mul_k(a, b), p) == F.mul_k(F.pow_k(a, p), F.pow_k(b, p))
