"""Hypothesis property tests of the field laws on integer encodings,
and of the twisted-ring laws of q-linearized polynomials over them.

The laws are checked on the table path (every field here within the
table budget) and on the schoolbook path (GF(2^25), past it), and the
table path is checked against the schoolbook reference `_mul_generic` /
`_pow_generic` on the digits of the same encodings.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from drintower.finite_field import make_field  # noqa: E402
from drintower.linearized import LinearizedPoly  # noqa: E402

TABLE_FIELDS = [(2, 1), (2, 8), (3, 5), (5, 3), (7, 2), (17, 4), (2, 16)]
FIELDS = TABLE_FIELDS + [(2, 25)]
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


def _elements(fields, k):
    """(spec, k encodings of spec) for a spec drawn from fields."""
    def draw(pm):
        spec = make_field(*pm, cap=2**25)
        return st.tuples(st.just(spec), st.lists(
            st.integers(0, spec.size - 1), min_size=k, max_size=k))
    return st.sampled_from(fields).flatmap(draw)


@SETTINGS
@given(_elements(FIELDS, 3), st.integers(-40, 40))
def test_field_laws(case, n):
    spec, (a, b, c) = case
    a, b, c = (spec.from_int(v) for v in (a, b, c))
    zero, one = spec.zero(), spec.one()
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == zero and a + (-a) == zero and (a - b) + b == a
    assert a * one == a and a * zero == zero
    assert (a + b) ** spec.p == a ** spec.p + b ** spec.p
    assert a.frobenius(spec.p, spec.m) == a
    if a and b:
        assert a * a.inverse() == one and (a * b) / b == a
        assert (a * b) ** n == a ** n * b ** n
        assert a ** n * a ** -n == one


@SETTINGS
@given(_elements(TABLE_FIELDS, 2), st.integers(0, 3 * 2**16))
def test_table_path_matches_schoolbook_on_encodings(case, n):
    spec, (a, b) = case
    spec.tables()
    da, db = (spec.from_int(v).coeffs for v in (a, b))
    assert spec.from_int(spec._mul(a, b)).coeffs == \
        spec._mul_generic(da, db)
    assert (spec.from_int(a) ** n).coeffs == spec._pow_generic(da, n)
    if a:
        inv = spec.from_int(spec._inv(a)).coeffs
        assert spec._mul_generic(da, inv) == spec.one().coeffs


def _twisted(fields, k):
    """(spec, q, k coefficient lists of at most 3 encodings, one more
    encoding) for a spec drawn from fields and q = p^r with r | m."""
    def draw(pm):
        spec = make_field(*pm, cap=2**25)
        p, m = pm
        qs = [p**r for r in range(1, m + 1) if m % r == 0]
        element = st.integers(0, spec.size - 1)
        return st.tuples(st.just(spec), st.sampled_from(qs), st.lists(
            st.lists(element, max_size=3), min_size=k, max_size=k), element)
    return st.sampled_from(fields).flatmap(draw)


@SETTINGS
@given(_twisted(FIELDS, 3), st.integers(0, 4))
def test_twisted_ring_laws(case, k):
    spec, q, polys, x = case
    u, v, w = (LinearizedPoly(q, [spec.from_int(c) for c in cs], spec)
               for cs in polys)
    x = spec.from_int(x)
    one = LinearizedPoly.identity(q, spec)
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert (u + v) * w == u * w + v * w
    assert one * u == u == u * one
    assert (u * v)(x) == u(v(x))
    power = one
    for _ in range(k):
        power = power * u
    assert u ** k == power
