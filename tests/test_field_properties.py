"""Hypothesis property tests of the field laws on integer encodings.

The laws are checked on the table path (every field here within the
table budget) and on the schoolbook path (GF(2^25), past it), and the
table path is checked against the schoolbook reference `_mul_generic` /
`_pow_generic` on the digits of the same encodings.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from drintower.finite_field import make_field  # noqa: E402

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
