"""The packed GF(p)-linear kernel (gfp_apply, FieldSpec.add_ints and
tower._one_plus) against the base-p digit-matrix formula it replaced,
which stays here as the oracle."""

import random
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from drintower.finite_field import (  # noqa: E402
    _GATHER_BITS,
    _PackedMap,
    gfp_apply,
    make_field,
)
from drintower.tower import _one_plus  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


def _digit_matrix_apply(mat, p, vals):
    """mat @ v over GF(p) for every v in vals: the base-p digit matrix of
    vals times mat transposed, mod p, re-encoded with the weights p^i."""
    mat = np.asarray(mat, dtype=np.int64) % p
    vals = np.asarray(vals, dtype=np.int64)
    digits = vals[:, None] // p ** np.arange(mat.shape[1], dtype=np.int64) % p
    return digits @ mat.T % p @ p ** np.arange(mat.shape[0], dtype=np.int64)


def _max_digits(p):
    """The most digits d with p^d < 2^62."""
    d = 0
    while p ** (d + 1) < 2**62:
        d += 1
    return d


@st.composite
def _maps(draw):
    """(p, mat, vals): an r x c matrix, r and c from 0, with entries
    outside 0..p-1 and some zero patterns, and c-digit encodings with the
    extremes 0 and p^c - 1."""
    p = draw(st.sampled_from([2, 3, 5, 7, 17, 4099]))
    top = min(_max_digits(p), 24)
    rows, cols = draw(st.integers(0, top)), draw(st.integers(0, top))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.integers(-p, 2 * p, (rows, cols)) \
        * (rng.random((rows, cols)) < density)
    vals = np.concatenate([[0, p**cols - 1],
                           rng.integers(0, p**cols, 300)])
    return p, mat, vals


@SETTINGS
@given(_maps())
def test_gfp_apply_matches_digit_matrix(case):
    p, mat, vals = case
    got = gfp_apply(mat, p, vals)
    assert got.dtype == np.int64
    assert np.array_equal(got, _digit_matrix_apply(mat, p, vals))


@pytest.mark.parametrize("p,m", [(3, 30), (2, 40), (5, 26), (17, 15)])
def test_gfp_apply_past_one_int64_of_fields(p, m):
    # square maps whose packed output fields span several int64 groups
    rng = np.random.default_rng(p * m)
    vals = np.concatenate([[0, p**m - 1], rng.integers(0, p**m, 2000)])
    for mat in (rng.integers(0, p, (m, m)), np.eye(m, dtype=np.int64),
                (p - 1) * np.ones((m, m), dtype=np.int64)):
        assert np.array_equal(gfp_apply(mat, p, vals),
                              _digit_matrix_apply(mat, p, vals))


@pytest.mark.parametrize("p", [2, 3, 4099])
def test_gfp_apply_without_rows_or_columns_is_zero(p):
    vals = np.array([0, 0, 0])
    for mat in ([], [[], []], np.zeros((0, 3), dtype=np.int64)):
        assert gfp_apply(mat, p, vals).tolist() == [0, 0, 0]
    assert gfp_apply([[1, 2]], p, []).tolist() == []


def test_gfp_apply_refuses_sums_too_wide_for_int64():
    # two products of up to (p - 1)^2 ~ 2^62 per output digit: a packed
    # sum would wrap, so the map is refused instead
    p = 2**31 - 1
    with pytest.raises(ValueError, match="too wide"):
        gfp_apply([[p - 1, p - 1]], p, [p**2 - 1])


@pytest.mark.parametrize("p,rows", [(2, 63), (3, 39), (17, 15)])
def test_gfp_apply_refuses_outputs_past_int64(p, rows):
    # p^rows <= 2^63 < p^(rows + 1): the largest rows-digit encoding
    # p^rows - 1 fits in int64, one more row would wrap
    ones = np.ones((rows, 1), dtype=np.int64)
    assert gfp_apply(ones, p, [p - 1]).tolist() == [p**rows - 1]
    with pytest.raises(ValueError, match="int64"):
        gfp_apply(np.ones((rows + 1, 1)), p, [1])


@pytest.mark.parametrize("p,m", [(3, 15), (5, 10), (17, 4), (4099, 2),
                                 (16777213, 1)])
def test_packed_tables_have_at_most_2_12_entries(p, m):
    rng = np.random.default_rng(m)
    packed = _PackedMap(rng.integers(0, p, (m, m)), p, terms=2)
    for images, fields in packed.groups:
        for table in list(images) + [f[2] for f in fields]:
            assert np.size(table) <= 2**_GATHER_BITS


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gfp_apply_over_gf3_15_holds_no_large_table():
    # one table over all 15 digits would hold 3^15 int64 entries (115 MB);
    # 7-digit pieces give tables of 3^7 <= 2^12 entries, and the largest
    # temporaries are their (3^7, 15) digit images
    rng = np.random.default_rng(15)
    mat = rng.integers(0, 3, (15, 15))
    vals = rng.integers(0, 3**15, 64)
    got, peak = _traced_peak(gfp_apply, mat, 3, vals)
    assert np.array_equal(got, _digit_matrix_apply(mat, 3, vals))
    assert peak < 2 * 2**_GATHER_BITS * 15 * 8
    # GF(p) near 2^24: a digit is one piece whose image is a product
    p = 16777213
    got, peak = _traced_peak(gfp_apply, [[5]], p, [p - 1, 3])
    assert got.tolist() == [(p - 1) * 5 % p, 15]
    assert peak < 2**_GATHER_BITS * 8


@pytest.mark.parametrize("p,m", [(3, 7), (3, 15), (5, 10), (7, 8), (17, 4),
                                 (4099, 2)])
def test_add_ints_matches_scalar_sum_sampled(p, m):
    spec = make_field(p, m, cap=2**25)
    rng = random.Random(f"add {p}^{m}")
    a = [rng.randrange(spec.size) for _ in range(3000)]
    b = [rng.randrange(spec.size) for _ in range(3000)]
    a[:2], b[:2] = [spec.size - 1, 0], [spec.size - 1, spec.size - 1]
    assert spec.add_ints(a, b).tolist() == \
        [(spec.from_int(x) + spec.from_int(y)).n for x, y in zip(a, b)]


@pytest.mark.parametrize("p,m", [(2, 5), (3, 5), (5, 3), (17, 2), (4099, 1)])
def test_one_plus_matches_add_ints(p, m):
    spec = make_field(p, m)
    z = np.arange(spec.size, dtype=np.int64)
    assert np.array_equal(_one_plus(spec, z),
                          spec.add_ints(z, np.ones_like(z)))
