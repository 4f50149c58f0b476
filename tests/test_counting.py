import json
from fractions import Fraction

import pytest

from drintower.counting import (
    CountReport,
    ExtensionCount,
    FieldContext,
    count_points,
    hermitian_affine_count,
    hermitian_check,
    zeta_consistency,
)
from drintower.finite_field import make_field, prime_power
from drintower.tower import enumerate_xprime, xprime_count
from test_tower import DRAWN_FIELDS, _golden_count_configs


def hermitian_affine_count_bruteforce(q: int, m: int = 1) -> int:
    """Independent double-loop oracle for hermitian_affine_count."""
    L = FieldContext().extension_of_k1(q, m)
    total = 0
    for x in L.elements():
        rhs = x ** (q + 1)
        for z in L.elements():
            if z.frobenius(q) + z == rhs:
                total += 1
    return total


def test_count_examples():
    rep = count_points(2, 2, "xprime", 1, 1)
    assert rep.rows[0].count == 6
    assert rep.supersingular_count == 6
    rep3 = count_points(2, 3, "xprime")
    assert rep3.supersingular_count == 12
    repx0 = count_points(2, 3, "x0")
    assert repx0.supersingular_count == 4


def test_count_gf16_matches_independent_loop():
    rep = count_points(2, 2, "xprime", 1, 2)
    gf16 = make_field(2, 4)
    brute = sum(1 for x in gf16.nonzero_elements()
                for z in gf16.nonzero_elements()
                if z * z + z == x ** 3)
    assert rep.rows[1].count == brute


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_supersingular_closed_forms(q, n):
    rep = count_points(q, n, "xprime")
    assert rep.supersingular_count == (q * q - 1) * q ** (n - 1)
    repz = count_points(q, n, "x0")
    assert repz.supersingular_count == q ** (n - 1)


def _gs_genus(q: int, n: int) -> Fraction:
    """Genus of the n-th function field of the Garcia-Stichtenoth tower."""
    if n % 2:
        return q**n + q**(n - 1) - q**((n + 1) // 2) \
            - 2 * q**((n - 1) // 2) + 1
    return q**n + q**(n - 1) - Fraction(q**(n // 2 + 1), 2) \
        - Fraction(3 * q**(n // 2), 2) - q**(n // 2 - 1) + 1


def test_gs_genus_low_levels():
    # a rational line, then the Hermitian curve of genus q(q-1)/2
    for q in (2, 3, 4, 5):
        assert _gs_genus(q, 1) == 0
        assert _gs_genus(q, 2) == q * (q - 1) // 2


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_xprime_counts_within_hasse_weil(q, n):
    # the x' tower is the Garcia-Stichtenoth tower, so its count over
    # GF(q^(2m)) obeys the Hasse-Weil bound for genus g_n (the x0
    # quotient has a smaller genus, so the bound says less there)
    g = _gs_genus(q, n)
    m_last = max(m for m in range(1, 9) if q**(2 * m) <= 2**16)
    rep = count_points(q, n, "xprime", 1, m_last)
    assert [row.m for row in rep.rows] == list(range(1, m_last + 1))
    for row in rep.rows:
        assert row.count <= q**(2 * row.m) + 1 + 2 * g * q**row.m, row


def test_degenerate_z_diagnostic():
    # the excluded seed plus one all-zero branch per extension step
    from drintower.tower import degenerate_z_skips
    for q in (2, 3):
        p, r = prime_power(q)
        field = make_field(p, 2 * r)
        for n in (2, 3, 4):
            assert degenerate_z_skips(q, n, field) == n - 1
    # brute recount for q=2, n=3 over GF(4): walk every branch directly
    gf4 = make_field(2, 2)
    one = gf4.one()
    minus_one = -one
    skipped = 1
    for pt_prefix in [(z,) for z in gf4.elements() if z != minus_one]:
        za = pt_prefix[-1]
        rhs = za.frobenius(2) / (one + za)
        if minus_one * (one + minus_one) == rhs:
            skipped += 1
    assert skipped == degenerate_z_skips(2, 3, gf4) == 2
    rep = count_points(2, 3, "x0")
    assert rep.degenerate_z_skipped == 2
    assert rep.to_json_dict()["degenerate_z_skipped"] == 2
    assert count_points(2, 3, "xprime").degenerate_z_skipped is None


def test_count_holds_no_level_n_column():
    # count_points(4, 3, "x0", 4, 4) counts 65 531 rows of two int64
    # columns over GF(2^16); it holds the walk's bucket index and the
    # level-2 rows, but no level-3 column
    import tracemalloc
    ctx = FieldContext()
    for m in (1, 4):
        ctx.extension_of_k1(4, m).tables()
    tracemalloc.start()
    try:
        report = count_points(4, 3, "x0", 4, 4, ctx=ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.rows[0].count == 65531
    assert peak < 7 * 8 * 2**16


def test_report_rejects_wrong_tallies():
    row = ExtensionCount(1, "2^2/1,1,1", 4, 6)
    with pytest.raises(RuntimeError, match="closed form"):
        CountReport(2, 2, "xprime", (row,), 5)
    with pytest.raises(ValueError, match="variant"):
        count_points(2, 2, "bogus")


def test_count_report_serialization():
    rep = count_points(2, 2, "xprime", 1, 2)
    blob = rep.to_json_dict()
    assert blob["supersingular_count"] == 6
    assert [r["m"] for r in blob["rows"]] == [1, 2]
    rows = rep.csv_rows()
    assert rows[0] == ["m", "field", "field_size", "count"]
    assert len(rows) == 3


def test_supersingular_points_live_over_k1():
    # points found over the quartic extension that are supersingular are
    # exactly the ones already present over the quadratic extension
    for q in (2, 3):
        p, r = prime_power(q)
        k1 = make_field(p, 2 * r)
        big = make_field(p, 4 * r)
        for n in (2, 3):
            small = enumerate_xprime(q, n, k1)
            ss_big = [pt for pt in enumerate_xprime(q, n, big)
                      if pt.is_supersingular()]
            assert len(ss_big) == len(small)
            for pt in ss_big:
                assert all(x.frobenius(q, 2) == x for x in pt.coords)


@pytest.mark.parametrize("q,affine,genus", [(2, 8, 1), (3, 27, 3),
                                            (4, 64, 6)])
def test_hermitian_maximality(q, affine, genus):
    rep = hermitian_check(q)
    assert rep.genus == genus
    assert rep.measured[0][1] == affine == q ** 3
    assert rep.measured[0][2] == q * q + 1 + 2 * genus * q
    assert rep.attains_weil_bound
    assert rep.measured_model_match
    assert rep.zeta.exact_residuals_zero()
    blob = json.loads(json.dumps(rep.to_json_dict()))
    assert blob["attains_weil_bound"] is True
    assert blob["measured_model_match"] is True
    assert blob["measured"][0] == {"m": 1, "affine": affine,
                                   "projective": affine + 1}
    zeta = blob["zeta"]
    assert zeta["symmetry_residual"] == "0"
    assert zeta["count_residuals"] == ["0"] * len(zeta["counts"])


def test_hermitian_two_code_paths_agree():
    for q in (2, 3, 4):
        assert hermitian_affine_count(q, 1) == \
            hermitian_affine_count_bruteforce(q, 1)
    assert hermitian_affine_count(2, 2) == \
        hermitian_affine_count_bruteforce(2, 2)


def test_hermitian_extension_counts_match_model():
    # measured counts over extensions reproduce the maximal-curve zeta
    rep = hermitian_check(2, m_measure=2)
    assert [m for m, _, _ in rep.measured] == [1, 2]
    assert rep.measured[1][2] == 9  # 16 + 1 - 2 * (-2)^2
    assert rep.measured_model_match


def test_zeta_rational_curve():
    rep = zeta_consistency([4 + 1, 16 + 1, 64 + 1], 0, 4)
    assert rep.lpoly == (Fraction(1),)
    assert rep.exact_residuals_zero()
    assert rep.weil_deviation == 0.0


def test_zeta_hermitian_by_hand():
    rep = zeta_consistency([9, 9], 1, 4)
    assert rep.lpoly == (Fraction(1), Fraction(4), Fraction(4))
    assert rep.symmetry_residual == 0
    assert all(r == 0 for r in rep.count_residuals)
    assert rep.weil_deviation < 1e-9


def test_zeta_flags_perturbed_counts():
    rep = zeta_consistency([10, 9], 1, 4)
    assert not rep.exact_residuals_zero()
    assert rep.symmetry_residual == Fraction(9, 2)


def test_zeta_uses_exact_arithmetic():
    rep = zeta_consistency([9, 9], 1, 4)
    assert all(isinstance(c, Fraction) for c in rep.lpoly)
    assert isinstance(rep.symmetry_residual, Fraction)
    blob = rep.to_json_dict()
    assert blob["lpoly"] == ["1", "4", "4"]


def test_zeta_requires_enough_counts():
    with pytest.raises(ValueError, match="at least"):
        zeta_consistency([9], 2, 4)
    with pytest.raises(ValueError):
        zeta_consistency([9], -1, 4)


def test_zeta_fills_by_functional_equation():
    # only genus counts given: the top half comes from the symmetry
    rep = zeta_consistency([9], 1, 4)
    assert rep.lpoly == (Fraction(1), Fraction(4), Fraction(4))
    assert rep.exact_residuals_zero()


@pytest.mark.parametrize("q,variant", [(2, "x0"), (3, "x0"), (4, "x0"),
                                       (2, "xprime"), (3, "xprime")])
def test_closed_form_tally_at_level_20(q, variant):
    # CountReport refuses a tally off its closed form; at level 20 the
    # weights reach counts that no column walk could hold as rows
    report = count_points(q, 20, variant, 1, 1)
    assert report.supersingular_count == report.expected_supersingular()
    assert report.rows[0].count >= report.supersingular_count
    if (q, variant) == (4, "x0"):
        assert report.supersingular_count == 4 ** 19 == 274877906944
        assert report.rows[0].count == 274877906955


def test_weight_dtype_follows_the_count_bound():
    import numpy as np
    from drintower.finite_field import CapExceededError
    from drintower.tower import _weight_dtype
    gf4 = make_field(2, 2)
    assert _weight_dtype(2, 31, gf4) == np.int32  # 2^30 < 2^31
    assert _weight_dtype(2, 32, gf4) == np.int64
    assert _weight_dtype(2, 62, gf4) == np.int64  # 3 * 2^61 < 2^63
    with pytest.raises(CapExceededError, match="level-63 count"):
        _weight_dtype(2, 63, gf4)


def test_counts_do_not_depend_on_field_model():
    # any irreducible modulus gives an isomorphic field, so all tallies
    # must agree with the default-model run
    default = count_points(3, 2, "xprime", 1, 1)
    other = count_points(3, 2, "xprime", 1, 1,
                         ctx=FieldContext(moduli={(3, 2): (2, 1, 1)}))
    assert other.rows[0].count == default.rows[0].count == 24
    assert other.supersingular_count == default.supersingular_count


def test_field_context_overrides():
    ctx = FieldContext(moduli={(2, 2): (1, 1, 1)})
    spec = ctx.extension_of_k1(2, 1)
    assert spec.modulus == (1, 1, 1)
    assert ctx.used[(2, 2)] == "2^2/1,1,1"
    from drintower.finite_field import CapExceededError
    tight = FieldContext(cap=8)
    with pytest.raises(CapExceededError):
        tight.extension_of_k1(2, 2)


def test_count_range_past_the_cap_raises_before_walking(monkeypatch):
    from drintower import counting
    from drintower.finite_field import CapExceededError

    def refuse(*args, **kwargs):
        raise AssertionError("walked before the cap check")

    monkeypatch.setattr(counting, "xprime_count", refuse)
    with pytest.raises(CapExceededError, match="2\\^24"):
        count_points(4, 2, "xprime", 1, 6, FieldContext(cap=2**20))


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                 (3, 1), (3, 2), (3, 3), (4, 1), (4, 2),
                                 (4, 3), (5, 1), (5, 2), (9, 1)])
def test_hermitian_count_is_level_two_count_plus_x_zero_fiber(
        q, m, monkeypatch):
    # both consumers of tower._solvable_blocks: the Hermitian count over
    # every x, and the level-2 x' edges over x != 0 without z = 0; they
    # differ by the q points (0, z) with z^q + z = 0, so dropping x = 0
    # or miscounting the kernel on either side breaks the equality;
    # blocks of 7 split the seeds
    from drintower import finite_field
    monkeypatch.setattr(finite_field, "_CHUNK", 7)
    L = FieldContext().extension_of_k1(q, m)
    assert hermitian_affine_count(q, m) == q + xprime_count(q, 2, L) == \
        q + count_points(q, 2, "xprime", m, m).rows[0].count


@pytest.mark.parametrize("q,m", [(2, 6), (3, 3)])
def test_hermitian_count_in_blocks_matches_closed_form(q, m, monkeypatch):
    # GF(2^12) and GF(3^6) walked in many short blocks, the last one
    # partial; the count is q^(2m) - q(q-1)(-q)^m
    from drintower import finite_field
    monkeypatch.setattr(finite_field, "_CHUNK", 1000)
    assert hermitian_affine_count(q, m) == \
        q ** (2 * m) - q * (q - 1) * (-q) ** m


def _mobius(k: int) -> int:
    out, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    return -out if k > 1 else out


def _place_degrees_are_whole(counts) -> bool:
    """Whether P_d = (1/d) sum_{e | d} mu(d/e) N_e is a nonnegative
    integer for every d, where counts[m - 1] = N_m over GF(q^(2m)).

    The affine chart of either tower is stable under the Frobenius of
    GF(q^2), so N_m = sum_{d | m} d P_d, with P_d the number of its
    orbits of exact size d, the places of degree d.  A count off by one
    at some d >= 2 moves P_d by 1/d.
    """
    degrees = [Fraction(sum(_mobius(d // e) * counts[e - 1]
                            for e in range(1, d + 1) if d % e == 0), d)
               for d in range(1, len(counts) + 1)]
    return all(p.denominator == 1 and p >= 0 for p in degrees)


def _counts_up_to(q, n, variant, m_last, ctx=None):
    report = count_points(q, n, variant, 1, m_last, ctx)
    return [row.count for row in report.rows]


@pytest.mark.parametrize("flags", _golden_count_configs())
def test_place_degrees_are_whole_on_golden_count_ranges(flags):
    from drintower.cli import _parse_ext, _parse_modulus
    ctx = FieldContext(moduli=dict(
        [_parse_modulus(flags["--modulus"])] if "--modulus" in flags
        else []))
    counts = _counts_up_to(int(flags["--q"]), int(flags["--n"]),
                           flags.get("--variant", "xprime"),
                           _parse_ext(flags["--ext"])[1], ctx)
    assert _place_degrees_are_whole(counts), counts


def test_place_degrees_are_whole_on_drawn_ranges():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        st.sampled_from(sorted(DRAWN_FIELDS)).flatmap(
            lambda q: st.tuples(st.just(q), st.integers(2, 5),
                                st.integers(1, DRAWN_FIELDS[q]))),
        st.sampled_from(["xprime", "x0"]))
    def check(case, variant):
        q, n, m_last = case
        counts = _counts_up_to(q, n, variant, m_last)
        assert _place_degrees_are_whole(counts), (case, variant, counts)

    check()


def test_place_degrees_catch_a_count_off_by_one():
    # every N_d with d >= 2, moved by +1 or -1, leaves P_d fractional
    counts = _counts_up_to(2, 4, "x0", 7)
    assert _place_degrees_are_whole(counts)
    for d in range(2, len(counts) + 1):
        for delta in (-1, 1):
            moved = list(counts)
            moved[d - 1] += delta
            assert not _place_degrees_are_whole(moved), (d, delta)
