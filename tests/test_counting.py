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
from drintower.tower import enumerate_xprime


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


@pytest.mark.parametrize("q,m", [(2, 6), (3, 3)])
def test_hermitian_count_in_blocks_matches_closed_form(q, m, monkeypatch):
    # GF(2^12) and GF(3^6) walked in many short blocks, the last one
    # partial; the count is q^(2m) - q(q-1)(-q)^m
    from drintower import counting
    monkeypatch.setattr(counting, "HERMITIAN_BLOCK", 1000)
    assert hermitian_affine_count(q, m) == \
        q ** (2 * m) - q * (q - 1) * (-q) ** m
