"""Point counts over extension fields and zeta-function consistency.

Counting conventions, which differ between the two report paths and are
recorded on every report:

* tower enumeration counts are affine and exclude every point with a
  zero coordinate (the cuspidal chart boundary);
* the quadratic-level check counts the full affine model
  z^q + z = x^(q+1) over GF(q^2), zeros included, and adds one for the
  unique rational place at infinity of this model (the x-degree q+1 is
  coprime to q, so the place at infinity is totally ramified and
  unique).  That projective count attains the Hasse-Weil upper bound
  q^2 + 1 + 2*g*q with g = q(q-1)/2, which pins the whole zeta
  function: every inverse Frobenius root equals -q.

Tower counts come from transfer weights over the quotient tower, one
exact integer per field element (see tower.count), the x' count being
q^2 - 1 times the count of the quotient rows that lift: memory is two
weight arrays plus the field's tables, whatever the tower and the
level, and no edge is kept; the quadratic-level model is q (its points
with x = 0) plus the level-2 x' count, so no count solves an equation.
A count whose bound passes 2^63 - 1 is refused up front.  The zeta
solver works in exact rational arithmetic throughout; the only
floating point appears in the advisory inverse-root magnitude report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .finite_field import (
    DEFAULT_CAP,
    FieldSpec,
    make_field,
    prime_power,
)
from .tower import (
    TOWERS,
    _weight_dtype,
    count,
    degenerate_z_skips,
)
# bound here only for the benchmark's tracer, which wraps them
from .linearized import _solver_for  # noqa: F401
from .tower import enumerate_x0, enumerate_xprime  # noqa: F401


class FieldContext:
    """Field factory honoring a size cap and explicit modulus overrides."""

    def __init__(self, cap: int = DEFAULT_CAP, moduli: Optional[dict] = None):
        self.cap = cap
        self.moduli = dict(moduli or {})
        self.used: dict = {}

    def field(self, p: int, m: int) -> FieldSpec:
        spec = make_field(p, m, self.moduli.get((p, m)), cap=self.cap)
        self.used[(p, m)] = spec.serialize()
        return spec

    def extension_of_k1(self, q: int, m: int) -> FieldSpec:
        """The field of size q^(2m), the m-th extension of GF(q^2)."""
        p, r = prime_power(q)
        return self.field(p, 2 * r * m)


# ---------------------------------------------------------------------------
# tower point counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionCount:
    m: int
    field_label: str
    field_size: int
    count: int


@dataclass(frozen=True)
class CountReport:
    """Per-extension affine counts plus the supersingular tally over GF(q^2).

    The supersingular tally must match its closed form, (q^2-1) q^(n-1)
    points for the x-coordinate tower and q^(n-1) for the quotient
    tower; a mismatch means a broken enumeration and is refused here.
    """

    q: int
    n: int
    variant: str
    rows: tuple
    supersingular_count: int
    affine_only: bool = True
    degenerate_z_skipped: Optional[int] = None

    def __post_init__(self):
        expected = self.expected_supersingular()
        if self.supersingular_count != expected:
            raise RuntimeError(
                f"supersingular count {self.supersingular_count} does not "
                f"match the closed form {expected}")
        for row in self.rows:
            if row.m == 1 and row.count < self.supersingular_count:
                raise RuntimeError("count over GF(q^2) lost points")

    def expected_supersingular(self) -> int:
        tower = TOWERS[self.variant]
        return tower.supersingular_closed_form(self.q, self.n)

    def to_json_dict(self) -> dict:
        out = {
            "q": self.q, "n": self.n, "variant": self.variant,
            "affine_only": self.affine_only,
            "supersingular_count": self.supersingular_count,
            "rows": [{"m": r.m, "field": r.field_label,
                      "field_size": r.field_size, "count": r.count}
                     for r in self.rows],
        }
        if self.degenerate_z_skipped is not None:
            out["degenerate_z_skipped"] = self.degenerate_z_skipped
        return out

    def csv_rows(self) -> list:
        head = ["m", "field", "field_size", "count"]
        return [head] + [[r.m, r.field_label, r.field_size, r.count]
                         for r in self.rows]


def count_points(q: int, n: int, variant: str, m_first: int = 1,
                 m_last: Optional[int] = None,
                 ctx: Optional[FieldContext] = None) -> CountReport:
    """Count the chosen tower over GF(q^2), ..., GF(q^(2*m_last)).

    Each count comes from transfer weights, one per field element (see
    tower.count), so no row and no point object is built, and a count
    of either tower holds two weight arrays beside the field's tables at
    every level n.  The supersingular tally is always taken over GF(q^2)
    regardless of the extension range, by the same count restricted to
    the supersingular Z-values; for x' that count also checks that the
    Z_2 it lifts over GF(q^2) are those values.  The degenerate-Z tally
    of x0 is its closed form n - 1 (see tower.degenerate_z_skips).
    Raises CapExceededError, before any field-sized work, when a field
    of the range passes the cap or a count in it could pass 2^63 - 1.
    """
    if variant not in TOWERS:
        raise ValueError(f"unknown tower variant {variant!r}")
    tower = TOWERS[variant]
    if m_last is None:
        m_last = m_first
    if not 1 <= m_first <= m_last:
        raise ValueError("need 1 <= m_first <= m_last")
    ctx = ctx or FieldContext()
    k1 = ctx.extension_of_k1(q, 1)
    # every field and its count bound before any count, so a range past
    # the cap or past int64 fails at once
    for m in range(m_first, m_last + 1):
        _weight_dtype(q, n, ctx.extension_of_k1(q, m))
    ss = count(tower, q, n, k1, supersingular=True)
    rows = []
    for m in range(m_first, m_last + 1):
        L = ctx.extension_of_k1(q, m)
        rows.append(ExtensionCount(m, L.serialize(), L.size,
                                   count(tower, q, n, L)))
    skipped = degenerate_z_skips(q, n, k1) if tower.degenerate_z else None
    return CountReport(q, n, variant, tuple(rows), ss,
                       degenerate_z_skipped=skipped)


# ---------------------------------------------------------------------------
# the quadratic level: full-model counts and maximality
# ---------------------------------------------------------------------------

def hermitian_affine_count(q: int, m: int = 1,
                           ctx: Optional[FieldContext] = None) -> int:
    """Points of z^q + z = x^(q+1) over the size-q^(2m) field, zeros
    included: the q roots of z^q + z = 0 over x = 0, and, as z = 0 only
    there, the level-2 x' points (x, z/x), whose z_2 is z, for the rest,
    by the lifted count of their Z_2 = z^(q-1) (see tower.count)."""
    ctx = ctx or FieldContext()
    return q + count(TOWERS["xprime"], q, 2, ctx.extension_of_k1(q, m))


@dataclass(frozen=True)
class HermitianReport:
    q: int
    genus: int
    measured: tuple          # (m, affine, projective) for directly counted m
    projective_counts: tuple  # length 2*genus, maximal-model values
    measured_model_match: bool
    attains_weil_bound: bool
    zeta: "ZetaReport"

    def to_json_dict(self) -> dict:
        return {
            "q": self.q, "genus": self.genus,
            "measured": [{"m": m, "affine": a, "projective": pr}
                         for m, a, pr in self.measured],
            "projective_counts": list(self.projective_counts),
            "measured_model_match": self.measured_model_match,
            "attains_weil_bound": self.attains_weil_bound,
            "zeta": self.zeta.to_json_dict(),
        }


def hermitian_check(q: int, ctx: Optional[FieldContext] = None,
                    m_measure: Optional[int] = None) -> HermitianReport:
    """Count the quadratic-level model and certify its maximality.

    The count over GF(q^2) must be q^3 affine, q^3 + 1 projective,
    meeting the Hasse-Weil bound q^2 + 1 + 2*g*q exactly.  Meeting the
    bound forces every inverse Frobenius root to -q, so the projective
    counts over all extensions follow; the directly measured prefix is
    compared against that model, and the zeta solver is run on the full
    list, where its residuals must vanish identically.
    """
    pr = prime_power(q)
    if pr is None:
        raise ValueError(f"{q} is not a prime power")
    ctx = ctx or FieldContext()
    g = q * (q - 1) // 2
    q1 = q * q
    if m_measure is None:
        m_measure = 1
        while m_measure < max(1, 2 * g) and q1 ** (m_measure + 1) <= 8192:
            m_measure += 1

    measured = []
    for m in range(1, m_measure + 1):
        affine = hermitian_affine_count(q, m, ctx)
        measured.append((m, affine, affine + 1))

    affine1 = measured[0][1]
    if affine1 != q**3:
        raise RuntimeError(f"affine count {affine1} != q^3 = {q**3}")
    attains = measured[0][2] == q1 + 1 + 2 * g * q
    if not attains:
        raise RuntimeError("projective count misses the Hasse-Weil bound")

    model = tuple(q1**m + 1 - 2 * g * (-q) ** m
                  for m in range(1, max(1, 2 * g) + 1))
    match = all(pr_count == model[m - 1] for m, _, pr_count in measured)
    zeta = zeta_consistency(list(model), g, q1)
    return HermitianReport(q, g, tuple(measured), model, match, attains, zeta)


# ---------------------------------------------------------------------------
# zeta reconstruction by Newton's identities, in exact rationals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZetaReport:
    """Numerator data of the zeta function recovered from point counts.

    lpoly lists the coefficients (constant term first, always 1) of
    L(t) = prod(1 - alpha_i t) over the inverse Frobenius roots.  The
    symmetry residual measures failure of the functional equation
    a_{2g-i} = q1^(g-i) a_i on coefficients that were computed directly
    from counts; count_residuals compare the provided counts with the
    ones the reconstructed L predicts.  Both are exact rationals and
    vanish identically on consistent input.  weil_deviation is the one
    floating-point diagnostic: max | |alpha_i| - sqrt(q1) |.
    """

    q1: int
    genus: int
    counts: tuple
    lpoly: tuple
    symmetry_residual: Fraction
    count_residuals: tuple
    weil_deviation: float

    def exact_residuals_zero(self) -> bool:
        return self.symmetry_residual == 0 and \
            all(r == 0 for r in self.count_residuals)

    def to_json_dict(self) -> dict:
        return {
            "q1": self.q1, "genus": self.genus,
            "counts": list(self.counts),
            "lpoly": [str(c) for c in self.lpoly],
            "symmetry_residual": str(self.symmetry_residual),
            "count_residuals": [str(r) for r in self.count_residuals],
            "weil_deviation": self.weil_deviation,
        }


def zeta_consistency(projective_counts: list, genus: int,
                     q1: int) -> ZetaReport:
    """Reconstruct L(t) from projective counts and report residuals.

    Counts N_m determine power sums s_m = q1^m + 1 - N_m of the inverse
    roots; Newton's identities turn those into coefficients of L.  At
    least genus counts are required; coefficients beyond the count range
    are completed through the functional equation.
    """
    counts = [int(c) for c in projective_counts]
    M = len(counts)
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if M < genus:
        raise ValueError(f"need at least {genus} counts, got {M}")
    deg = 2 * genus
    s = {m: Fraction(q1**m + 1 - counts[m - 1]) for m in range(1, M + 1)}

    a = {0: Fraction(1)}
    direct = min(M, deg)
    for m in range(1, direct + 1):
        acc = s[m]
        for i in range(1, m):
            acc += a[i] * s[m - i]
        a[m] = -acc / m
    for m in range(direct + 1, deg + 1):
        # functional equation: a_m = q1^(m-genus) * a_{2g-m}
        a[m] = Fraction(q1) ** (m - genus) * a[deg - m]

    residual = Fraction(0)
    for i in range(0, genus + 1):
        j = deg - i
        if j <= direct:
            gap = abs(a[j] - Fraction(q1) ** (genus - i) * a[i])
            if gap > residual:
                residual = gap

    # predicted power sums and counts from the completed polynomial
    s_hat: dict = {}
    for m in range(1, M + 1):
        acc = Fraction(0)
        for i in range(1, min(m - 1, deg) + 1):
            acc += a[i] * s_hat[m - i]
        if m <= deg:
            acc += m * a[m]
        s_hat[m] = -acc
    count_residuals = tuple(q1**m + 1 - s_hat[m] - counts[m - 1]
                            for m in range(1, M + 1))

    if genus == 0:
        weil = 0.0
    else:
        import numpy
        coeffs = [float(a[m]) for m in range(deg, -1, -1)]
        roots = numpy.roots(coeffs)
        weil = float(max(abs(abs(1.0 / r) - q1**0.5) for r in roots))

    return ZetaReport(q1, genus, tuple(counts),
                      tuple(a[m] for m in range(deg + 1)),
                      residual, count_residuals, weil)
