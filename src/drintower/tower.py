"""Recursive towers of curves carrying normalized Drinfeld modules.

A nonzero T-torsion point x of a normalized module pins the module
down: its T-action is the q-linearized polynomial

    torsion_poly(x):    X + ((x^(q^2) - x)/x^q) X^q - X^(q^2)

which factors through the line k*x as cofactor_poly(x) composed with
kernel_line_poly(x), where

    kernel_line_poly(x):  x^(q-1) X - X^q      (vanishes exactly on k*x)
    cofactor_poly(x):     x^(1-q) X + X^q

The reverse composition quotient_torsion_poly(x) is the T-action of the
quotient module, and its own torsion points feed the next storey.  A
level-n point of the tower is a tuple (x_1, ..., x_n) of nonzero
coordinates linked by

    x_j = x_{j-1}^(-1) z_j   with   z_j^q + z_j = x_{j-1}^(q+1),

so the whole tower is cut out by one equation repeated n-1 times.  The
level-2 curve is the Hermitian curve over GF(q^2).  Points whose first
coordinate lies in GF(q^2)* are the supersingular ones; all of their
coordinates then lie in GF(q^2)* automatically.

Dividing by the GF(q^2)* scaling action (c, then c^q, alternating along
the tuple) leaves the coordinates Z_j = (x_{j-1} x_j)^(q-1), which obey

    Z_{j+1} (1+Z_{j+1})^(q-1) = Z_j^q / (1+Z_j)^(q-1)

and generate the quotient tower; enumerate_x0 walks that recursion
directly.  Enumeration walks the whole field at once as arrays of
integer encodings (see finite_field) and keeps the rows in lexicographic
order level by level, so its order is deterministic.
"""

from __future__ import annotations

import functools
from typing import Optional

from .drinfeld import DrinfeldModule
from .finite_field import (
    FieldElement,
    FieldSpec,
    embed,
    prime_power,
)
from .linearized import LinearizedPoly, _solver_for, preimages


# ---------------------------------------------------------------------------
# the four building-block polynomials
# ---------------------------------------------------------------------------

def kernel_line_poly(x: FieldElement, q: int) -> LinearizedPoly:
    """x^(q-1) X - X^q, the degree-q polynomial vanishing on the line k*x."""
    if not x:
        raise ValueError("x must be nonzero")
    return LinearizedPoly(q, (x ** (q - 1), -x.spec.one()))


def cofactor_poly(x: FieldElement, q: int) -> LinearizedPoly:
    """x^(1-q) X + X^q, the complementary factor of torsion_poly(x)."""
    if not x:
        raise ValueError("x must be nonzero")
    return LinearizedPoly(q, (x ** (1 - q), x.spec.one()))


def torsion_poly(x: FieldElement, q: int) -> LinearizedPoly:
    """T-action of the normalized module having x as a T-torsion point."""
    if not x:
        raise ValueError("x must be nonzero")
    one = x.spec.one()
    mid = (x.frobenius(q, 2) - x) / x ** q
    return LinearizedPoly(q, (one, mid, -one))


def quotient_torsion_poly(x: FieldElement, q: int) -> LinearizedPoly:
    """T-action of the quotient by the line k*x; equals
    kernel_line_poly(x) * cofactor_poly(x)."""
    if not x:
        raise ValueError("x must be nonzero")
    one = x.spec.one()
    mid = x ** (q - 1) - x ** (q - q * q)
    return LinearizedPoly(q, (one, mid, -one))


def module_from_torsion_point(x1: FieldElement, q: int) -> DrinfeldModule:
    """The normalized module (l0, g, delta) = (1, (x1^(q^2)-x1)/x1^q, -1)."""
    if not x1:
        raise ValueError("x1 must be nonzero")
    spec = x1.spec
    g = (x1.frobenius(q, 2) - x1) / x1 ** q
    module = DrinfeldModule(q, spec.one(), g, -spec.one())
    if module.phi_t()(x1):
        raise RuntimeError("x1 failed to be a torsion point of its module")
    return module


def _trace_map(q: int, spec: FieldSpec) -> LinearizedPoly:
    return LinearizedPoly.from_ints(q, spec, [1, 1])


# ---------------------------------------------------------------------------
# tower points in x-coordinates
# ---------------------------------------------------------------------------

def _check_coordinate_field(q: int, field: FieldSpec) -> None:
    pr = prime_power(q)
    if pr is None or pr[0] != field.p or field.m % (2 * pr[1]):
        raise ValueError(
            f"coordinate field {field!r} must contain GF({q}^2)")


class TowerPoint:
    """Affine point (x_1, ..., x_n) of the level-n tower curve.

    All coordinates are nonzero elements of one field and consecutive
    ones satisfy the defining relation; both facts are checked at
    construction.  Level 1 is the bare x_1-line and serves as the
    enumeration seed.
    """

    __slots__ = ("q", "coords")

    def __init__(self, q: int, coords: tuple):
        coords = tuple(coords)
        if not coords:
            raise ValueError("a point needs at least the x_1 coordinate")
        spec = coords[0].spec
        _check_coordinate_field(q, spec)
        for x in coords:
            if x.spec != spec:
                raise ValueError("coordinates lie in different fields")
            if not x:
                raise ValueError("cuspidal coordinate 0 is not allowed")
        for a, b in zip(coords, coords[1:]):
            z = a * b
            if z.frobenius(q) + z != a ** (q + 1):
                raise ValueError(
                    "coordinates do not satisfy the tower relation")
        self.q = q
        self.coords = coords

    @classmethod
    def _checked_elsewhere(cls, q: int, coords: tuple) -> "TowerPoint":
        """A point whose coordinates the caller has already validated."""
        pt = object.__new__(cls)
        pt.q = q
        pt.coords = coords
        return pt

    @property
    def level(self) -> int:
        return len(self.coords)

    @property
    def spec(self) -> FieldSpec:
        return self.coords[0].spec

    def ints(self) -> tuple:
        return tuple(x.to_int() for x in self.coords)

    def __eq__(self, other):
        if not isinstance(other, TowerPoint):
            return NotImplemented
        return (self.q, self.coords) == (other.q, other.coords)

    def __hash__(self):
        return hash((self.q, self.coords))

    def __repr__(self):
        return f"TowerPoint(q={self.q}, {[x.serialize() for x in self.coords]})"

    def serialize(self) -> list:
        return [x.serialize() for x in self.coords]

    def lift_to(self, target: FieldSpec) -> "TowerPoint":
        if target == self.spec:
            return self
        return TowerPoint(self.q, tuple(embed(x, target) for x in self.coords))

    # -- geometry ---------------------------------------------------------------

    def is_supersingular(self) -> bool:
        """Whether x_1 lies in GF(q^2)*; the other coordinates then must."""
        q = self.q
        if self.coords[0].frobenius(q, 2) != self.coords[0]:
            return False
        for x in self.coords[1:]:
            if x.frobenius(q, 2) != x:
                raise RuntimeError(
                    "supersingular point left GF(q^2); tower relation broken")
        return True

    def extend(self, target: Optional[FieldSpec] = None) -> list:
        """All one-step extensions with the new coordinate in the target
        field (default: the point's own field), possibly none."""
        base = self.lift_to(target) if target is not None else self
        spec = base.spec
        q = self.q
        last = base.coords[-1]
        rhs = last ** (q + 1)
        sols = preimages(_trace_map(q, spec), rhs, spec)
        inv = last.inverse()
        out = [TowerPoint(q, base.coords + (inv * z,))
               for z in sols if z]
        out.sort(key=TowerPoint.ints)
        return out

    def act(self, c: FieldElement) -> "TowerPoint":
        """Scale by c in GF(q^2)*: coordinates alternate c, c^q factors.

        The image is validated, which re-checks that the scaling
        preserves the tower relation, and its Z-coordinates are
        unchanged.
        """
        q = self.q
        if c.spec != self.spec:
            c = embed(c, self.spec)
        if not c:
            raise ValueError("the scaling constant must be nonzero")
        if c.frobenius(q, 2) != c:
            raise ValueError("the scaling constant must lie in GF(q^2)")
        cbar = c.frobenius(q)
        scaled = tuple(x * (c if i % 2 == 0 else cbar)
                       for i, x in enumerate(self.coords))
        return TowerPoint(q, scaled)

    def project_to_x0(self) -> "X0Point":
        """Z-coordinates (x_{j-1} x_j)^(q-1) of the image in the quotient
        tower; defined once the point has at least two coordinates."""
        if self.level < 2:
            raise ValueError("projection needs at least two coordinates")
        q = self.q
        zs = tuple((a * b) ** (q - 1)
                   for a, b in zip(self.coords, self.coords[1:]))
        return X0Point(q, zs)

    def kernel_chain_poly(self, depth: int) -> LinearizedPoly:
        """kernel_line_poly(x_depth) * ... * kernel_line_poly(x_1).

        Its full kernel in a splitting field is the group of
        T^depth-torsion points selected by this tower point: q^depth
        elements forming a cyclic module under the T-action.
        """
        if not 1 <= depth <= self.level:
            raise ValueError(f"depth must be in 1..{self.level}")
        q = self.q
        chain = kernel_line_poly(self.coords[0], q)
        for x in self.coords[1:depth]:
            chain = kernel_line_poly(x, q) * chain
        return chain


# ---------------------------------------------------------------------------
# quotient-tower points in Z-coordinates
# ---------------------------------------------------------------------------

class X0Point:
    """Point (Z_2, ..., Z_n) of the level-n quotient tower."""

    __slots__ = ("q", "zcoords")

    def __init__(self, q: int, zcoords: tuple):
        zcoords = tuple(zcoords)
        if not zcoords:
            raise ValueError("a point needs at least the Z_2 coordinate")
        spec = zcoords[0].spec
        _check_coordinate_field(q, spec)
        minus_one = -spec.one()
        one = spec.one()
        for z in zcoords:
            if z.spec != spec:
                raise ValueError("coordinates lie in different fields")
            if z == minus_one:
                raise ValueError("degenerate coordinate Z = -1")
        for za, zb in zip(zcoords, zcoords[1:]):
            lhs = zb * (one + zb) ** (q - 1)
            rhs = za.frobenius(q) / (one + za) ** (q - 1)
            if lhs != rhs:
                raise ValueError(
                    "coordinates do not satisfy the quotient recursion")
        self.q = q
        self.zcoords = zcoords

    @classmethod
    def _checked_elsewhere(cls, q: int, zcoords: tuple) -> "X0Point":
        """A point whose coordinates the caller has already validated."""
        pt = object.__new__(cls)
        pt.q = q
        pt.zcoords = zcoords
        return pt

    @property
    def level(self) -> int:
        return len(self.zcoords) + 1

    @property
    def spec(self) -> FieldSpec:
        return self.zcoords[0].spec

    def ints(self) -> tuple:
        return tuple(z.to_int() for z in self.zcoords)

    def __eq__(self, other):
        if not isinstance(other, X0Point):
            return NotImplemented
        return (self.q, self.zcoords) == (other.q, other.zcoords)

    def __hash__(self):
        return hash((self.q, self.zcoords))

    def __repr__(self):
        return f"X0Point(q={self.q}, {[z.serialize() for z in self.zcoords]})"

    def serialize(self) -> list:
        return [z.serialize() for z in self.zcoords]

    def is_supersingular(self) -> bool:
        """All coordinates are (q+1)-st roots of unity other than -1."""
        one = self.spec.one()
        return all(z ** (self.q + 1) == one for z in self.zcoords)


# ---------------------------------------------------------------------------
# enumeration: whole-field array walks over integer encodings
# ---------------------------------------------------------------------------

def _read_only(cols: list) -> tuple:
    for c in cols:
        c.flags.writeable = False
    return tuple(cols)


def _xprime_columns(q: int, n: int, field: FieldSpec) -> tuple:
    """Coordinate columns (x_1, ..., x_n) of every level-n point.

    Each step solves z^q + z = x^(q+1) for every frontier point at once:
    the map z -> z^q + z is GF(p)-linear, so solvability is the parity
    rows of its solver and a particular solution is one matrix product;
    the solutions are that plus the q kernel elements, and the new
    coordinate is z / x.
    """
    import numpy as np
    field.tables()  # before anything of field size is allocated
    solver = _solver_for(_trace_map(q, field), field)
    kernel = np.array(solver.nullspace_ints(), dtype=np.int64)
    cols = [np.arange(1, field.size, dtype=np.int64)]
    for _ in range(n - 1):
        last = cols[-1]
        rhs = field.power_product((last, q + 1))
        parent = np.flatnonzero(solver.consistent_ints(rhs))
        z = field.add_ints(
            np.repeat(solver.solve_ints(rhs[parent]), len(kernel)),
            np.tile(kernel, len(parent)))
        del rhs
        parent = np.repeat(parent, len(kernel))
        live = z != 0
        parent, z = parent[live], z[live]
        del live
        new = field.power_product((z, 1), (last[parent], -1))
        del z
        # the rows of cols are in lexicographic order and parent is
        # nondecreasing, so sorting by (parent, new) keeps the new rows
        # in lexicographic order; the key stays below 2^63 for fewer
        # than 2^39 rows, as size <= 2^24
        key = parent * field.size
        key += new
        order = np.argsort(key, kind="stable")
        del key
        parent, new = parent[order], new[order]
        del order
        cols = [c[parent] for c in cols]
        cols.append(new)
    return _read_only(cols)


def xprime_relation_mask(q: int, field: FieldSpec, cols):
    """Row mask of the coordinate columns that TowerPoint accepts: nonzero
    coordinates, and z^q + z = a^(q+1) with z = a*b for consecutive a, b."""
    import numpy as np
    ok = np.logical_and.reduce([c != 0 for c in cols])
    for a, b in zip(cols, cols[1:]):
        z = field.power_product((a, 1), (b, 1))
        ok &= field.add_ints(field.power_product((z, q)), z) == \
            field.power_product((a, q + 1))
    return ok


def xprime_columns(q: int, n: int, field: FieldSpec) -> tuple:
    """The points of enumerate_xprime as read-only coordinate columns:
    one int64 array of integer encodings per coordinate."""
    if n < 2:
        raise ValueError("the tower starts at level 2")
    _check_coordinate_field(q, field)
    cols = _xprime_columns(q, n, field)
    if not xprime_relation_mask(q, field, cols).all():
        raise RuntimeError("an enumerated point fails the tower relation")
    return cols


def project_columns_to_x0(q: int, field: FieldSpec, cols) -> tuple:
    """Column form of TowerPoint.project_to_x0: the Z-columns
    (x_{j-1} x_j)^(q-1) of consecutive coordinate columns."""
    return tuple(field.power_product((a, q - 1), (b, q - 1))
                 for a, b in zip(cols, cols[1:]))


def xprime_supersingular_mask(q: int, field: FieldSpec, cols):
    """Boolean row mask of the supersingular points among coordinate
    columns of xprime_columns: x_1^(q^2) = x_1.

    Like TowerPoint.is_supersingular, raises RuntimeError when a kept
    row has another coordinate outside GF(q^2).
    """
    keep = field.power_product((cols[0], q * q)) == cols[0]
    for c in cols[1:]:
        kept = c[keep]
        if not (field.power_product((kept, q * q)) == kept).all():
            raise RuntimeError(
                "supersingular point left GF(q^2); tower relation broken")
    return keep


def enumerate_xprime(q: int, n: int, field: FieldSpec) -> list:
    """All level-n points with every coordinate in the given field.

    Seeds x_1 over the nonzero elements and extends one coordinate at a
    time over the whole frontier at once; the result is sorted
    lexicographically by coordinate index.  Every point is checked
    against the tower relation before it is returned.
    """
    coords = zip(*(field.elements_at(c)
                   for c in xprime_columns(q, n, field)))
    return [TowerPoint._checked_elsewhere(q, xs) for xs in coords]


def _one_plus(field: FieldSpec, z):
    import numpy as np
    return field.add_ints(z, np.ones_like(z))


def _z_forward(q: int, field: FieldSpec, z):
    """Z (1+Z)^(q-1), the left side of the quotient recursion."""
    return field.power_product((z, 1), (_one_plus(field, z), q - 1))


def _z_backward(q: int, field: FieldSpec, z):
    """Z^q / (1+Z)^(q-1), the right side of the quotient recursion."""
    return field.power_product((z, q), (_one_plus(field, z), 1 - q))


@functools.lru_cache(maxsize=1)
def _x0_walk(q: int, n: int, field: FieldSpec) -> tuple:
    """Sorted coordinate columns (Z_2, ..., Z_n) of the level-n quotient
    tower, and the degenerate-Z tally of the same walk.

    Z_2 ranges over the field minus -1.  Each later coordinate solves
    Z_{j+1} (1+Z_{j+1})^(q-1) = rhs(Z_j): the allowed values are sorted
    by their left side once, and every frontier tuple takes the whole
    bucket matching its right side.  A right side equal to the left side
    of the excluded -1, which is 0, is a branch lost to Z = -1; the
    excluded seed counts once more.  Cached for one field so that
    x0_columns and degenerate_z_skips share a walk.

    The rows come out in lexicographic order without a sort: the seeds
    ascend, each frontier tuple's children follow it in frontier order,
    and a bucket lists its members in ascending order because the
    stable argsort keeps the ascending order of allowed among equal
    keys.
    """
    import numpy as np
    _check_coordinate_field(q, field)
    field.tables()  # before anything of field size is allocated
    minus_one = field.p - 1  # encoding of the prime-field constant -1
    allowed = np.delete(np.arange(field.size, dtype=np.int64), minus_one)
    cols = [allowed]
    skipped = 1
    if n > 2:
        keys = _z_forward(q, field, allowed)
        by_key = np.argsort(keys, kind="stable")
        keys, members = keys[by_key], allowed[by_key]
        del by_key
        for _ in range(n - 2):
            rhs = _z_backward(q, field, cols[-1])
            skipped += int(np.count_nonzero(rhs == 0))
            lo = np.searchsorted(keys, rhs, side="left")
            width = np.searchsorted(keys, rhs, side="right") - lo
            del rhs
            parent = np.repeat(np.arange(len(width)), width)
            offset = np.arange(len(parent)) - np.repeat(
                np.cumsum(width) - width, width)
            offset += np.repeat(lo, width)
            del lo, width
            cols = [c[parent] for c in cols]
            del parent
            cols.append(members[offset])
            del offset
        del keys, members
    cols = _read_only(cols)
    if any((c == minus_one).any() for c in cols):
        raise RuntimeError("an enumerated point has Z = -1")
    if not x0_recursion_mask(q, field, cols).all():
        raise RuntimeError("an enumerated point fails the quotient recursion")
    return cols, skipped


def x0_recursion_mask(q: int, field: FieldSpec, cols):
    """Row mask of the Z-columns that X0Point accepts: no coordinate is -1,
    and consecutive coordinates satisfy the quotient recursion."""
    import numpy as np
    ok = np.logical_and.reduce([c != field.p - 1 for c in cols])
    for za, zb in zip(cols, cols[1:]):
        # rows with Z = -1 are already out; 0 keeps (1+Z)^(1-q) defined
        ok &= _z_forward(q, field, zb) == \
            _z_backward(q, field, np.where(ok, za, 0))
    return ok


def x0_columns(q: int, n: int, field: FieldSpec) -> tuple:
    """The points of enumerate_x0 as read-only coordinate columns: one
    int64 array of integer encodings per coordinate."""
    if n < 2:
        raise ValueError("the quotient tower starts at level 2")
    return _x0_walk(q, n, field)[0]


def x0_supersingular_mask(q: int, field: FieldSpec, cols):
    """Boolean row mask of the supersingular points among coordinate
    columns of x0_columns: every Z^(q+1) = 1, as X0Point.is_supersingular
    tests."""
    import numpy as np
    return np.logical_and.reduce(
        [field.power_product((c, q + 1)) == 1 for c in cols])


def enumerate_x0(q: int, n: int, field: FieldSpec) -> list:
    """All level-n quotient-tower points with coordinates in the field.

    The level-2 seed Z_2 ranges over the field minus the degenerate
    value -1; each later coordinate solves the degree-q recursion, found
    by one bucketed walk over the whole field.  Every point is checked
    against the recursion before it is returned.
    """
    coords = zip(*(field.elements_at(c) for c in x0_columns(q, n, field)))
    return [X0Point._checked_elsewhere(q, zs) for zs in coords]


def degenerate_z_skips(q: int, n: int, field: FieldSpec) -> int:
    """How many branches of the level-n quotient enumeration land on the
    excluded value Z = -1.

    The excluded seed counts once; past that, a branch reaches -1 only
    from a tuple whose last coordinate makes the recursion's right side
    vanish.  Reported as a diagnostic next to the point counts; taken
    from the same walk as enumerate_x0.
    """
    if n < 2:
        raise ValueError("the quotient tower starts at level 2")
    return _x0_walk(q, n, field)[1]


@functools.lru_cache(maxsize=64)
def supersingular_z_values(q: int, k1: FieldSpec) -> tuple:
    """The q supersingular Z-values inside GF(q^2).

    Three descriptions must coincide: the (q+1)-st roots of unity other
    than -1, the solutions of Z(1+Z)^(q-1) = 1, and the solutions of
    Z^q = (1+Z)^(q-1).  Disagreement would mean a broken field layer,
    so it raises rather than returning.
    """
    if k1.size != q * q:
        raise ValueError(f"{k1!r} is not GF({q}^2)")
    one = k1.one()
    minus_one = -one
    roots = {z for z in k1.elements()
             if z ** (q + 1) == one and z != minus_one}
    closed = {z for z in k1.elements() if z * (one + z) ** (q - 1) == one}
    balanced = {z for z in k1.elements()
                if z.frobenius(q) == (one + z) ** (q - 1)}
    if not (roots == closed == balanced) or len(roots) != q:
        raise RuntimeError(
            "the three descriptions of the supersingular Z-set disagree")
    return tuple(sorted(roots, key=FieldElement.to_int))


# ---------------------------------------------------------------------------
# torsion-generator descent
# ---------------------------------------------------------------------------

def verify_descent(pt: TowerPoint, y: FieldElement) -> bool:
    """Check the induction that threads torsion generators down the tower.

    Precondition: y solves chain_{n-1}(y) = x_n for the depth-(n-1)
    kernel chain of the point (violations raise).  The claim being
    verified is that applying the T-action torsion_poly(x_1) to y gives
    a solution of the level-(n-1) equation, i.e.

        chain_{n-2}(torsion_poly(x_1)(y)) = x_{n-1},

    and that every consecutive pair of coordinates satisfies the swap
    identity cofactor*kernel_line at x_j equals kernel_line*cofactor at
    x_{j-1}, both being torsion_poly(x_j).
    """
    n = pt.level
    if n < 2:
        raise ValueError("descent needs a point of level at least 2")
    q = pt.q
    spec = y.spec
    coords = [embed(x, spec) if x.spec != spec else x for x in pt.coords]

    chain = pt.kernel_chain_poly(n - 1).map_to(spec)
    if chain(y) != coords[-1]:
        raise ValueError("y does not generate the torsion group of pt")

    for xa, xb in zip(coords, coords[1:]):
        swap_a = cofactor_poly(xb, q) * kernel_line_poly(xb, q)
        swap_b = kernel_line_poly(xa, q) * cofactor_poly(xa, q)
        if not (swap_a == swap_b == torsion_poly(xb, q)):
            return False

    y_down = torsion_poly(coords[0], q)(y)
    if n == 2:
        return y_down == coords[0]
    chain_down = pt.kernel_chain_poly(n - 2).map_to(spec)
    return chain_down(y_down) == coords[-2]
