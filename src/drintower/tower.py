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
directly.  The children of a row depend only on its last coordinate, so
both walks share one shape, over arrays of integer encodings (see
finite_field).  Each tower gives its level-2 columns (the solved edges
of x', the allowed Z of x0), one bucket index, and a key function of a
block of the last column (the coordinate itself for x', the right side
of the recursion for x0).  _walk then runs _expand n - 2 times, each in
blocks of parent rows into columns allocated once at their known
length, keeping the rows in lexicographic order, and _checked applies
the tower's row mask block by block.  A count builds no row: it carries
one weight per field element from level to level by exact integer
scatter-adds, the number of rows ending in x (x', over the solved
edges) or whose last Z has a given right side (x0, whose edges s -> t
are f(t) = g(s) for the two sides f and g of the recursion).  So
x0_count and xprime_count hold two weight arrays beside the tables at
every level, and x' its edges too.
"""

from __future__ import annotations

from typing import Optional

from .drinfeld import DrinfeldModule
from .finite_field import (
    CapExceededError,
    FieldElement,
    FieldSpec,
    _chunks,
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


class _Point:
    """A tuple of coordinates in one field, for a given q.  Points are
    equal when their type, q and coordinates are; each subclass checks
    its coordinates in __init__."""

    __slots__ = ("q", "coords")

    @classmethod
    def _checked_elsewhere(cls, q: int, coords: tuple):
        """A point whose coordinates the caller has already validated."""
        pt = object.__new__(cls)
        pt.q = q
        pt.coords = coords
        return pt

    @property
    def spec(self) -> FieldSpec:
        return self.coords[0].spec

    def ints(self) -> tuple:
        return tuple(x.to_int() for x in self.coords)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.q, self.coords) == (other.q, other.coords)

    def __hash__(self):
        return hash((self.q, self.coords))

    def __repr__(self):
        return f"{type(self).__name__}(q={self.q}, {self.serialize()})"

    def serialize(self) -> list:
        return [x.serialize() for x in self.coords]


class TowerPoint(_Point):
    """Affine point (x_1, ..., x_n) of the level-n tower curve.

    All coordinates are nonzero elements of one field and consecutive
    ones satisfy the defining relation; both facts are checked at
    construction.  Level 1 is the bare x_1-line and serves as the
    enumeration seed.
    """

    __slots__ = ()

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

    @property
    def level(self) -> int:
        return len(self.coords)

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

class X0Point(_Point):
    """Point (Z_2, ..., Z_n) of the level-n quotient tower."""

    __slots__ = ()

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
        self.coords = zcoords

    @property
    def level(self) -> int:
        return len(self.coords) + 1

    @property
    def zcoords(self) -> tuple:
        """The coordinates (Z_2, ..., Z_n), read-only."""
        return self.coords

    def is_supersingular(self) -> bool:
        """All coordinates are (q+1)-st roots of unity other than -1."""
        one = self.spec.one()
        return all(z ** (self.q + 1) == one for z in self.coords)


# ---------------------------------------------------------------------------
# enumeration: whole-field array walks over integer encodings
# ---------------------------------------------------------------------------

def _bucket_starts(sources, size: int):
    """The offsets of a bucket index (int32, size plus one): the running
    count of the edge sources below each encoding."""
    import numpy as np
    starts = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(sources, minlength=size), out=starts[1:])
    return starts


def _expand(cols: list, starts, members, key) -> list:
    """The rows of cols, each followed by every member of its key's bucket.

    key maps a block of the last column to bucket keys.  Bucket k is
    members[starts[k]:starts[k + 1]], where starts comes from
    _bucket_starts, so a lookup is two reads, with no search.  Rows given
    in lexicographic order come out in lexicographic order without a
    sort: each row's children follow it in row order, and every bucket
    lists its members in ascending order.  The columns are allocated once
    at the summed bucket widths and filled one _chunks block of rows at a
    time, so every temporary, the keys too, is the size of a block.
    """
    import numpy as np
    last = cols[-1]
    total = 0
    for rows in _chunks(len(last)):
        keys = key(last[rows])
        total += int((starts[keys + 1] - starts[keys]).sum())
    out = [np.empty(total, dtype=np.int64) for _ in range(len(cols) + 1)]
    end = 0
    for rows in _chunks(len(last)):
        keys = key(last[rows])
        lo = starts[keys]
        width = starts[keys + 1] - lo
        start, end = end, end + int(width.sum())
        parent = np.repeat(np.arange(rows.start, rows.stop), width)
        # a row's children start at block position cumsum(width) - width
        offset = np.repeat(lo - (np.cumsum(width) - width), width)
        offset += np.arange(end - start)
        for c, o in zip(cols, out):
            np.take(c, parent, out=o[start:end])
        np.take(members, offset, out=out[-1][start:end])
    return out


def _walk(n: int, cols: list, index, key) -> list:
    """The level-n rows grown from the level-2 columns by n - 2 _expand
    steps: index() builds the bucket index (starts, members), only when
    a step needs it, and key maps a block of the last column to bucket
    keys."""
    if n > 2:
        starts, members = index()
        for _ in range(n - 2):
            cols = _expand(cols, starts, members, key)
    return cols


def _checked(cols: list, mask, failure: str) -> tuple:
    """The columns, read-only, once mask(block) accepts every row of each
    _chunks block of rows; else RuntimeError(failure)."""
    for rows in _chunks(len(cols[0])):
        if not mask([c[rows] for c in cols]).all():
            raise RuntimeError(failure)
    for c in cols:
        c.flags.writeable = False
    return tuple(cols)


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


def _solvable_blocks(q: int, field: FieldSpec, solver):
    """Yields (x, x^(q+1)) for each _chunks block of nonzero x: the x, in
    ascending order, at which z^q + z = x^(q+1) has a solution, by the
    solver of _trace_map(q, field).  The caller builds the tables."""
    import numpy as np
    for rows in _chunks(field.size - 1):
        x = np.arange(rows.start + 1, rows.stop + 1, dtype=np.int64)
        rhs = field.power_product((x, q + 1))
        ok = solver.consistent_ints(rhs)
        yield x[ok], rhs[ok]


def _xprime_edge_blocks(q: int, field: FieldSpec):
    """The edges x -> z/x with z^q + z = x^(q+1), solved one _chunks
    block of nonzero x at a time.

    z -> z^q + z is GF(p)-linear, so the solutions are one matrix
    product plus the q kernel elements, and none is 0 as x is not.
    Yields (x, t): the solvable x of the block in ascending order, and
    the (len(x), q) matrix of their targets, each row unsorted.  The
    caller checks the field and builds its tables.
    """
    import numpy as np
    solver = _solver_for(_trace_map(q, field), field)
    kernel = np.array(solver.nullspace_ints(), dtype=np.int64)
    for x, rhs in _solvable_blocks(q, field, solver):
        z = field.add_ints(np.repeat(solver.solve_ints(rhs), len(kernel)),
                           np.tile(kernel, len(x)))
        t = field.power_product((z, 1), (np.repeat(x, len(kernel)), -1))
        yield x, t.reshape(-1, len(kernel))


def _xprime_edges(q: int, field: FieldSpec) -> tuple:
    """The level-2 rows as (source, target) columns in (source, target)
    order: the sources of _xprime_edge_blocks ascend, and each source's
    targets are sorted.

    The columns are allocated once, at the Hermitian count
    q^(2m) - q - q(q-1)(-q)^m of edges over GF(q^(2m)), and filled block
    by block; blocks that overrun that count or end short of it raise.
    """
    import numpy as np
    _check_coordinate_field(q, field)
    field.tables()  # before anything of field size is allocated
    m = field.m // (2 * prime_power(q)[1])
    total = field.size - q - q * (q - 1) * (-q) ** m
    source = np.empty(total, dtype=np.int64)
    target = np.empty(total, dtype=np.int64)
    end = 0
    for x, t in _xprime_edge_blocks(q, field):
        start, end = end, end + t.size
        if end > total:
            raise RuntimeError(f"the level-2 edges pass their count {total}")
        source[start:end] = np.repeat(x, t.shape[1])
        target[start:end] = np.sort(t, axis=1).ravel()
    if end != total:
        raise RuntimeError(f"the level-2 edges number {end}, not {total}")
    return source, target


def xprime_columns(q: int, n: int, field: FieldSpec) -> tuple:
    """The points of enumerate_xprime as read-only coordinate columns:
    one int64 array of integer encodings per coordinate.

    The edges are the level-2 rows, and their sources index the buckets
    of every later level, keyed by the last coordinate itself.
    """
    if n < 2:
        raise ValueError("the tower starts at level 2")
    source, target = _xprime_edges(q, field)
    cols = _walk(n, [source, target],
                 lambda: (_bucket_starts(source, field.size), target),
                 lambda x: x)
    return _checked(cols, lambda rows: xprime_relation_mask(q, field, rows),
                    "an enumerated point fails the tower relation")


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


def _x0_walk(q: int, n: int, field: FieldSpec) -> list:
    """The quotient walk, unchecked.

    Z_2 ranges over the field minus -1.  Each later coordinate solves
    Z_{j+1} (1+Z_{j+1})^(q-1) = rhs(Z_j): the allowed values are grouped
    by their left side once, in ascending order within each bucket (the
    argsort is stable), and _expand gives every row the bucket of its
    right side.  Both sides are computed _CHUNK values at a time.
    """
    import numpy as np
    if n < 2:
        raise ValueError("the quotient tower starts at level 2")
    _check_coordinate_field(q, field)
    field.tables()  # before anything of field size is allocated
    minus_one = field.p - 1  # encoding of the prime-field constant -1
    allowed = np.delete(np.arange(field.size, dtype=np.int64), minus_one)

    def index():
        keys = np.empty(len(allowed), dtype=np.int64)
        for rows in _chunks(len(allowed)):
            keys[rows] = _z_forward(q, field, allowed[rows])
        return (_bucket_starts(keys, field.size),
                allowed[np.argsort(keys, kind="stable")])

    return _walk(n, [allowed], index, lambda z: _z_backward(q, field, z))


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
    return _checked(_x0_walk(q, n, field),
                    lambda rows: x0_recursion_mask(q, field, rows),
                    "an enumerated point fails the quotient recursion")


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
    excluded value Z = -1: n - 1, in every field.

    The excluded seed counts once.  Past it, a branch reaches -1, where
    the left side Z (1+Z)^(q-1) is 0, only from a right side
    Z^q / (1+Z)^(q-1) of 0, that is from a row ending in Z = 0; and the
    one allowed child of 0 is 0 again.  So the all-zero row loses one
    branch at each of the n - 2 steps past level 2.
    """
    if n < 2:
        raise ValueError("the quotient tower starts at level 2")
    _check_coordinate_field(q, field)
    return n - 1


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
# counting: transfer weights, one per field element
# ---------------------------------------------------------------------------

def _weight_dtype(q: int, n: int, field: FieldSpec):
    """The dtype of the weights of a level-n count over the field: int32
    while q^(n-1) < 2^31, else int64.

    Both recursions have degree q, so a level-n count is at most
    q^(n-1) (|F| - 1), and a weight, which counts the rows ending in
    one key, at most q^(n-2).  Raises CapExceededError when the count
    bound passes 2^63 - 1, where no int64 sum is exact.
    """
    import numpy as np
    if q ** (n - 1) * (field.size - 1) > 2**63 - 1:
        raise CapExceededError(
            f"a level-{n} count over {field.p}^{field.m} can exceed "
            f"2^63 - 1 points")
    return np.int32 if q ** (n - 1) < 2**31 else np.int64


def _checked_keys(keys, size: int):
    if len(keys) and (keys.min() < 0 or keys.max() >= size):
        raise RuntimeError("a transfer key lies outside the field")
    return keys


def _transfer(blocks, size: int, dtype, weights, gather, scatter):
    """One step of a count by transfer weights.

    Every block lists edges s -> t: gather(block) gives the keys of the
    sources, scatter(block) those of the targets.  Each edge carries
    weights[gather key] (1 with weights None), summed exactly by
    np.add.at into a new accumulator indexed by scatter key (None with
    scatter None).  Returns the accumulator and the total weight
    carried, which must equal the accumulator's sum.
    """
    import numpy as np
    out = None if scatter is None else np.zeros(size, dtype=dtype)
    total = 0
    for block in blocks:
        if weights is None:
            w = np.ones(len(block), dtype=dtype)
        else:
            w = weights[_checked_keys(gather(block), size)]
        total += int(w.sum(dtype=np.int64))
        if out is not None:
            np.add.at(out, _checked_keys(scatter(block), size), w)
    if out is not None and int(out.sum(dtype=np.int64)) != total:
        raise RuntimeError("transfer weights were lost in a scatter")
    return out, total


def _count(n: int, blocks, size: int, dtype, gather, scatter) -> int:
    """The number of level-n rows: n - 2 steps of _transfer carry the
    weights from the level-2 rows up to level n - 1, over the edge
    blocks that blocks() lists afresh each time, and a last step sums
    them over the edges into level n."""
    weights = None
    for _ in range(n - 2):
        weights, _ = _transfer(blocks(), size, dtype, weights, gather,
                               scatter)
    return _transfer(blocks(), size, dtype, weights, gather, None)[1]


def xprime_count(q: int, n: int, field: FieldSpec) -> int:
    """The number of points of xprime_columns(q, n, field), from
    transfer weights.

    The weight of x at level j is the number of level-j rows ending in
    x.  The edges are solved once, and each is checked against the
    tower relation; they are kept as int32 (source, target) pairs in
    their solve blocks, unsorted, except at n = 2, whose count is their
    number.
    """
    import numpy as np
    if n < 2:
        raise ValueError("the tower starts at level 2")
    _check_coordinate_field(q, field)
    dtype = _weight_dtype(q, n, field)
    field.tables()  # before anything of field size is allocated
    edges, total = [], 0
    for x, t in _xprime_edge_blocks(q, field):
        pairs = np.column_stack((np.repeat(x, t.shape[1]), t.ravel()))
        if not xprime_relation_mask(q, field, pairs.T).all():
            raise RuntimeError("an edge fails the tower relation")
        total += len(pairs)
        if n > 2:
            edges.append(pairs.astype(np.int32))
    if n == 2:
        return total
    return _count(n, lambda: iter(edges), field.size, dtype,
                  lambda e: e[:, 0], lambda e: e[:, 1])


def _x0_nodes(q: int, field: FieldSpec, supersingular: bool):
    """The allowed Z, every value but -1, one _chunks block at a time;
    with supersingular, only those with Z^(q+1) = 1."""
    import numpy as np
    for rows in _chunks(field.size):
        z = np.arange(rows.start, rows.stop, dtype=np.int64)
        keep = z != field.p - 1
        if supersingular:
            keep &= field.power_product((z, q + 1)) == 1
        yield z[keep]


def x0_count(q: int, n: int, field: FieldSpec,
             supersingular: bool = False) -> int:
    """The number of points of x0_columns(q, n, field), from transfer
    weights; with supersingular, of those x0_supersingular_mask keeps.

    The recursion has an edge s -> t exactly when f(t) = g(s), for
    f = _z_forward and g = _z_backward, so the weights are indexed by
    key: entry k at level j is the number of level-j rows whose last
    coordinate has g = k.  Each step gathers the weight at f(t) and
    adds it at g(t) for every allowed t, and f and g are computed
    afresh for each _chunks block of t.  Beside the tables, the count
    holds two field-sized arrays, the weights of two levels.
    """
    if n < 2:
        raise ValueError("the quotient tower starts at level 2")
    _check_coordinate_field(q, field)
    dtype = _weight_dtype(q, n, field)
    field.tables()  # before anything of field size is allocated
    return _count(n, lambda: _x0_nodes(q, field, supersingular),
                  field.size, dtype, lambda z: _z_forward(q, field, z),
                  lambda z: _z_backward(q, field, z))


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
