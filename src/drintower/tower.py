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

and generate the quotient tower, which is walked directly.  The children
of a row depend only on its last coordinate, so both towers share one
shape, over arrays of integer encodings (see finite_field), and one
frozen Tower in TOWERS describes each: its level-2 columns (the solved
edges of x', the allowed Z of x0), one bucket index, a key function of
a block of the last column (the coordinate itself for x', the right
side of the recursion for x0), its row masks, and the seed mask and
multiplier of its count.  _walk runs _expand n - 2 times, each in
blocks of parent rows into columns allocated once at their known
length, keeping the rows in lexicographic order, and columns applies
the row mask block by block; enumerate_xprime and enumerate_x0 make
points of those rows.  count builds no row and solves nothing: it
carries one weight per field element from level to level by exact
integer scatter-adds, the number of quotient rows whose last Z has a
given right side (the edges s -> t are f(t) = g(s) for the two sides f
and g of the recursion), and counts x' as q^2 - 1 times the quotient
rows whose Z_2 lifts.  So a count of either tower holds two weight
arrays beside the tables at every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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


def _xprime_edges(q: int, field: FieldSpec) -> list:
    """The level-2 rows as [source, target] columns in (source, target)
    order: the edges x -> z/x with z^q + z = x^(q+1), solved one _chunks
    block of nonzero x at a time.

    z -> z^q + z is GF(p)-linear, so the solutions are one particular
    solution, from one solve_map of the solver of _trace_map(q, field)
    for the pass, plus the q kernel elements, and none is 0 as x is
    not.  The columns are allocated once, at the Hermitian count
    q^(2m) - q - q(q-1)(-q)^m of edges over GF(q^(2m)), and filled
    block by block; blocks that overrun that count or end short of it
    raise.  The caller checks the field and builds its tables.
    """
    import numpy as np
    m = field.m // (2 * prime_power(q)[1])
    total = field.size - q - q * (q - 1) * (-q) ** m
    source = np.empty(total, dtype=np.int64)
    target = np.empty(total, dtype=np.int64)
    solver = _solver_for(_trace_map(q, field), field)
    kernel = np.array(solver.nullspace_ints(), dtype=np.int64)
    solve = solver.solve_map()
    end = 0
    for rows in _chunks(field.size - 1):
        x = np.arange(rows.start + 1, rows.stop + 1, dtype=np.int64)
        ok, z = solve(field.power_product((x, q + 1)))
        x, z = x[ok], z[ok]
        start, end = end, end + len(x) * q
        if end > total:
            raise RuntimeError(f"the level-2 edges pass their count {total}")
        z = field.add_ints(np.repeat(z, q), np.tile(kernel, len(x)))
        source[start:end] = np.repeat(x, q)
        t = field.power_product((z, 1), (source[start:end], -1))
        target[start:end] = np.sort(t.reshape(-1, q), axis=1).ravel()
    if end != total:
        raise RuntimeError(f"the level-2 edges number {end}, not {total}")
    return [source, target]


def project_columns_to_x0(q: int, field: FieldSpec, cols) -> tuple:
    """Column form of TowerPoint.project_to_x0: the Z-columns
    (x_{j-1} x_j)^(q-1) of consecutive coordinate columns."""
    return tuple(field.power_product((a, q - 1), (b, q - 1))
                 for a, b in zip(cols, cols[1:]))


def xprime_supersingular_mask(q: int, field: FieldSpec, cols):
    """Boolean row mask of the supersingular points among coordinate
    columns of the x' tower: x_1^(q^2) = x_1.

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


def _one_plus(field: FieldSpec, z):
    """1 + Z: only the lowest digit changes, and a lowest digit p - 1
    wraps to 0."""
    p = field.p
    if p == 2:
        return z ^ 1
    return z + 1 - p * (z % p == p - 1)


def _z_forward(q: int, field: FieldSpec, z):
    """Z (1+Z)^(q-1), the left side of the quotient recursion."""
    return field.power_product((z, 1), (_one_plus(field, z), q - 1))


def _z_backward(q: int, field: FieldSpec, z):
    """Z^q / (1+Z)^(q-1), the right side of the quotient recursion."""
    return field.power_product((z, q), (_one_plus(field, z), 1 - q))


def _x0_seeds(q: int, field: FieldSpec) -> list:
    """The level-2 column of the quotient tower: Z_2 over F minus -1."""
    import numpy as np
    return [np.delete(np.arange(field.size, dtype=np.int64), field.p - 1)]


def _x0_index(q: int, field: FieldSpec, cols) -> tuple:
    """The allowed values (the level-2 column) grouped by their left side
    Z (1+Z)^(q-1), computed _CHUNK values at a time, in ascending order
    within each bucket (the argsort is stable)."""
    import numpy as np
    allowed = cols[0]
    keys = np.empty(len(allowed), dtype=np.int64)
    for rows in _chunks(len(allowed)):
        keys[rows] = _z_forward(q, field, allowed[rows])
    return (_bucket_starts(keys, field.size),
            allowed[np.argsort(keys, kind="stable")])


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


def x0_supersingular_mask(q: int, field: FieldSpec, cols):
    """Boolean row mask of the supersingular points among Z-columns of
    the quotient tower: every Z^(q+1) = 1, as X0Point.is_supersingular
    tests."""
    import numpy as np
    return np.logical_and.reduce(
        [field.power_product((c, q + 1)) == 1 for c in cols])


def _lifting_z(q: int, field: FieldSpec, z):
    """Mask of the Z_2 of a block under which x' rows lie: f(Z) =
    Z(1+Z)^(q-1) is a nonzero (q^2-1)-th power.  Tested on logs, f is
    never built: log f(Z) = log Z + (q-1) log(1+Z) mod |F| - 1, and
    q^2 - 1 divides |F| - 1, so the mask keeps the Z with Z != 0,
    1+Z != 0 and (log Z + (q-1) log(1+Z)) % (q^2-1) == 0.

    Over GF(q^2) these must be exactly the q supersingular values, the
    (q+1)-st roots of unity other than -1, else RuntimeError.
    """
    import numpy as np
    log = field.tables()[1]
    w = _one_plus(field, z)
    k = (q - 1) * log[w].astype(np.int64) + log[z]
    keep = (z != 0) & (w != 0) & (k % (q * q - 1) == 0)
    if field.size == q * q and not (
            keep == x0_supersingular_mask(q, field, [z])
            & (z != field.p - 1)).all():
        raise RuntimeError(
            "the lifting Z over GF(q^2) are not the supersingular values")
    return keep


@dataclass(frozen=True)
class Tower:
    """One tower as its walk, checks and count see it; every callable
    takes q and the field first.  A walk grows the columns level2 by the
    buckets of index(level-2 columns), keyed by key(last coordinate);
    its rows are points of class point, under headers letter + index.
    mask accepts the rows of points, failure names a rejected row, and
    supersingular_mask keeps the supersingular_closed_form(q, n) rows
    over GF(q^2).  A count walks the quotient tower from the Z_2 that
    seed_mask keeps in a block and multiplies by multiplier(q).
    degenerate_z: the walk leaves out Z = -1.
    """

    letter: str
    point: type
    level2: Callable
    index: Callable
    key: Callable
    mask: Callable
    failure: str
    supersingular_mask: Callable
    supersingular_closed_form: Callable
    seed_mask: Callable
    multiplier: Callable
    degenerate_z: bool


TOWERS = {
    "xprime": Tower(
        "x", TowerPoint, _xprime_edges,
        lambda q, field, cols: (_bucket_starts(cols[0], field.size),
                                cols[1]),
        lambda q, field, x: x, xprime_relation_mask,
        "an enumerated point fails the tower relation",
        xprime_supersingular_mask, lambda q, n: (q * q - 1) * q ** (n - 1),
        _lifting_z, lambda q: q * q - 1, degenerate_z=False),
    "x0": Tower(
        "Z", X0Point, _x0_seeds, _x0_index, _z_backward, x0_recursion_mask,
        "an enumerated point fails the quotient recursion",
        x0_supersingular_mask, lambda q, n: q ** (n - 1),
        lambda q, field, z: z != field.p - 1, lambda q: 1,
        degenerate_z=True),
}


def _walk(tower: Tower, q: int, n: int, field: FieldSpec) -> list:
    """The level-n rows of the tower, unchecked: its level-2 columns
    grown by n - 2 _expand steps over its one bucket index."""
    if n < 2:
        raise ValueError("the tower starts at level 2")
    _check_coordinate_field(q, field)
    field.tables()  # before anything of field size is allocated
    cols = tower.level2(q, field)
    if n > 2:
        starts, members = tower.index(q, field, cols)
        for _ in range(n - 2):
            cols = _expand(cols, starts, members,
                           lambda last: tower.key(q, field, last))
    return cols


def columns(tower: Tower, q: int, n: int, field: FieldSpec) -> tuple:
    """The level-n points of the tower as read-only int64 columns of
    integer encodings, rows in lexicographic order, once tower.mask
    accepts each _chunks block of rows; else RuntimeError(failure)."""
    cols = _walk(tower, q, n, field)
    for rows in _chunks(len(cols[0])):
        if not tower.mask(q, field, [c[rows] for c in cols]).all():
            raise RuntimeError(tower.failure)
    for c in cols:
        c.flags.writeable = False
    return tuple(cols)


def _enumerate(tower: Tower, q: int, n: int, field: FieldSpec) -> list:
    coords = zip(*(field.elements_at(c)
                   for c in columns(tower, q, n, field)))
    return [tower.point._checked_elsewhere(q, xs) for xs in coords]


def enumerate_xprime(q: int, n: int, field: FieldSpec) -> list:
    """All level-n points with every coordinate in the given field.

    Seeds x_1 over the nonzero elements and extends one coordinate at a
    time over the whole frontier at once; the result is sorted
    lexicographically by coordinate index.  Every point is checked
    against the tower relation before it is returned.
    """
    return _enumerate(TOWERS["xprime"], q, n, field)


def enumerate_x0(q: int, n: int, field: FieldSpec) -> list:
    """All level-n quotient-tower points with coordinates in the field.

    The level-2 seed Z_2 ranges over the field minus the degenerate
    value -1; each later coordinate solves the degree-q recursion, found
    by one bucketed walk over the whole field.  Every point is checked
    against the recursion before it is returned.
    """
    return _enumerate(TOWERS["x0"], q, n, field)


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
    bound passes 2^63 - 1, where no int64 sum is exact: at every n >= 63
    without computing it, as it is at least 3 * 2^(n-1) there.
    """
    import numpy as np
    if n >= 63 or q ** (n - 1) * (field.size - 1) > 2**63 - 1:
        raise CapExceededError(
            f"a level-{n} count over {field.p}^{field.m} can exceed "
            f"2^63 - 1 points")
    return np.int32 if q ** (n - 1) < 2**31 else np.int64


def _checked_keys(keys, size: int):
    if len(keys) and (keys.min() < 0 or keys.max() >= size):
        raise RuntimeError("a transfer key lies outside the field")
    return keys


def _transfer(q: int, field: FieldSpec, blocks, dtype, weights,
              scatter: bool) -> tuple:
    """One step of a count by transfer weights over the Z of the blocks:
    each Z carries weights[f(Z)] (1 with weights None), summed exactly by
    np.add.at into a new accumulator indexed by g(Z) (None without
    scatter), for the sides f = _z_forward and g = _z_backward of the
    recursion.  Returns it and the total weight carried, which must
    equal its sum."""
    import numpy as np
    size = field.size
    out = np.zeros(size, dtype=dtype) if scatter else None
    total = 0
    for z in blocks:
        if weights is None:
            w = np.ones(len(z), dtype=dtype)
        else:
            w = weights[_checked_keys(_z_forward(q, field, z), size)]
        total += int(w.sum(dtype=np.int64))
        if scatter:
            np.add.at(out, _checked_keys(_z_backward(q, field, z), size), w)
    if scatter and int(out.sum(dtype=np.int64)) != total:
        raise RuntimeError("transfer weights were lost in a scatter")
    return out, total


def count(tower: Tower, q: int, n: int, field: FieldSpec,
          supersingular: bool = False) -> int:
    """The number of rows of columns(tower, q, n, field), from transfer
    weights over the quotient tower; with supersingular, of those
    tower.supersingular_mask keeps, every step keeping only the Z with
    Z^(q+1) = 1.

    The weight of k at level j counts the quotient rows of level j whose
    last Z has g(Z) = k.  A first _transfer step puts weight 1 on each
    Z_2 of tower.seed_mask, n - 3 more carry the weights to level n - 1,
    and a last one sums them into level n, times tower.multiplier.  So a
    count of either tower holds two weight arrays beside the tables.

    x' is the lift of x0.  With z_j = x_{j-1} x_j and Z_j = z_j^(q-1),
    z_j^q = Z_j z_j, so the relation reads z_j (1 + Z_j) = x_{j-1}^(q+1),
    whose (q-1)-th power is f(Z_j) = x_{j-1}^(q^2-1): x_1^(q^2-1) = f(Z_2).
    Conversely, given an x0 row and x_1 in F* with x_1^(q^2-1) = f(Z_2),
    z_2 = x_1^(q+1)/(1+Z_2) and x_2 = z_2/x_1 give x_2^(q^2-1) = g(Z_2)
    = f(Z_3), so the row lifts level by level, uniquely once x_1 is
    chosen.  As q^2 - 1 divides |F| - 1, x -> x^(q^2-1) is (q^2-1)-to-one
    onto the (q^2-1)-th powers of F*, so

        #x'_n(F) = (q^2 - 1) #{x0 rows of level n with Z_2 != 0 and
                               f(Z_2) a (q^2-1)-th power in F*},

    the lifts of a row being one orbit of the GF(q^2)* scaling.
    """
    import numpy as np
    if n < 2:
        raise ValueError("the tower starts at level 2")
    _check_coordinate_field(q, field)
    dtype = _weight_dtype(q, n, field)
    field.tables()  # before anything of field size is allocated

    def blocks(seeds: bool):
        for rows in _chunks(field.size):
            z = np.arange(rows.start, rows.stop, dtype=np.int64)
            keep = tower.seed_mask(q, field, z) if seeds \
                else z != field.p - 1
            if supersingular:
                keep &= x0_supersingular_mask(q, field, [z])
            yield z[keep]

    weights = None
    for scatter in [True] * (n - 2) + [False]:
        weights, total = _transfer(q, field, blocks(weights is None),
                                   dtype, weights, scatter)
    return tower.multiplier(q) * total


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
