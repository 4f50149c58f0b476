"""The twisted polynomial ring of q-linearized polynomials.

A polynomial with coefficient list (l0, ..., l_d) over a field L acts on
any extension of L by X -> sum(l_i * X^(q^i)); that action is linear
over the size-q subfield.  The ring product is composition of these
maps, so multiplication twists coefficients through the q-power
Frobenius:

    (u * v)_n = sum over i + j = n of u_i * v_j^(q^i)

which encodes the defining relation tau * a = a^q * tau for the
Frobenius generator tau.

Kernels and preimages inside a chosen finite field are computed by
GF(p) linear algebra on the matrix of the evaluation map, never by
enumerating the field, so they remain cheap in fields of size well
beyond the enumeration cap.  Since every root set here lives in some
finite extension, splitting_field() searches extension degrees
sequentially until the kernel reaches its separable-degree bound.
"""

from __future__ import annotations

import functools
import warnings
from typing import Iterable, Optional

from .finite_field import (
    CapExceededError,
    DEFAULT_CAP,
    FieldElement,
    FieldSpec,
    GFpSolver,
    embed,
    make_field,
    prime_power,
    subfield_elements,
)

# materializing a kernel with more elements than this is refused;
# the nullspace basis itself has no such limit
_KERNEL_ENUM_LIMIT = 2**16


class InseparableKernelWarning(UserWarning):
    """Root sets of inseparable polynomials lose multiplicity structure."""


class LinearizedPoly:
    """Immutable element of the twisted polynomial ring over a FieldSpec."""

    __slots__ = ("q", "spec", "coeffs")

    def __init__(self, q: int, coeffs: Iterable[FieldElement],
                 spec: Optional[FieldSpec] = None):
        coeffs = tuple(coeffs)
        if spec is None:
            if not coeffs:
                raise ValueError("zero polynomial needs an explicit spec")
            spec = coeffs[0].spec
        pr = prime_power(q)
        if pr is None or pr[0] != spec.p or spec.m % pr[1]:
            raise ValueError(
                f"q={q} is not compatible with coefficients in {spec!r}")
        for c in coeffs:
            if c.spec != spec:
                raise ValueError("coefficients lie in different fields")
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        self.q = q
        self.spec = spec
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_ints(cls, q: int, spec: FieldSpec, ints: Iterable[int]):
        return cls(q, [spec.constant(c) for c in ints], spec)

    @classmethod
    def zero(cls, q: int, spec: FieldSpec):
        return cls(q, (), spec)

    @classmethod
    def identity(cls, q: int, spec: FieldSpec):
        return cls(q, (spec.one(),), spec)

    @classmethod
    def constant(cls, c: FieldElement, q: int):
        """The map X -> c*X."""
        return cls(q, (c,), c.spec)

    @classmethod
    def tau(cls, q: int, spec: FieldSpec, e: int = 1):
        """The map X -> X^(q^e)."""
        return cls(q, (spec.zero(),) * e + (spec.one(),), spec)

    # -- structure ------------------------------------------------------------

    @property
    def tau_degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_separable(self) -> bool:
        return bool(self.coeffs) and bool(self.coeffs[0])

    def __eq__(self, other):
        if not isinstance(other, LinearizedPoly):
            return NotImplemented
        return (self.q, self.spec, self.coeffs) == \
            (other.q, other.spec, other.coeffs)

    def __hash__(self):
        return hash((self.q, self.spec, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return f"LinearizedPoly(q={self.q}, 0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mon = "X" if i == 0 else f"X^{self.q}" if i == 1 \
                else f"X^{self.q}^{i}"
            parts.append(f"({c.serialize()})*{mon}")
        return f"LinearizedPoly(q={self.q}, " + " + ".join(parts) + ")"

    def serialize(self) -> dict:
        return {"q": self.q, "field": self.spec.serialize(),
                "tau_degree": self.tau_degree,
                "coeffs": [c.serialize() for c in self.coeffs]}

    def map_to(self, target: FieldSpec) -> "LinearizedPoly":
        """The same polynomial with coefficients embedded in a larger field."""
        if target == self.spec:
            return self
        return LinearizedPoly(
            self.q, [embed(c, target) for c in self.coeffs], target)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        self._check_compatible(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.spec.zero()
        a = self.coeffs + (z,) * (n - len(self.coeffs))
        b = other.coeffs + (z,) * (n - len(other.coeffs))
        return LinearizedPoly(self.q, [x + y for x, y in zip(a, b)],
                              self.spec)

    def __neg__(self):
        return LinearizedPoly(self.q, [-c for c in self.coeffs], self.spec)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: FieldElement) -> "LinearizedPoly":
        """Left scalar multiple, the map X -> c * self(X)."""
        if c.spec != self.spec:
            raise ValueError("scalar lies in a different field")
        return LinearizedPoly(self.q, [c * x for x in self.coeffs],
                              self.spec)

    def __mul__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        """Twisted product: (self * other)(x) = self(other(x))."""
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return LinearizedPoly.zero(self.q, self.spec)
        q = self.q
        out = [self.spec.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ui in enumerate(self.coeffs):
            if not ui:
                continue
            for j, vj in enumerate(other.coeffs):
                if vj:
                    out[i + j] = out[i + j] + ui * vj.frobenius(q, i)
        return LinearizedPoly(q, out, self.spec)

    def __pow__(self, n: int) -> "LinearizedPoly":
        """n-fold composition power."""
        if n < 0:
            raise ValueError("negative composition powers are not defined")
        result = LinearizedPoly.identity(self.q, self.spec)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _check_compatible(self, other):
        if not isinstance(other, LinearizedPoly):
            raise TypeError("expected a LinearizedPoly")
        if self.q != other.q:
            raise ValueError(f"mixed q values {self.q} and {other.q}")
        if self.spec != other.spec:
            raise ValueError(
                "coefficient fields differ; use map_to on one operand")

    # -- evaluation --------------------------------------------------------------

    def __call__(self, x: FieldElement) -> FieldElement:
        u, x = self._align(x)
        acc = x.spec.zero()
        power = x
        for i, c in enumerate(u.coeffs):
            if i:
                power = power.frobenius(u.q)
            if c:
                acc = acc + c * power
        return acc

    def _align(self, x: FieldElement):
        """Embed coefficients or the point so both live in one field."""
        if x.spec == self.spec:
            return self, x
        if x.spec.p != self.spec.p:
            raise ValueError("point lies in a field of wrong characteristic")
        if x.spec.m % self.spec.m == 0:
            return self.map_to(x.spec), x
        if self.spec.m % x.spec.m == 0:
            return self, embed(x, self.spec)
        raise ValueError(
            f"no common field for {self.spec!r} and {x.spec!r}")

    def evaluation_matrix(self, field: FieldSpec) -> list:
        """Matrix of x -> self(x) as a GF(p)-linear map on field: column j
        holds self(x^j), the sum over i of c_i times column j of the
        q^i-power Frobenius matrix, by schoolbook products."""
        u = self.map_to(field)
        p, M = field.p, field.m
        r = prime_power(self.q)[1]
        cols = [[0] * M for _ in range(M)]
        for i, c in enumerate(u.coeffs):
            if not c:
                continue
            for j, col in enumerate(zip(*field.frobenius_matrix(r * i))):
                term = field._mul_generic(c.coeffs, col)
                cols[j] = [(a + b) % p for a, b in zip(cols[j], term)]
        return [list(row) for row in zip(*cols)]


def _materialize_space(field: FieldSpec, solver: GFpSolver) -> set:
    if field.p ** len(solver.nullspace) > _KERNEL_ENUM_LIMIT:
        raise ValueError("kernel too large to materialize as a set")
    return {FieldElement(field, n) for n in solver.nullspace_ints()}


@functools.lru_cache(maxsize=4096)
def _solver_for(u: LinearizedPoly, field: FieldSpec) -> GFpSolver:
    return GFpSolver(u.evaluation_matrix(field), field.p)


def kernel_in(u: LinearizedPoly, field: FieldSpec) -> set:
    """All x in the field with u(x) = 0.

    The result is a vector space over the size-q subfield; that closure
    is verified before returning.
    """
    if u.is_zero():
        raise ValueError("the zero polynomial has the whole field as kernel")
    if not u.is_separable():
        warnings.warn(
            "kernel of an inseparable polynomial returned as a plain "
            "root set", InseparableKernelWarning, stacklevel=2)
    ker = _materialize_space(field, _solver_for(u, field))
    _check_q_space(ker, field, u.q)
    return ker


def preimages(u: LinearizedPoly, c: FieldElement, field: FieldSpec) -> set:
    """All x in the field with u(x) = c; empty or a coset of the kernel."""
    if u.is_zero():
        raise ValueError("preimages under the zero polynomial")
    if c.spec != field:
        c = embed(c, field)
    solver = _solver_for(u, field)
    particular = solver.solve(list(c.coeffs))
    if particular is None:
        return set()
    x0 = field.element(particular)
    return {x0 + k for k in _materialize_space(field, solver)}


def _check_q_space(ker: set, field: FieldSpec, q: int) -> None:
    scalars = subfield_elements(field, q)
    for x in ker:
        for s in scalars:
            if s * x not in ker:
                raise RuntimeError(
                    "kernel is not closed under subfield scaling")


def splitting_field(u: LinearizedPoly, cap: int = DEFAULT_CAP) -> FieldSpec:
    """Smallest-degree extension of the coefficient field holding the
    full root set of u.

    A separable u of tau-degree d has exactly q^d roots there; an
    inseparable one reaches q^(d-v) distinct roots, v the tau-order of
    the lowest nonzero coefficient.  Degrees are searched sequentially,
    since splitting degrees need not divide any power of two.
    """
    if u.is_zero():
        raise ValueError("the zero polynomial does not split")
    v = 0
    while not u.coeffs[v]:
        v += 1
    r = prime_power(u.q)[1]
    target_nullity = r * (u.tau_degree - v)
    base = u.spec
    s = 1
    while True:
        if base.p ** (base.m * s) > cap:
            raise CapExceededError(
                f"splitting field search passed the cap {cap} at "
                f"degree {base.m * s}")
        field = make_field(base.p, base.m * s, cap=cap)
        if len(_solver_for(u, field).nullspace) == target_nullity:
            return field
        s += 1
