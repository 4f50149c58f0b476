"""Rank-2 Drinfeld modules over the polynomial ring A = k[T].

A module is pinned down by the image of T, a twisted polynomial
l0 + g*tau + delta*tau^2 with delta nonzero, acting on any extension of
the coefficient field.  The constant term map gamma(a) sends a in A to
a(l0).  Everything downstream flows from a handful of exact identities
on these actions: the J-invariant g^(q+1)/delta classifies modules up
to geometric isomorphism, g = 0 detects supersingularity when l0 lies
in k, and finite stable subspaces of torsion give isogenies by their
monic subspace polynomials.

The isogeny solver builds that polynomial in the twisted ring by the
recursion u_(V + kx) = (tau - u_V(x)^(q-1)) * u_V, one factor for each
kernel point outside the span so far.  The points then span a subspace
of q^(tau-degree of u) elements, so the kernel is a k-subspace exactly
when that count is its size.  The target module comes from the
intertwining relation u * phi_T = psi_T * u by equating twisted
coefficients from the top degree down; the system is triangular with
unit diagonal because u is monic, and the remaining equations are then
checked wholesale so a bad kernel cannot slip through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .finite_field import FieldElement, FieldSpec, embed, prime_power
from .linearized import LinearizedPoly, kernel_in


class APoly:
    """An element of A = k[T]: a coefficient tuple over the base field k."""

    __slots__ = ("kspec", "coeffs")

    def __init__(self, kspec: FieldSpec, coeffs: Iterable[FieldElement]):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if c.spec != kspec:
                raise ValueError("coefficients must lie in the base field")
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        self.kspec = kspec
        self.coeffs = coeffs

    @classmethod
    def from_ints(cls, kspec: FieldSpec, ints: Iterable[int]) -> "APoly":
        return cls(kspec, [kspec.constant(c) for c in ints])

    @classmethod
    def T(cls, kspec: FieldSpec) -> "APoly":
        return cls.from_ints(kspec, [0, 1])

    @classmethod
    def T_power(cls, kspec: FieldSpec, n: int) -> "APoly":
        return cls.from_ints(kspec, [0] * n + [1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, APoly):
            return NotImplemented
        return (self.kspec, self.coeffs) == (other.kspec, other.coeffs)

    def __hash__(self):
        return hash((self.kspec, self.coeffs))

    def __add__(self, other: "APoly") -> "APoly":
        if self.kspec != other.kspec:
            raise ValueError("mixed base fields")
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.kspec.zero()
        a = self.coeffs + (z,) * (n - len(self.coeffs))
        b = other.coeffs + (z,) * (n - len(other.coeffs))
        return APoly(self.kspec, [x + y for x, y in zip(a, b)])

    def __mul__(self, other: "APoly") -> "APoly":
        if self.kspec != other.kspec:
            raise ValueError("mixed base fields")
        if self.is_zero() or other.is_zero():
            return APoly(self.kspec, ())
        out = [self.kspec.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return APoly(self.kspec, out)

    def evaluate(self, x: FieldElement) -> FieldElement:
        """a(x) with coefficients embedded into the field of x."""
        acc = x.spec.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + embed(c, x.spec)
        return acc

    def __repr__(self):
        return f"APoly({[c.serialize() for c in self.coeffs]})"


@dataclass(frozen=True)
class Rank1Module:
    """A rank-1 module sending T to l0 - c1*tau."""

    l0: FieldElement
    c1: FieldElement

    def phi_t(self, q: int) -> LinearizedPoly:
        return LinearizedPoly(q, (self.l0, -self.c1))


@dataclass(frozen=True)
class DrinfeldModule:
    """Rank-2 module determined by T -> l0 + g*tau + delta*tau^2."""

    q: int
    l0: FieldElement
    g: FieldElement
    delta: FieldElement

    def __post_init__(self):
        spec = self.l0.spec
        if self.g.spec != spec or self.delta.spec != spec:
            raise ValueError("l0, g, delta must share one field")
        pr = prime_power(self.q)
        if pr is None or pr[0] != spec.p or spec.m % pr[1]:
            raise ValueError(f"q={self.q} incompatible with {spec!r}")
        if not self.delta:
            raise ValueError("discriminant delta must be nonzero")

    @property
    def spec(self) -> FieldSpec:
        return self.l0.spec

    def phi_t(self) -> LinearizedPoly:
        return LinearizedPoly(self.q, (self.l0, self.g, self.delta))

    def phi_a(self, a: APoly) -> LinearizedPoly:
        """Image of a under the ring homomorphism determined by phi_t.

        Horner evaluation inside the twisted ring; the tau^0 coefficient
        of the result is a(l0) and the tau-degree is 2*deg(a).
        """
        if a.is_zero():
            return LinearizedPoly.zero(self.q, self.spec)
        phit = self.phi_t()
        acc = LinearizedPoly.constant(embed(a.coeffs[-1], self.spec), self.q)
        for c in reversed(a.coeffs[:-1]):
            acc = acc * phit + LinearizedPoly.constant(
                embed(c, self.spec), self.q)
        return acc

    def gamma(self, a: APoly) -> FieldElement:
        return a.evaluate(self.l0)

    def j_invariant(self) -> FieldElement:
        return self.g ** (self.q + 1) / self.delta

    def is_supersingular(self) -> bool:
        """g = 0 test; only meaningful when l0 lies in the base field k."""
        if self.l0.frobenius(self.q) != self.l0:
            raise ValueError(
                "supersingularity test needs l0 in the base field")
        return not self.g

    def is_normalized(self) -> bool:
        return self.l0 == 1 and self.delta == -self.spec.one()

    def is_normalizable(self) -> bool:
        """Whether -delta is a (q^2-1)-st power in the coefficient field."""
        if self.l0 != 1:
            raise ValueError("normalizability test assumes l0 = 1")
        order = self.spec.size - 1
        e = order // math.gcd(order, self.q**2 - 1)
        return (-self.delta) ** e == self.spec.one()

    def wedge_square(self) -> Rank1Module:
        return Rank1Module(self.l0, self.delta)

    def torsion_points(self, a: APoly, field: FieldSpec) -> set:
        """Roots of phi_a inside the given field."""
        if a.is_zero():
            raise ValueError("torsion of a = 0 is everything")
        return kernel_in(self.phi_a(a).map_to(field), field)

    def to_json_dict(self) -> dict:
        return {"q": self.q, "field": self.spec.serialize(),
                "l0": self.l0.serialize(), "g": self.g.serialize(),
                "delta": self.delta.serialize()}


def isogeny_from_kernel(module: DrinfeldModule, kernel: Iterable[FieldElement]):
    """Monic isogeny with the given kernel, and the isogenous module.

    The kernel must be a finite subspace over the base field k, stable
    under the T-action of the module.  Returns (u, target) where u is
    the monic subspace polynomial of the kernel and target is the
    unique module with u * phi_T = psi_T * u.
    """
    pts = list(kernel)
    if not pts:
        raise ValueError("kernel must contain 0")
    spec = pts[0].spec
    for x in pts:
        if x.spec != spec:
            raise ValueError("kernel points lie in different fields")
    q = module.q
    if spec.m % module.spec.m:
        raise ValueError("kernel field does not contain the module field")
    phit = module.phi_t().map_to(spec)

    pset = set(pts)
    if spec.zero() not in pset:
        raise ValueError("kernel must contain 0")
    d = 0
    while q**d < len(pset):
        d += 1
    if q**d != len(pset):
        raise ValueError("kernel size is not a power of q")
    u = LinearizedPoly.identity(q, spec)
    for x in pset:  # u does not depend on the order
        a = u(x)
        if a:
            u = LinearizedPoly(q, (-a ** (q - 1), spec.one())) * u
    # the points span a subspace of q^(tau-degree of u) elements
    if u.tau_degree != d:
        raise ValueError(f"kernel not closed: its k-span has "
                         f"{q}^{u.tau_degree} elements")
    for x in pset:
        if phit(x) not in pset:
            raise ValueError("kernel not stable under the T-action")

    # top three coefficients of u * phi_T = psi_T * u, with u monic
    lhs = (u * phit).coeffs
    low = (spec.zero(),) * 2 + u.coeffs  # u_(d-2), u_(d-1) at d, d + 1
    n2 = lhs[d + 2]
    n1 = lhs[d + 1] - n2 * low[d + 1].frobenius(q, 2)
    n0 = lhs[d] - n1 * low[d + 1].frobenius(q) - n2 * low[d].frobenius(q, 2)

    target = DrinfeldModule(q, n0, n1, n2)
    if not verify_isogeny(u, module, target):
        raise ValueError("kernel is not the kernel of an isogeny from "
                         "this module")
    if n0 != embed(module.l0, spec):
        raise RuntimeError("isogeny solve changed the constant-term map")
    return u, target


def verify_isogeny(u: LinearizedPoly, source: DrinfeldModule,
                   target: DrinfeldModule) -> bool:
    """Exact check of u * phi_T = psi_T * u.

    For A = k[T] the relation at T extends to all of A, so this single
    coefficient-list comparison certifies the isogeny.
    """
    spec = u.spec
    return u * source.phi_t().map_to(spec) == \
        target.phi_t().map_to(spec) * u
