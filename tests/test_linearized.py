import random

import pytest

from drintower.finite_field import embed, make_field
from drintower.linearized import (
    InseparableKernelWarning,
    LinearizedPoly,
    kernel_in,
    preimages,
    splitting_field,
)


def kernel_by_enumeration(u: LinearizedPoly, field) -> set:
    """Brute-force reference path; must agree with kernel_in."""
    v = u.map_to(field) if field != u.spec else u
    return {x for x in field.elements() if not v(x)}


def test_twist_rule():
    # tau followed by multiplication: tau * (aX) = a^q * tau
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    tau = LinearizedPoly.tau(2, gf4)
    prod = tau * LinearizedPoly.constant(w, 2)
    assert prod == LinearizedPoly(2, (gf4.zero(), w * w))


def test_identity_composition():
    gf4 = make_field(2, 2)
    v = LinearizedPoly.from_ints(2, gf4, [1, 0, 1])
    assert LinearizedPoly.identity(2, gf4) * v == v
    assert v * LinearizedPoly.identity(2, gf4) == v


def test_char2_cross_terms_cancel():
    gf4 = make_field(2, 2)
    u = LinearizedPoly.from_ints(2, gf4, [1, 0, 1])
    assert u * u == LinearizedPoly.from_ints(2, gf4, [1, 0, 0, 0, 1])


def test_mixed_q_and_field_rejected():
    gf16 = make_field(2, 4)
    a = LinearizedPoly.identity(2, gf16)
    b = LinearizedPoly.identity(4, gf16)
    with pytest.raises(ValueError, match="mixed q"):
        a * b
    c = LinearizedPoly.identity(2, make_field(2, 2))
    with pytest.raises(ValueError, match="fields differ"):
        a * c
    with pytest.raises(ValueError, match="not compatible"):
        LinearizedPoly.identity(8, make_field(2, 2))


def test_eval_examples():
    gf16 = make_field(2, 4)
    u = LinearizedPoly.from_ints(2, gf16, [1, 0, 0, 0, 1])
    assert all(not u(x) for x in gf16.elements())
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    assert LinearizedPoly.from_ints(2, gf4, [1, 1, 1])(gf4.zero()) \
        == gf4.zero()
    assert LinearizedPoly.tau(2, gf4)(w) == w + 1


def test_eval_subfield_linearity():
    # evaluation is additive always, and linear over the size-q subfield
    rng = random.Random(7)
    gf16 = make_field(2, 4)
    gf4_in_16 = [x for x in gf16.elements() if x.frobenius(2, 2) == x]
    u = LinearizedPoly(2, tuple(gf16.random_element(rng) for _ in range(3)))
    for _ in range(100):
        x, y = gf16.random_element(rng), gf16.random_element(rng)
        assert u(x + y) == u(x) + u(y)
    u4 = LinearizedPoly(4, tuple(gf16.random_element(rng) for _ in range(2)))
    for _ in range(100):
        x, y = gf16.random_element(rng), gf16.random_element(rng)
        a, b = rng.choice(gf4_in_16), rng.choice(gf4_in_16)
        assert u4(a * x + b * y) == a * u4(x) + b * u4(y)


def test_eval_embeds_coefficients_or_point():
    gf4 = make_field(2, 2)
    gf16 = make_field(2, 4)
    u = LinearizedPoly.from_ints(2, gf4, [1, 1])
    x = gf16.from_int(5)
    assert u(x) == u.map_to(gf16)(x)
    big = LinearizedPoly.from_ints(2, gf16, [1, 1])
    small = gf4.from_int(2)
    assert big(small) == big(embed(small, gf16))


def test_kernel_examples():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    full = kernel_in(LinearizedPoly.from_ints(2, gf4, [1, 0, 1]), gf4)
    assert full == set(gf4.elements())
    with pytest.warns(InseparableKernelWarning):
        only_zero = kernel_in(LinearizedPoly.tau(2, gf4), gf4)
    assert only_zero == {gf4.zero()}
    line = kernel_in(LinearizedPoly(2, (w, -gf4.one())), gf4)
    assert line == {gf4.zero(), w}


def test_kernel_zero_rejected():
    gf4 = make_field(2, 2)
    with pytest.raises(ValueError):
        kernel_in(LinearizedPoly.zero(2, gf4), gf4)
    with pytest.raises(ValueError):
        preimages(LinearizedPoly.zero(2, gf4), gf4.one(), gf4)


def test_preimage_examples():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    u = LinearizedPoly.from_ints(2, gf4, [1, 1])  # X + X^2
    assert preimages(u, gf4.one(), gf4) == {w, w + 1}
    assert preimages(u, w, gf4) == set()
    assert preimages(u, gf4.zero(), gf4) == kernel_in(u, gf4)


@pytest.mark.parametrize("p,m,q", [(2, 4, 2), (2, 6, 2), (3, 4, 3),
                                   (2, 8, 4)])
def test_kernel_matrix_vs_enumeration(p, m, q):
    spec = make_field(p, m)
    rng = random.Random(p * 100 + m)
    import warnings
    for _ in range(12):
        coeffs = [spec.random_element(rng) for _ in range(rng.randrange(1, 4))]
        u = LinearizedPoly(q, coeffs, spec)
        if u.is_zero():
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InseparableKernelWarning)
            assert kernel_in(u, spec) == kernel_by_enumeration(u, spec)


@pytest.mark.parametrize("p,r,m_coeffs,m", [
    (2, 1, 2, 6), (2, 2, 4, 8), (3, 1, 1, 4), (3, 2, 2, 4),
    (5, 1, 2, 2), (5, 2, 2, 4), (17, 1, 1, 2), (17, 2, 2, 4)])
def test_evaluation_matrix_columns_are_images_of_the_basis(p, r, m_coeffs, m):
    # column j holds the digits of u(x^j) as __call__ evaluates it, for
    # q = p^r, coefficients in a subfield (the map_to path) or in the
    # field itself, and zero coefficients at the bottom and in between
    rng = random.Random(p * 100 + m)
    field = make_field(p, m)
    basis = [field.element([int(i == j) for i in range(m)])
             for j in range(m)]
    for spec in (make_field(p, m_coeffs), field):
        a, b, c = (spec.random_nonzero(rng) for _ in range(3))
        zero = spec.zero()
        for coeffs in ([a, zero, b], [zero, a, zero, b], [a, b, c]):
            u = LinearizedPoly(p ** r, coeffs, spec)
            columns = [list(col) for col in zip(*u.evaluation_matrix(field))]
            assert columns == [list(u(x).coeffs) for x in basis]


def test_kernel_is_q_subspace():
    gf81 = make_field(3, 4)
    rng = random.Random(5)
    scalars = [x for x in gf81.elements() if x ** 3 == x]
    for _ in range(10):
        u = LinearizedPoly(3, (gf81.random_element(rng),
                               gf81.random_nonzero(rng)))
        ker = kernel_in(u, gf81)
        size = len(ker)
        while size % 3 == 0:
            size //= 3
        assert size == 1  # a power of q
        for x in ker:
            for y in ker:
                assert x + y in ker
            for s in scalars:
                assert s * x in ker


@pytest.mark.parametrize("q,p,m,trials", [(2, 2, 4, 1000), (3, 3, 4, 400)])
def test_ring_laws_randomized(q, p, m, trials):
    spec = make_field(p, m)
    rng = random.Random(q)
    for _ in range(trials):
        polys = []
        for _ in range(3):
            deg = rng.randrange(0, 5)
            polys.append(LinearizedPoly(
                q, [spec.random_element(rng) for _ in range(deg + 1)], spec))
        u, v, t = polys
        assert (u * v) * t == u * (v * t)
        assert u * (v + t) == u * v + u * t
        assert (u + v) * t == u * t + v * t


def test_compose_eval_exhaustive():
    for p, m, q, pairs in ((2, 8, 2, 3), (2, 10, 2, 1), (3, 4, 3, 2)):
        spec = make_field(p, m)
        rng = random.Random(m)
        for _ in range(pairs):
            u = LinearizedPoly(
                q, [spec.random_element(rng) for _ in range(3)], spec)
            v = LinearizedPoly(
                q, [spec.random_element(rng) for _ in range(3)], spec)
            if u.is_zero() or v.is_zero():
                continue
            w = u * v
            for x in spec.elements():
                assert w(x) == u(v(x))


def test_splitting_field_basic():
    gf2 = make_field(2, 1)
    u = LinearizedPoly.from_ints(2, gf2, [1, 0, 1])  # X + X^4
    sf = splitting_field(u)
    assert sf.size == 4
    assert len(kernel_in(u.map_to(sf), sf)) == 4


def test_splitting_field_odd_degree():
    # Frobenius can act with odd order on a torsion space, so the search
    # must visit non-power-of-two degrees
    gf4 = make_field(2, 2)
    found_odd = None
    for g in gf4.elements():
        for delta in gf4.nonzero_elements():
            u = LinearizedPoly(2, (gf4.one(), g, delta))
            sf = splitting_field(u)
            if (sf.m // gf4.m) == 3:
                found_odd = (u, sf)
                break
        if found_odd:
            break
    assert found_odd is not None
    u, sf = found_odd
    assert len(kernel_in(u.map_to(sf), sf)) == 4


def test_splitting_field_inseparable_target():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    sep = LinearizedPoly(2, (w, -gf4.one()))
    insep = LinearizedPoly.tau(2, gf4) * sep
    assert not insep.is_separable()
    sf = splitting_field(insep)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InseparableKernelWarning)
        ker = kernel_in(insep.map_to(sf), sf)
    assert len(ker) == 2  # q^(d - v) with d = 2, v = 1


def test_splitting_field_cap():
    from drintower.finite_field import CapExceededError
    gf9 = make_field(3, 2)
    u = LinearizedPoly(3, (gf9.one(), gf9.zero(), gf9.from_int(5)))
    with pytest.raises(CapExceededError):
        splitting_field(u, cap=81)


def test_add_scale_neg():
    gf9 = make_field(3, 2)
    i = gf9.element((0, 1))
    u = LinearizedPoly(3, (gf9.one(), i))
    v = LinearizedPoly(3, (i, gf9.one()))
    assert (u + v) - v == u
    assert u.scale(i) == LinearizedPoly(3, (i, i * i))
    assert -u + u == LinearizedPoly.zero(3, gf9)
    assert (u - u).is_zero()


def test_power_is_iterated_composition():
    gf4 = make_field(2, 2)
    t = LinearizedPoly.from_ints(2, gf4, [1, 0, 1])
    assert t ** 0 == LinearizedPoly.identity(2, gf4)
    assert t ** 1 == t
    assert t ** 3 == t * t * t


def test_serialize():
    gf4 = make_field(2, 2)
    u = LinearizedPoly.from_ints(2, gf4, [1, 0, 1])
    blob = u.serialize()
    assert blob["tau_degree"] == 2
    assert blob["coeffs"] == ["1,0", "0,0", "1,0"]
    assert blob["field"] == "2^2/1,1,1"
