import random

import pytest

from drintower.drinfeld import (
    APoly,
    DrinfeldModule,
    Rank1Module,
    isogeny_from_kernel,
    verify_isogeny,
)
from drintower.finite_field import (
    embed,
    make_field,
    prime_power,
    subfield_elements,
)
from drintower.linearized import LinearizedPoly
from drintower.tower import (
    kernel_line_poly,
    module_from_torsion_point,
    quotient_torsion_poly,
)


def _gf(p, m):
    return make_field(p, m)


def test_phi_t_examples():
    gf4 = _gf(2, 2)
    one = gf4.one()
    m = DrinfeldModule(2, one, gf4.zero(), one)        # delta = -1 = 1
    assert m.phi_t() == LinearizedPoly.from_ints(2, gf4, [1, 0, 1])
    m2 = DrinfeldModule(2, one, one, one)
    assert m2.phi_t() == LinearizedPoly.from_ints(2, gf4, [1, 1, 1])
    # evaluation agrees with the displayed torsion polynomial
    w = gf4.from_int(2)
    assert m2.phi_t()(w) == w + w * w + (w * w) * (w * w)


def test_delta_must_be_nonzero():
    gf4 = _gf(2, 2)
    with pytest.raises(ValueError, match="delta"):
        DrinfeldModule(2, gf4.one(), gf4.one(), gf4.zero())


def test_phi_a_examples():
    gf4 = _gf(2, 2)
    gf2 = _gf(2, 1)
    m = DrinfeldModule(2, gf4.one(), gf4.zero(), gf4.one())
    assert m.phi_a(APoly.T(gf2)) == m.phi_t()
    assert m.phi_a(APoly.T_power(gf2, 2)) == \
        LinearizedPoly.from_ints(2, gf4, [1, 0, 0, 0, 1])
    const = APoly.from_ints(gf2, [1])
    assert m.phi_a(const) == LinearizedPoly.identity(2, gf4)


@pytest.mark.parametrize("q,p,mdeg,trials", [(2, 2, 4, 300), (3, 3, 4, 250)])
def test_phi_a_homomorphism_randomized(q, p, mdeg, trials):
    spec = _gf(p, mdeg)
    k = _gf(q, 1) if q in (2, 3) else _gf(p, 2)
    rng = random.Random(q * 17)
    for _ in range(trials):
        module = DrinfeldModule(q, spec.random_element(rng),
                                spec.random_element(rng),
                                spec.random_nonzero(rng))
        a = APoly(k, [k.random_element(rng) for _ in range(3)])
        b = APoly(k, [k.random_element(rng) for _ in range(3)])
        pa, pb = module.phi_a(a), module.phi_a(b)
        assert module.phi_a(a * b) == pa * pb
        assert module.phi_a(a + b) == pa + pb
        if not a.is_zero():
            assert pa.tau_degree == 2 * a.degree
            assert pa.coeffs[0] == module.gamma(a)


def test_j_invariant_examples():
    gf4 = _gf(2, 2)
    w = gf4.from_int(2)
    one = gf4.one()
    assert DrinfeldModule(2, one, gf4.zero(), one).j_invariant() == gf4.zero()
    assert DrinfeldModule(2, one, one, one).j_invariant() == one
    assert DrinfeldModule(2, one, w, one).j_invariant() == one  # w^3 = 1


def test_supersingular_examples():
    gf4 = _gf(2, 2)
    one = gf4.one()
    w = gf4.from_int(2)
    assert DrinfeldModule(2, one, gf4.zero(), one).is_supersingular()
    assert not DrinfeldModule(2, one, one, one).is_supersingular()
    with pytest.raises(ValueError, match="base field"):
        DrinfeldModule(2, w, one, one).is_supersingular()


def test_normalized_and_normalizable():
    gf4 = _gf(2, 2)
    one = gf4.one()
    assert DrinfeldModule(2, one, gf4.from_int(2), one).is_normalized()
    assert DrinfeldModule(2, one, gf4.zero(), one).is_normalizable()
    gf8 = _gf(2, 3)
    cubes = {(x * x * x) for x in gf8.nonzero_elements()}
    assert cubes == set(gf8.nonzero_elements())  # gcd(7, 3) = 1
    for delta in gf8.nonzero_elements():
        assert DrinfeldModule(2, gf8.one(), gf8.zero(),
                              delta).is_normalizable()
    # over GF(16) the cubes form an index-3 subgroup, so some delta fail
    gf16 = _gf(2, 4)
    cubes16 = {(x ** 3) for x in gf16.nonzero_elements()}
    assert len(cubes16) == 5
    for delta in gf16.nonzero_elements():
        module = DrinfeldModule(2, gf16.one(), gf16.zero(), delta)
        assert module.is_normalizable() == (-delta in cubes16)
    with pytest.raises(ValueError, match="l0 = 1"):
        DrinfeldModule(2, gf4.from_int(2), one, one).is_normalizable()


def test_wedge_examples():
    gf4 = _gf(2, 2)
    one = gf4.one()
    m = DrinfeldModule(2, one, gf4.from_int(2), one)
    assert m.wedge_square() == Rank1Module(one, one)
    assert m.wedge_square().phi_t(2) == \
        LinearizedPoly.from_ints(2, gf4, [1, 1])
    gf7 = _gf(7, 1)
    m7 = DrinfeldModule(7, gf7.constant(2), gf7.constant(5), gf7.constant(3))
    assert m7.wedge_square() == Rank1Module(gf7.constant(2), gf7.constant(3))


@pytest.mark.parametrize("q,p,deg", [(2, 2, 2), (3, 3, 2)])
def test_normalized_iff_wedge_is_one_minus_delta(q, p, deg):
    spec = _gf(p, deg)
    one = spec.one()
    target = Rank1Module(one, -one)
    for g in spec.elements():
        for delta in spec.nonzero_elements():
            m = DrinfeldModule(q, one, g, delta)
            assert m.is_normalized() == (m.wedge_square() == target)


def test_torsion_examples():
    gf4 = _gf(2, 2)
    gf2 = _gf(2, 1)
    gf16 = _gf(2, 4)
    m = DrinfeldModule(2, gf4.one(), gf4.zero(), gf4.one())
    assert m.torsion_points(APoly.T(gf2), gf4) == set(gf4.elements())
    assert m.torsion_points(APoly.from_ints(gf2, [1]), gf4) == {gf4.zero()}
    assert m.torsion_points(APoly.T_power(gf2, 2), gf16) == \
        set(gf16.elements())
    with pytest.raises(ValueError):
        m.torsion_points(APoly(gf2, ()), gf4)


def test_isogeny_trivial_kernel():
    gf4 = _gf(2, 2)
    m = module_from_torsion_point(gf4.from_int(2), 2)
    u, n = isogeny_from_kernel(m, {gf4.zero()})
    assert u == LinearizedPoly.identity(2, gf4)
    assert n == m


def test_isogeny_line_kernel_supersingular():
    gf4 = _gf(2, 2)
    w = gf4.from_int(2)
    m = module_from_torsion_point(w, 2)
    u, n = isogeny_from_kernel(m, {gf4.zero(), w})
    assert u == kernel_line_poly(w, 2)
    assert n.phi_t() == quotient_torsion_poly(w, 2)
    assert verify_isogeny(u, m, n)


def test_isogeny_line_kernel_ordinary():
    gf16 = _gf(2, 4)
    x1 = next(x for x in gf16.nonzero_elements()
              if x.frobenius(2, 2) != x)
    m = module_from_torsion_point(x1, 2)
    assert not m.is_supersingular()
    line = {gf16.zero(), x1}
    u, n = isogeny_from_kernel(m, line)
    assert n.phi_t() == quotient_torsion_poly(x1, 2)
    assert verify_isogeny(u, m, n)


def test_isogeny_rejects_bad_kernels():
    gf4 = _gf(2, 2)
    w = gf4.from_int(2)
    m = module_from_torsion_point(w, 2)
    with pytest.raises(ValueError):
        isogeny_from_kernel(m, set())
    with pytest.raises(ValueError, match="contain 0"):
        isogeny_from_kernel(m, {w})
    with pytest.raises(ValueError, match="power of q|closed"):
        isogeny_from_kernel(m, {gf4.zero(), w, w + 1})
    # {0, w} is a subspace but not stable under an ordinary T-action
    ordinary = DrinfeldModule(2, gf4.one(), gf4.one(), gf4.one())
    assert ordinary.phi_t()(w) not in {gf4.zero(), w}
    with pytest.raises(ValueError, match="stable"):
        isogeny_from_kernel(ordinary, {gf4.zero(), w})


def _oracle_isogeny(module, kernel):
    """Brute-force (u, target): u read off the ordinary monic product of
    (X - x) over the kernel at its q-power exponents, and the target
    solved top-down by dividing through by u's leading coefficient."""
    q = module.q
    spec = next(iter(kernel)).spec
    z = spec.zero()
    poly = [spec.one()]
    for x in sorted(kernel, key=lambda e: e.to_int()):
        nxt = [z] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * x
        poly = nxt
    uc = {}
    for exp, c in enumerate(poly):
        if c:
            e, i = exp, 0
            while e > 1 and e % q == 0:
                e, i = e // q, i + 1
            assert e == 1, "the kernel product is not linearized"
            uc[i] = c
    d = max(uc)
    u = LinearizedPoly(q, [uc.get(i, z) for i in range(d + 1)], spec)
    m = module.phi_t().map_to(spec).coeffs

    def lhs(s):
        return sum((uc.get(s - j, z) * m[j].frobenius(q, s - j)
                    for j in range(3) if 0 <= s - j <= d), z)

    def ucf(i, e):
        return uc.get(i, z).frobenius(q, e)

    n2 = lhs(d + 2) / ucf(d, 2)
    n1 = (lhs(d + 1) - n2 * ucf(d - 1, 2)) / ucf(d, 1)
    n0 = (lhs(d) - n1 * ucf(d - 1, 1) - n2 * ucf(d - 2, 2)) / ucf(d, 0)
    return u, DrinfeldModule(q, n0, n1, n2)


def _subspaces(points, scalars, zero):
    """Every k-subspace of the k-space points, grown one span at a time."""
    found = {frozenset([zero])}
    frontier = list(found)
    while frontier:
        grown = []
        for space in frontier:
            for x in points:
                if x not in space:
                    span = frozenset(v + s * x for v in space
                                     for s in scalars)
                    if span not in found:
                        found.add(span)
                        grown.append(span)
        frontier = grown
    return found


# (q, T-power, [(g, delta, degree of a field holding the torsion)],
# number of k-subspaces of the torsion); g and delta encode GF(q^2)
# elements, and l0 = 1
_ORACLE_CASES = [
    (2, 1, [(0, 1, 2), (1, 2, 4), (0, 2, 6)], 5),
    (3, 1, [(0, 2, 2), (1, 5, 4), (0, 1, 4)], 6),
    (4, 1, [(0, 1, 4), (1, 1, 12), (0, 6, 12)], 7),
    (2, 2, [(0, 1, 4), (1, 1, 6), (1, 2, 8)], 67),
    (3, 2, [(0, 2, 6)], 212),
]


@pytest.mark.parametrize("q,tpow,modules,n_subspaces", _ORACLE_CASES)
def test_isogeny_matches_ordinary_product_oracle(q, tpow, modules,
                                                 n_subspaces):
    # every k-subspace of the T- or T^2-torsion: the stable ones give the
    # oracle's u and target, the others are refused as not stable
    p, r = prime_power(q)
    k, L = make_field(p, r), make_field(p, 2 * r)
    for g, delta, degree in modules:
        module = DrinfeldModule(q, L.one(), L.from_int(g), L.from_int(delta))
        field = make_field(p, degree)
        torsion = module.torsion_points(APoly.T_power(k, tpow), field)
        assert len(torsion) == q ** (2 * tpow)
        phit = module.phi_t()
        spaces = _subspaces(torsion, subfield_elements(field, q),
                            field.zero())
        assert len(spaces) == n_subspaces
        stable = 0
        for space in spaces:
            if all(phit(x) in space for x in space):
                stable += 1
                assert isogeny_from_kernel(module, space) == \
                    _oracle_isogeny(module, space)
            else:
                with pytest.raises(ValueError, match="stable"):
                    isogeny_from_kernel(module, space)
        assert stable == n_subspaces if tpow == 1 else stable < n_subspaces


def test_verify_isogeny_examples():
    gf4 = _gf(2, 2)
    gf2 = _gf(2, 1)
    rng = random.Random(3)
    for _ in range(30):
        m = DrinfeldModule(2, gf4.random_element(rng),
                           gf4.random_element(rng),
                           gf4.random_nonzero(rng))
        u = m.phi_a(APoly.T(gf2))
        assert verify_isogeny(u, m, m)  # multiplication by T
    m1 = DrinfeldModule(2, gf4.one(), gf4.zero(), gf4.one())
    m2 = DrinfeldModule(2, gf4.one(), gf4.one(), gf4.one())
    ident = LinearizedPoly.identity(2, gf4)
    assert not verify_isogeny(ident, m1, m2)
    assert verify_isogeny(ident, m1, m1)


def test_every_torsion_line_gives_isogeny():
    # all k-lines inside the full T-torsion are stable and usable
    for q, p, deg in ((2, 2, 2), (3, 3, 2)):
        spec = _gf(p, deg)
        one = spec.one()
        m = DrinfeldModule(q, one, spec.zero(), -one)
        k = _gf(q, 1)
        torsion = m.torsion_points(APoly.T(k), spec)
        assert len(torsion) == q * q
        nonzero = sorted((x for x in torsion if x),
                         key=lambda e: e.to_int())
        seen_lines = set()
        for x in nonzero:
            line = frozenset(s * x for s in subfield_elements(spec, q))
            if line in seen_lines:
                continue
            seen_lines.add(line)
            u, n = isogeny_from_kernel(m, set(line))
            assert verify_isogeny(u, m, n)
        assert len(seen_lines) == q + 1


def test_isomorphism_transport_classifies_j():
    # same J means: g vanishes together, and when g is nonzero the
    # discriminants differ by exactly (g'/g)^(q+1); a concrete scaling
    # witness then exists in a small extension
    for q, p in ((2, 2), (3, 3)):
        k1 = _gf(p, 2)
        one = k1.one()
        big = make_field(p, 4 if q == 3 else 6)
        mods = [DrinfeldModule(q, one, g, d)
                for g in k1.elements() for d in k1.nonzero_elements()]
        for a in mods:
            for b in mods:
                same_j = a.j_invariant() == b.j_invariant()
                if bool(a.g) != bool(b.g):
                    assert not same_j
                    continue
                if not a.g:
                    assert same_j  # both J = 0
                    continue
                transportable = \
                    b.delta == a.delta * (b.g / a.g) ** (q + 1)
                assert same_j == transportable
                if not same_j:
                    continue
                # witness u with g' = u^(1-q) g and delta' = u^(1-q^2) delta
                ga, gb = embed(a.g, big), embed(b.g, big)
                da, db = embed(a.delta, big), embed(b.delta, big)
                found = False
                for u in big.nonzero_elements():
                    if u ** (q - 1) == ga / gb:
                        assert u ** (q * q - 1) == da / db
                        found = True
                        break
                assert found


@pytest.mark.parametrize("q,p", [(2, 2), (3, 3)])
def test_normalized_j_locus(q, p):
    # J-values of normalized modules over L are exactly the j with -j a
    # (q+1)-st power in L
    spec = _gf(p, 2)
    one = spec.one()
    normalized_js = {DrinfeldModule(q, one, g, -one).j_invariant()
                     for g in spec.elements()}
    power_js = {j for j in spec.elements()
                if not j or any(-j == y ** (q + 1)
                                for y in spec.nonzero_elements())}
    assert normalized_js == power_js


def test_normalizable_is_stricter_than_j_locus():
    # over GF(81) with q = 3 the (q+1)-st powers strictly contain the
    # (q^2-1)-st powers, so a module can share its J with a normalized
    # one without being isomorphic to it over the same field
    q = 3
    spec = _gf(3, 4)
    one = spec.one()
    fourth = {y ** (q + 1) for y in spec.nonzero_elements()}
    eighth = {y ** (q * q - 1) for y in spec.nonzero_elements()}
    assert eighth < fourth
    witness = next(x for x in sorted(fourth - eighth,
                                     key=lambda e: e.to_int()))
    module = DrinfeldModule(q, one, one, -witness)
    assert not module.is_normalizable()
    assert -module.j_invariant() in fourth


@pytest.mark.parametrize("q,p", [(2, 2), (3, 3)])
def test_normalizability_is_isogeny_invariant(q, p):
    # quotients by rational torsion lines preserve the normalizability
    # condition on the discriminant
    spec = _gf(p, 4)
    k = _gf(q, 1)
    rng = random.Random(q * 5)
    scalars = subfield_elements(spec, q)
    checked = 0
    while checked < 40:
        module = DrinfeldModule(q, spec.one(), spec.random_element(rng),
                                spec.random_nonzero(rng))
        torsion = module.torsion_points(APoly.T(k), spec)
        lines = {frozenset(s * x for s in scalars)
                 for x in torsion if x}
        for line in lines:
            u, target = isogeny_from_kernel(module, set(line))
            assert target.is_normalizable() == module.is_normalizable()
            checked += 1


def test_module_json_record():
    gf4 = _gf(2, 2)
    m = DrinfeldModule(2, gf4.one(), gf4.from_int(2), gf4.one())
    assert m.to_json_dict() == {"q": 2, "field": "2^2/1,1,1",
                                "l0": "1,0", "g": "0,1", "delta": "1,0"}


def test_apoly_arithmetic():
    gf3 = _gf(3, 1)
    a = APoly.from_ints(gf3, [1, 2])
    b = APoly.from_ints(gf3, [0, 1, 1])
    assert (a + b).coeffs == APoly.from_ints(gf3, [1, 0, 1]).coeffs
    assert (a * b).degree == 3
    gf9 = _gf(3, 2)
    i = gf9.element((0, 1))
    # (1 + 2T) at T = i: 1 + 2i
    assert a.evaluate(i) == gf9.one() + gf9.constant(2) * i


def test_isogeny_degree_is_exact_power_of_q():
    gf9 = _gf(3, 2)
    w = gf9.from_int(3)
    m = module_from_torsion_point(w, 3)
    line = {gf9.zero(), w, w + w}
    for kernel, degree in (({gf9.zero()}, 0), (line, 1),
                           (set(gf9.elements()), 2)):
        u, _ = isogeny_from_kernel(m, kernel)
        assert u.tau_degree == degree
    for size in (2, 4, 8):
        with pytest.raises(ValueError, match="power of q"):
            isogeny_from_kernel(m, set(list(gf9.elements())[:size]))
    # size q and 0 inside, but w + w is missing
    with pytest.raises(ValueError, match="closed"):
        isogeny_from_kernel(m, {gf9.zero(), w, w + gf9.one()})
