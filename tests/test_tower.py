import random

import pytest

from drintower.finite_field import embed, make_field, prime_power
from drintower.linearized import LinearizedPoly, kernel_in, preimages, \
    splitting_field
from drintower.tower import (
    TowerPoint,
    X0Point,
    cofactor_poly,
    enumerate_x0,
    enumerate_xprime,
    kernel_line_poly,
    module_from_torsion_point,
    quotient_torsion_poly,
    supersingular_z_values,
    torsion_poly,
    verify_descent,
    x0_columns,
    xprime_columns,
)


def _k1(q):
    p, r = prime_power(q)
    return make_field(p, 2 * r)


def test_building_block_examples():
    gf4 = make_field(2, 2)
    one = gf4.one()
    w = gf4.from_int(2)
    assert torsion_poly(one, 2) == LinearizedPoly.from_ints(2, gf4, [1, 0, 1])
    assert cofactor_poly(one, 2) * kernel_line_poly(one, 2) == \
        torsion_poly(one, 2)
    assert torsion_poly(w, 2).coeffs[1] == gf4.zero()
    for fn in (kernel_line_poly, cofactor_poly, torsion_poly,
               quotient_torsion_poly):
        with pytest.raises(ValueError):
            fn(gf4.zero(), 2)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_factorization_identities_exhaustive(q):
    p, r = prime_power(q)
    big = make_field(p, 4 * r)
    for x in big.nonzero_elements():
        assert cofactor_poly(x, q) * kernel_line_poly(x, q) == \
            torsion_poly(x, q)
        line_then_cofactor = kernel_line_poly(x, q) * cofactor_poly(x, q)
        assert line_then_cofactor == quotient_torsion_poly(x, q)
        assert line_then_cofactor.coeffs[1] == \
            x ** (q - 1) - x ** (q - q * q)


def test_module_from_torsion_point():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    m = module_from_torsion_point(w, 2)
    assert m.g == gf4.zero() and m.is_supersingular()
    gf16 = make_field(2, 4)
    x1 = next(x for x in gf16.nonzero_elements() if x.frobenius(2, 2) != x)
    assert not module_from_torsion_point(x1, 2).is_supersingular()
    rng = random.Random(11)
    for _ in range(50):
        x = gf16.random_nonzero(rng)
        mod = module_from_torsion_point(x, 2)
        assert not mod.phi_t()(x)
    with pytest.raises(ValueError):
        module_from_torsion_point(gf4.zero(), 2)


def test_point_validation():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    TowerPoint(2, (w, gf4.one()))  # valid: z = w, w^2 + w = 1 = w^3
    with pytest.raises(ValueError, match="cuspidal"):
        TowerPoint(2, (w, gf4.zero()))
    with pytest.raises(ValueError, match="relation"):
        TowerPoint(2, (gf4.one(), gf4.one()))
    with pytest.raises(ValueError, match="at least"):
        TowerPoint(2, ())
    gf2 = make_field(2, 1)
    with pytest.raises(ValueError, match="GF\\(2\\^2\\)"):
        TowerPoint(2, (gf2.one(),))


def test_extend_examples():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    exts = TowerPoint(2, (w,)).extend()
    assert [pt.ints() for pt in exts] == [(2, 1), (2, 2)]
    # supersingular points have exactly q extensions, staying in k1*
    for q in (2, 3):
        k1 = _k1(q)
        for x in k1.nonzero_elements():
            if x.frobenius(q, 2) != x:
                continue
            out = TowerPoint(q, (x,)).extend()
            assert len(out) == q
            assert all(pt.coords[-1].frobenius(q, 2) == pt.coords[-1]
                       for pt in out)


def test_extend_can_be_empty():
    gf16 = make_field(2, 4)
    empties = 0
    for x in gf16.nonzero_elements():
        rhs = x ** 3
        brute = [z for z in gf16.elements() if z * z + z == rhs]
        got = TowerPoint(2, (x,)).extend()
        assert len(got) == len([z for z in brute if z])
        if not got:
            empties += 1
    assert empties > 0


def test_extend_into_larger_field():
    gf4 = make_field(2, 2)
    gf16 = make_field(2, 4)
    w = gf4.from_int(2)
    small = TowerPoint(2, (w,)).extend()
    lifted = TowerPoint(2, (w,)).extend(gf16)
    assert len(lifted) == len(small)
    assert {pt.coords[-1] for pt in lifted} == \
        {embed(pt.coords[-1], gf16) for pt in small}


def test_enumerate_examples():
    gf4 = make_field(2, 2)
    pts = enumerate_xprime(2, 2, gf4)
    assert len(pts) == 6
    assert all(p.is_supersingular() for p in pts)
    assert len(enumerate_xprime(2, 3, gf4)) == 12
    with pytest.raises(ValueError):
        enumerate_xprime(2, 1, gf4)


def test_enumerate_gf16_matches_double_loop():
    gf16 = make_field(2, 4)
    pts = enumerate_xprime(2, 2, gf16)
    brute = 0
    for x in gf16.nonzero_elements():
        for z in gf16.nonzero_elements():
            if z * z + z == x ** 3:
                brute += 1
    assert len(pts) == brute == 6


def test_enumerate_no_duplicates_and_sorted():
    gf9 = make_field(3, 2)
    pts = enumerate_xprime(3, 3, gf9)
    keys = [p.ints() for p in pts]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_supersingular_point_examples():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    assert TowerPoint(2, (w, gf4.one())).is_supersingular()
    gf16 = make_field(2, 4)
    ordinary = [p for p in enumerate_xprime(2, 2, gf16)
                if not p.is_supersingular()]
    # over GF(16) the only affine chart points are the supersingular six
    assert ordinary == []
    bigger = make_field(2, 8)
    mixed = enumerate_xprime(2, 2, bigger)
    assert any(not p.is_supersingular() for p in mixed)
    assert all(p.is_supersingular() for p in enumerate_xprime(2, 3, gf4))


def test_kernel_chain_examples():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    pt = TowerPoint(2, (w, gf4.one()))
    ch1 = pt.kernel_chain_poly(1)
    assert ch1 == kernel_line_poly(w, 2)
    assert kernel_in(ch1, gf4) == {gf4.zero(), w}

    ch2 = pt.kernel_chain_poly(2)
    assert ch2.tau_degree == 2
    sf = splitting_field(ch2)
    g2 = kernel_in(ch2.map_to(sf), sf)
    assert len(g2) == 4
    t1 = torsion_poly(embed(w, sf), 2)
    assert all(t1(y) in g2 for y in g2)

    with pytest.raises(ValueError):
        pt.kernel_chain_poly(0)
    with pytest.raises(ValueError):
        pt.kernel_chain_poly(3)


def test_kernel_chain_module_structure():
    # ascending kernels G_1 < G_2 < ... with T-action dropping one level
    gf4 = make_field(2, 2)
    for pt in enumerate_xprime(2, 3, gf4):
        chain_top = pt.kernel_chain_poly(pt.level)
        sf = splitting_field(chain_top)
        t1 = torsion_poly(embed(pt.coords[0], sf), 2)
        groups = {0: {sf.zero()}}
        for j in range(1, pt.level + 1):
            groups[j] = kernel_in(pt.kernel_chain_poly(j).map_to(sf), sf)
            assert len(groups[j]) == 2 ** j
            assert groups[j - 1] <= groups[j]
            assert {t1(y) for y in groups[j]} <= groups[j - 1]
            # cyclicity witness: an element the (j-1)-fold T-action keeps alive
            assert any((t1 ** (j - 1))(y) for y in groups[j])


def test_descent_exhaustive_small_levels():
    gf4 = make_field(2, 2)
    for n in (2, 3):
        for pt in enumerate_xprime(2, n, gf4):
            chain = pt.kernel_chain_poly(n - 1)
            sf = splitting_field(chain)
            target = embed(pt.coords[-1], sf)
            ys = preimages(chain.map_to(sf), target, sf)
            s = 2
            while not ys:
                sf = make_field(sf.p, chain.spec.m * s)
                ys = preimages(chain.map_to(sf), embed(pt.coords[-1], sf), sf)
                s += 1
            assert len(ys) == 2 ** (n - 1)
            for y in ys:
                assert verify_descent(pt, y)


def test_descent_precondition():
    gf4 = make_field(2, 2)
    pt = TowerPoint(2, (gf4.from_int(2), gf4.one()))
    with pytest.raises(ValueError, match="generate"):
        verify_descent(pt, gf4.zero())


@pytest.mark.parametrize("q", [2, 3])
def test_extension_solutions_are_trace_fibers(q):
    # for x1 in GF(q^2)* the q values z with z^q + z = x1^(q+1) are
    # exactly the elements of GF(q^2) with trace x1^(q+1) to GF(q)
    from drintower.finite_field import trace_to_subfield
    p, r = prime_power(q)
    k = make_field(p, r)
    k1 = _k1(q)
    for x1 in k1.nonzero_elements():
        want = x1 ** (q + 1)
        zs = {pt.coords[0] * pt.coords[1]
              for pt in TowerPoint(q, (x1,)).extend()}
        assert len(zs) == q
        by_trace = {z for z in k1.elements()
                    if embed(trace_to_subfield(z, k), k1) == want}
        assert zs == by_trace


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (3, 1)])
def test_mixed_coordinate_bridge_identity(q, m):
    # Z_{j+1}(1 + Z_{j+1})^(q-1) equals x_j^(q^2-1) on every point,
    # which is what makes the quotient recursion close up
    p, r = prime_power(q)
    field = make_field(p, 2 * r * m)
    one = field.one()
    for pt in enumerate_xprime(q, 3, field):
        zs = pt.project_to_x0().zcoords
        for j, z in enumerate(zs):
            x = pt.coords[j]
            assert z * (one + z) ** (q - 1) == x ** (q * q - 1)


def test_projection_examples():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    pt = TowerPoint(2, (w, gf4.one()))
    assert pt.project_to_x0().zcoords == (w,)
    for p in enumerate_xprime(2, 4, gf4):
        zs = p.project_to_x0()
        assert zs.level == p.level
        for a, b, z in zip(p.coords, p.coords[1:], zs.zcoords):
            assert z == a * b  # exponent q - 1 = 1 here
    zset = set(supersingular_z_values(2, gf4))
    for p in enumerate_xprime(2, 3, gf4):
        assert set(p.project_to_x0().zcoords) <= zset
    with pytest.raises(ValueError):
        TowerPoint(2, (w,)).project_to_x0()


def test_action_examples():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    pt = TowerPoint(2, (w, gf4.one()))
    assert pt.act(gf4.one()) == pt
    assert pt.act(w).ints() == (3, 3)
    assert pt.act(w).project_to_x0() == pt.project_to_x0()
    with pytest.raises(ValueError):
        pt.act(gf4.zero())
    gf256 = make_field(2, 8)
    outside = next(x for x in gf256.nonzero_elements()
                   if x.frobenius(2, 2) != x)
    with pytest.raises(ValueError, match="GF\\(q\\^2\\)"):
        pt.lift_to(gf256).act(outside)


def test_action_preserves_module_for_base_scalars():
    # scaling by k* leaves g (hence J) unchanged
    for q in (2, 3):
        k1 = _k1(q)
        base_scalars = [c for c in k1.nonzero_elements()
                        if c.frobenius(q) == c]
        for pt in enumerate_xprime(q, 2, k1)[:6]:
            m = module_from_torsion_point(pt.coords[0], q)
            for c in base_scalars:
                moved = pt.act(c)
                m2 = module_from_torsion_point(moved.coords[0], q)
                assert m2.g == m.g
                assert m2.j_invariant() == m.j_invariant()


@pytest.mark.parametrize("q", [2, 3])
def test_action_twists_g_by_norm_one_unit(q):
    # scaling x1 by c multiplies g by c/c^q, a (q+1)-st root of unity,
    # leaving the J-invariant fixed
    k1 = _k1(q)
    one = k1.one()
    for x1 in k1.nonzero_elements():
        base = module_from_torsion_point(x1, q)
        for c in k1.nonzero_elements():
            unit = c / c.frobenius(q)
            assert unit ** (q + 1) == one
            moved = module_from_torsion_point(c * x1, q)
            assert moved.g == unit * base.g
            assert moved.j_invariant() == base.j_invariant()


@pytest.mark.parametrize("q", [2, 3])
def test_action_is_group_action(q):
    k1 = _k1(q)
    scalars = list(k1.nonzero_elements())
    pts = enumerate_xprime(q, 3, k1)
    for pt in pts[:3]:
        for c in scalars:
            for d in scalars:
                assert pt.act(c * d) == pt.act(c).act(d)
    for pt in pts:
        base = pt.project_to_x0()
        for c in scalars:
            assert pt.act(c).project_to_x0() == base


def test_enumerate_x0_examples():
    gf4 = make_field(2, 2)
    pts = enumerate_x0(2, 2, gf4)
    assert [p.ints() for p in pts] == [(0,), (2,), (3,)]
    ss = [p for p in enumerate_x0(2, 3, gf4) if p.is_supersingular()]
    assert len(ss) == 4
    with pytest.raises(ValueError):
        enumerate_x0(2, 1, gf4)


def test_x0_fibers_are_orbits():
    for q, levels in ((2, (2, 3, 4)), (3, (2, 3))):
        k1 = _k1(q)
        scalars = list(k1.nonzero_elements())
        for n in levels:
            pts = enumerate_xprime(q, n, k1)
            fibers = {}
            for p in pts:
                fibers.setdefault(p.project_to_x0(), set()).add(p)
            ss_x0 = {p for p in enumerate_x0(q, n, k1)
                     if p.is_supersingular()}
            assert set(fibers) == ss_x0
            for rep_set in fibers.values():
                rep = next(iter(rep_set))
                assert {rep.act(c) for c in scalars} == rep_set
                assert len(rep_set) == q * q - 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_middle_coefficient_detects_supersingularity(q):
    p, r = prime_power(q)
    big = make_field(p, 4 * r)
    for x in big.nonzero_elements():
        vanishes = torsion_poly(x, q).coeffs[1] == big.zero()
        assert vanishes == (x.frobenius(q, 2) == x)


def test_supersingular_z_values_examples():
    gf4 = make_field(2, 2)
    assert [z.to_int() for z in supersingular_z_values(2, gf4)] == [2, 3]
    gf9 = make_field(3, 2)
    zs3 = supersingular_z_values(3, gf9)
    assert len(zs3) == 3
    for z in zs3:
        assert z.frobenius(3) == (gf9.one() + z) ** 2
    with pytest.raises(ValueError):
        supersingular_z_values(2, gf9)


def test_x0_point_validation():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    X0Point(2, (w, w))
    with pytest.raises(ValueError, match="degenerate"):
        X0Point(2, (gf4.one(),))      # -1 = 1 in characteristic 2
    with pytest.raises(ValueError, match="recursion"):
        X0Point(2, (gf4.zero(), w))


def test_x0_enumeration_matches_direct_filter():
    # independent oracle: filter all coordinate tuples by the recursion
    gf9 = make_field(3, 2)
    one = gf9.one()
    minus_one = -one
    allowed = [z for z in gf9.elements() if z != minus_one]
    direct = []
    for za in allowed:
        for zb in allowed:
            if zb * (one + zb) ** 2 == za.frobenius(3) / (one + za) ** 2:
                direct.append((za.to_int(), zb.to_int()))
    got = [p.ints() for p in enumerate_x0(3, 3, gf9)]
    assert sorted(direct) == got


def test_serialization():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    pt = TowerPoint(2, (w, gf4.one()))
    assert pt.serialize() == ["0,1", "1,0"]
    assert pt.project_to_x0().serialize() == ["0,1"]


def test_walk_checks_reject_corrupted_columns():
    # the row masks that replace per-point validation must flag a single
    # bad coordinate, and only its row
    import numpy as np
    from drintower import tower
    gf16 = make_field(2, 4)
    cols = [c.copy() for c in xprime_columns(2, 3, gf16)]
    assert tower.xprime_relation_mask(2, gf16, cols).all()
    # x3 -> x3 + 1 moves z = x2*x3 by x2, off the solution coset
    # unless x2 lies in GF(2)
    row = np.flatnonzero(cols[1] != 1)[0]
    cols[2][row] ^= 1
    flagged = ~tower.xprime_relation_mask(2, gf16, cols)
    assert np.flatnonzero(flagged).tolist() == [row]

    zcols = [c.copy() for c in x0_columns(2, 3, gf16)]
    assert tower.x0_recursion_mask(2, gf16, zcols).all()
    forward = tower._z_forward(2, gf16, np.arange(16))
    old = zcols[1][0]
    zcols[1][0] = next(v for v in range(16)
                       if v != 1 and forward[v] != forward[old])
    assert np.flatnonzero(
        ~tower.x0_recursion_mask(2, gf16, zcols)).tolist() == [0]
    zcols[1][0] = 1  # the excluded value -1 in characteristic 2
    assert np.flatnonzero(
        ~tower.x0_recursion_mask(2, gf16, zcols)).tolist() == [0]
    zcols[1][0] = old
    zcols[0][0] = 1  # -1 as the left side of the recursion, too
    assert np.flatnonzero(
        ~tower.x0_recursion_mask(2, gf16, zcols)).tolist() == [0]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_supersingular_masks_match_point_methods(q):
    from drintower.tower import (x0_supersingular_mask,
                                 xprime_supersingular_mask)
    p, r = prime_power(q)
    big = make_field(p, 6 * r)  # GF(q^6): both kinds of points occur
    for n in (2, 3):
        for columns, mask, enum in (
                (xprime_columns, xprime_supersingular_mask,
                 enumerate_xprime),
                (x0_columns, x0_supersingular_mask, enumerate_x0)):
            keep = mask(q, big, columns(q, n, big))
            expected = [pt.is_supersingular() for pt in enum(q, n, big)]
            assert keep.tolist() == expected
            assert 0 < sum(expected) < len(expected)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_walks_keep_rows_in_lexsort_order(q):
    # the walks order rows level by level, without a final lexsort
    import numpy as np
    p, r = prime_power(q)
    big = make_field(p, 6 * r)
    for n in (2, 3, 4):
        for columns in (xprime_columns, x0_columns):
            cols = columns(q, n, big)
            order = np.lexsort(cols[::-1])
            assert len(order) > q
            assert np.array_equal(order, np.arange(len(order)))
            rows = np.stack(cols, axis=1)
            assert len(np.unique(rows, axis=0)) == len(rows)


def test_xprime_mask_rejects_supersingular_row_leaving_gf_q2():
    import numpy as np
    from drintower.tower import xprime_supersingular_mask
    gf16 = make_field(2, 4)
    cols = [c.copy() for c in xprime_columns(2, 2, gf16)]
    row = np.flatnonzero(xprime_supersingular_mask(2, gf16, cols))[0]
    cols[1][row] = next(x.to_int() for x in gf16.nonzero_elements()
                        if x.frobenius(2, 2) != x)
    with pytest.raises(RuntimeError, match="left GF"):
        xprime_supersingular_mask(2, gf16, cols)


def test_module_caches_are_bounded():
    from drintower import finite_field, tower
    for fn in (finite_field._embedding_powers,
               finite_field._embedding_section,
               finite_field.subfield_elements,
               tower.supersingular_z_values):
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None and maxsize > 0, fn.__name__
