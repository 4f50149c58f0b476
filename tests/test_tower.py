import random

import pytest

from drintower.finite_field import embed, make_field, prime_power
from drintower.linearized import LinearizedPoly, kernel_in, preimages, \
    splitting_field
from drintower.tower import (
    TowerPoint,
    X0Point,
    cofactor_poly,
    degenerate_z_skips,
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


# (q, p, m, modulus)
XPRIME_ORACLE_CASES = [
    (2, 2, 2, None),
    (2, 2, 4, None),
    (4, 2, 4, None),
    (4, 2, 4, (1, 0, 0, 1, 1)),  # not the default modulus
    (3, 3, 2, None),
    (5, 5, 2, None),
]


def test_xprime_enumeration_matches_direct_filter():
    # independent oracle: grow the tower level by level, testing every
    # nonzero field element against the relation in scalar arithmetic
    top_keys = 0
    for q, p, m, modulus in XPRIME_ORACLE_CASES:
        field = make_field(p, m, modulus)
        nonzero = list(field.nonzero_elements())
        rows = [(x,) for x in nonzero]
        for n in (2, 3, 4):
            rows = [row + (b,) for row in rows for b in nonzero
                    if (row[-1] * b) ** q + row[-1] * b
                    == row[-1] ** (q + 1)]
            got = list(zip(*(c.tolist()
                             for c in xprime_columns(q, n, field))))
            assert got == [tuple(x.to_int() for x in row) for row in rows], \
                (q, field, n)
            if n > 2:
                # the top encoding as a key with children reads
                # starts[size] in the walk's bucket index
                top_keys += sum(row[-2] == field.size - 1 for row in got)
    assert top_keys


def test_xprime_walk_solves_once(monkeypatch):
    # one solver pass lists every edge; the later levels only look up
    from drintower.finite_field import GFpSolver
    calls = []

    def counting(name, method):
        def counted(self, rhs):
            calls.append(name)
            return method(self, rhs)
        return counted

    for name in ("consistent_ints", "solve_ints"):
        monkeypatch.setattr(GFpSolver, name,
                            counting(name, getattr(GFpSolver, name)))
    xprime_columns(2, 5, make_field(2, 4))
    assert sorted(calls) == ["consistent_ints", "solve_ints"]


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


# (q, p, m, modulus, whether the top encoding size - 1 is a left side
# of the recursion, and so the last bucket of the walk's index)
X0_ORACLE_CASES = [
    (2, 2, 2, None, False),
    (2, 2, 4, None, False),
    (4, 2, 4, None, False),
    (4, 2, 4, (1, 0, 0, 1, 1), False),  # not the default modulus
    (3, 3, 2, None, True),
    (5, 5, 2, None, True),
]


def test_x0_enumeration_matches_direct_filter():
    for case in X0_ORACLE_CASES:
        for n in (3, 4):
            _check_x0_against_direct_filter(*case, n)


def _check_x0_against_direct_filter(q, p, m, modulus, top_key, n):
    # independent oracle: grow the quotient tower level by level, testing
    # every field element against the recursion in scalar arithmetic
    field = make_field(p, m, modulus)
    one = field.one()
    minus_one = -one
    elements = list(field.elements())
    left = [z * (one + z) ** (q - 1) for z in elements]
    assert (field.from_int(field.size - 1) in left) == top_key
    rows = [(z.to_int(),) for z in elements if z != minus_one]
    skips = 1  # the excluded seed
    for _ in range(n - 2):
        grown = []
        for row in rows:
            za = field.from_int(row[-1])
            right = za ** q / (one + za) ** (q - 1)
            for zb, lhs in zip(elements, left):
                if lhs != right:
                    continue
                if zb == minus_one:
                    skips += 1
                else:
                    grown.append(row + (zb.to_int(),))
        rows = grown
    got = list(zip(*(c.tolist() for c in x0_columns(q, n, field))))
    assert got == sorted(rows), (q, field, n)
    assert degenerate_z_skips(q, n, field) == skips, (q, field, n)


def test_serialization():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    pt = TowerPoint(2, (w, gf4.one()))
    assert pt.serialize() == ["0,1", "1,0"]
    assert pt.project_to_x0().serialize() == ["0,1"]
    assert repr(pt) == "TowerPoint(q=2, ['0,1', '1,0'])"
    assert repr(X0Point(2, (w, w))) == "X0Point(q=2, ['0,1', '0,1'])"
    # the two point types share one base but never compare equal
    tp, zp = TowerPoint(2, (w,)), X0Point(2, (w,))
    assert tp.coords == zp.coords == zp.zcoords and tp != zp
    assert TowerPoint._checked_elsewhere(2, (w,)) == tp
    assert X0Point._checked_elsewhere(2, (w,)) == zp
    assert len({tp, zp, TowerPoint(2, (w,))}) == 2
    with pytest.raises(AttributeError):
        zp.zcoords = (w, w)


def test_walk_checks_reject_corrupted_columns(monkeypatch):
    # the row masks that replace per-point validation must flag a single
    # bad coordinate, and only its row
    import numpy as np
    from drintower import tower
    from drintower.counting import count_points
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
    # the walk's check has no scan of its own for -1: a bucket member at
    # -1 (the row (0, -1) here) fails the recursion mask
    with monkeypatch.context() as patched:
        _corrupt_bucket_member(patched, 2, gf16, "x0", value=1)
        with pytest.raises(RuntimeError,
                           match="fails the quotient recursion"):
            x0_columns(2, 3, gf16)

    # one wrong bucket member fails the columns
    for variant, columns in (("xprime", xprime_columns),
                             ("x0", x0_columns)):
        with monkeypatch.context() as patched:
            _corrupt_bucket_member(patched, 2, gf16, variant)
            with pytest.raises(RuntimeError, match="enumerated point fails"):
                columns(2, 3, gf16)

    # the count reads no bucket: it fails on a key outside the field,
    # over GF(q^2), where it takes the tallies, and over an extension,
    # where it only counts
    backward = tower._z_backward
    for m in (1, 2):
        for shift in (-1, 1):
            def shifted(q, field, z, shift=shift, m=m):
                keys = backward(q, field, z)
                if field.size == q ** (2 * m):
                    keys[:1] += shift * field.size
                return keys

            monkeypatch.setattr(tower, "_z_backward", shifted)
            with pytest.raises(RuntimeError, match="outside the field"):
                count_points(2, 3, "x0", 1, m)
            monkeypatch.undo()
    # and on a level whose scattered total differs from its gathered
    # total: int8 weights wrap past 127 in a level-12 count over GF(4)
    monkeypatch.setattr(tower, "_weight_dtype",
                        lambda q, n, field: np.int8)
    for variant in ("xprime", "x0"):
        with pytest.raises(RuntimeError, match="lost in a scatter"):
            count_points(2, 12, variant, 1, 1)


def _corrupt_bucket_member(monkeypatch, q, field, variant, value=None):
    """Patch tower._expand so that the variant's step from level 2 to 3
    (x0 grows from one column, x' from two) sees one bucket member
    replaced by a value that breaks its row's relation, or by value: the
    first member of the bucket of the first parent row whose bucket is
    not empty (and, for x', whose last coordinate is not 1)."""
    import numpy as np
    from drintower import tower
    real = tower._expand

    def expand(cols, starts, members, key):
        if (len(cols) == 1) == (variant == "x0"):
            keys = key(cols[-1])
            usable = starts[keys + 1] > starts[keys]
            if variant == "xprime":
                usable &= keys != 1  # x -> x + 1 moves z = a*x by a
            i = starts[keys[np.flatnonzero(usable)[0]]]
            members = members.copy()
            if value is not None:
                members[i] = value
            elif variant == "xprime":
                members[i] ^= 1
            else:
                forward = tower._z_forward(q, field, np.arange(field.size))
                members[i] = next(
                    v for v in range(field.size) if v != field.p - 1
                    and forward[v] != forward[members[i]])
        return real(cols, starts, members, key)

    monkeypatch.setattr(tower, "_expand", expand)


def test_xprime_level_two_edges_are_written_once():
    # the edge columns are allocated at their count and filled block by
    # block, not concatenated from block lists, so the traced peak of a
    # level-2 walk stays near the bytes of its two output columns
    import tracemalloc
    field = make_field(2, 18)
    field.tables()  # the tables are not part of the walk
    tracemalloc.start()
    try:
        cols = xprime_columns(2, 2, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sum(c.nbytes for c in cols)


@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_xprime_edges_off_their_count_raise(monkeypatch, change):
    # the Hermitian edge count is checked, not trusted: a dropped edge
    # block ends short of it, a repeated one overruns it
    from drintower import finite_field, tower
    monkeypatch.setattr(finite_field, "_CHUNK", 16)
    real = tower._xprime_edge_blocks

    def blocks(q, field):
        out = list(real(q, field))
        i = next(i for i, (x, t) in enumerate(out) if t.size)
        return iter(out[:i] + out[i + 1:] if change == "drop"
                    else out[:i + 1] + out[i:])

    monkeypatch.setattr(tower, "_xprime_edge_blocks", blocks)
    for n in (2, 3):
        with pytest.raises(RuntimeError, match="level-2 edges"):
            xprime_columns(2, n, make_field(2, 8))


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


def _weights_match_columns(q, field, variant, levels):
    """The transfer count of each level n against the column walk's
    levels 2..n: the count is the length of the level-n columns, every
    weight array the walk scatters equals a bincount of the columns, and
    the supersingular count (x0) and tally (x') equal the mask sums.

    The x' weight of x at level j counts the level-j rows ending in x;
    the x0 weight of k counts those whose last Z has _z_backward = k.
    """
    import numpy as np
    from drintower import tower
    from drintower.counting import count_points
    mask = getattr(tower, f"{variant}_supersingular_mask")
    real = tower._transfer
    for n in range(2, len(levels) + 2):
        weights = []

        def spy(*args):
            out = real(*args)
            if out[0] is not None:
                weights.append(out[0])
            return out

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(tower, "_transfer", spy)
            count = getattr(tower, f"{variant}_count")(q, n, field)
        assert count == len(levels[n - 2][0])
        assert len(weights) == n - 2
        for cols, got in zip(levels, weights):
            last = cols[-1]
            if variant == "x0":
                last = tower._z_backward(q, field, last)
            assert np.array_equal(got, np.bincount(last,
                                                   minlength=field.size))
        ss = int(mask(q, field, levels[n - 2]).sum())
        if variant == "x0":
            assert tower.x0_count(q, n, field, supersingular=True) == ss
        ext, rem = divmod(field.m, 2 * prime_power(q)[1])
        report = count_points(q, n, variant, ext, ext)
        assert rem == 0 and report.rows[0].count == count
        if ext == 1:
            assert report.supersingular_count == ss


def _walk_levels(q, n, field, variant):
    columns = xprime_columns if variant == "xprime" else x0_columns
    return [columns(q, j, field) for j in range(2, n + 1)]


# (q, p, m): GF(16), GF(2^10), GF(2^8), GF(81) and GF(25)
BLOCK_CASES = [(2, 2, 4), (2, 2, 10), (4, 2, 8), (3, 3, 4), (5, 5, 2)]


@pytest.mark.parametrize("chunk", [None, 5])
def test_block_counts_match_column_lengths(monkeypatch, chunk):
    # with 5 entries a block, the blocks split the x' edge solve, the
    # seeds, the key passes, the growth of the middle levels and every
    # transfer step, which up to level 5 must still give the unpatched
    # columns, and counts and weights that match them
    import numpy as np
    from drintower import finite_field
    cases = [(q, make_field(p, m), variant)
             for q, p, m in BLOCK_CASES for variant in ("xprime", "x0")]
    reference = [_walk_levels(q, 5, field, variant)
                 for q, field, variant in cases]
    if chunk is not None:
        monkeypatch.setattr(finite_field, "_CHUNK", chunk)
    for (q, field, variant), levels in zip(cases, reference):
        assert all(len(cols[0]) > 0 for cols in levels)
        assert [[c.tolist() for c in cols]
                for cols in _walk_levels(q, 5, field, variant)] == \
            [[c.tolist() for c in cols] for cols in levels]
        _weights_match_columns(q, field, variant, levels)
        if variant == "x0":
            # a row ending in Z = 0 has right side 0 and loses one branch
            # to -1; its one child, 0 again, keeps it in every later column
            for n, cols in enumerate(levels, 2):
                skipped = 1 + sum(int(np.count_nonzero(c == 0))
                                  for c in cols[:-1])
                assert degenerate_z_skips(q, n, field) == skipped


def _golden_count_configs():
    from test_golden import GOLDEN
    for argv, _ in GOLDEN:
        if argv[0] == "count":
            flags = dict(zip(argv[1::2], argv[2::2]))
            yield pytest.param(flags, id=" ".join(argv))


@pytest.mark.parametrize("flags", _golden_count_configs())
def test_weights_match_columns_on_golden_count_configs(flags):
    from drintower.counting import FieldContext
    from drintower.cli import _parse_ext, _parse_modulus
    q, n = int(flags["--q"]), int(flags["--n"])
    variant = flags.get("--variant", "xprime")
    ctx = FieldContext(moduli=dict(
        [_parse_modulus(flags["--modulus"])] if "--modulus" in flags
        else []))
    m_first, m_last = _parse_ext(flags["--ext"])
    for m in range(m_first, m_last + 1):
        field = ctx.extension_of_k1(q, m)
        _weights_match_columns(q, field, variant,
                               _walk_levels(q, n, field, variant))


# the largest extension m with |GF(q^(2m))| <= 2^16, per q
DRAWN_FIELDS = {2: 8, 3: 5, 4: 4, 5: 3, 7: 2, 8: 2, 9: 2, 11: 2, 13: 2,
                16: 2}


def test_weights_match_columns_on_drawn_cases():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        st.sampled_from(sorted(DRAWN_FIELDS)).flatmap(
            lambda q: st.tuples(st.just(q), st.integers(2, 5),
                                st.integers(1, DRAWN_FIELDS[q]))),
        st.sampled_from(["xprime", "x0"]))
    def check(case, variant):
        q, n, m = case
        p, r = prime_power(q)
        field = make_field(p, 2 * r * m)
        _weights_match_columns(q, field, variant,
                               _walk_levels(q, n, field, variant))

    check()


def test_degenerate_z_skips_is_closed_form_without_field_work(monkeypatch):
    # n - 1 in every field: no table is built, no level is walked
    from drintower import finite_field
    big = make_field(2, 20)

    def refuse(*args, **kwargs):
        raise AssertionError("degenerate_z_skips did field-sized work")

    monkeypatch.setattr(finite_field.FieldSpec, "tables", refuse)
    for q in (2, 4):
        for n in (2, 3, 4, 9):
            assert degenerate_z_skips(q, n, big) == n - 1
    with pytest.raises(ValueError, match="level 2"):
        degenerate_z_skips(2, 1, big)
    with pytest.raises(ValueError, match="must contain"):
        degenerate_z_skips(3, 3, big)


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
    from drintower import finite_field, linearized
    for fn in (finite_field._embedding_powers,
               finite_field._embedding_section,
               finite_field._field,
               finite_field.subfield_elements,
               linearized._solver_for):
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None and maxsize > 0, fn.__name__
