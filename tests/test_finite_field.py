import itertools
import random

import numpy as np
import pytest

from drintower.finite_field import (
    CapExceededError,
    FieldElement,
    FieldSpec,
    GFpSolver,
    _LEX_FIRST,
    embed,
    first_irreducible,
    gfp_apply,
    is_irreducible,
    make_field,
    prime_power,
    project,
    subfield_elements,
    trace_to_subfield,
)


def _int_encode(coeffs, p):
    n = 0
    for c in reversed(coeffs):
        n = n * p + c
    return n


def test_lex_first_moduli_against_sympy():
    # every frozen entry is irreducible by sympy's independent test, and
    # every monic polynomial of its degree with a smaller encoding is not
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    for (p, m), enc in _LEX_FIRST.items():
        for n in range(p**m, enc + 1):
            big_endian = [n // p**i % p for i in range(m, -1, -1)]
            assert gt.gf_irreducible_p(big_endian, p, ZZ) == (n == enc), \
                (p, m, n)


def test_make_field_unique_quadratic_over_gf2():
    spec = make_field(2, 2, (1, 1, 1))
    assert spec.modulus == (1, 1, 1)
    assert spec.size == 4


def test_make_field_rejects_reducible():
    with pytest.raises(ValueError, match="reducible"):
        make_field(2, 2, (1, 0, 1))


def test_make_field_returns_the_live_spec_after_eviction():
    # GF(2^12) leaves the 16-entry spec cache while the solver cache still
    # holds it with its tables; make_field must return that spec, not
    # build a second one with a second set of tables
    import weakref
    from drintower.linearized import LinearizedPoly, _solver_for
    spec = make_field(2, 12)
    spec.tables()
    _solver_for(LinearizedPoly.from_ints(2, spec, [1, 1]), spec)
    alive = weakref.ref(spec)
    del spec
    primes = [p for p in range(3, 100) if all(p % d for d in range(2, p))]
    for p in primes[:18]:
        make_field(p, 1)
    assert alive() is not None
    assert make_field(2, 12) is alive() and alive()._exp is not None


def test_default_modulus_gf9_is_lex_first():
    assert make_field(3, 2).modulus == (1, 0, 1)


def test_default_modulus_matches_fresh_search():
    # re-derive small table entries without the cache
    for (p, m) in ((2, 2), (2, 3), (2, 4), (2, 8), (2, 10),
                   (3, 2), (3, 3), (3, 5), (5, 2), (5, 3), (7, 2)):
        lead = p**m
        found = None
        for low in range(lead):
            cand = []
            n = low + lead
            while n:
                cand.append(n % p)
                n //= p
            if is_irreducible(cand, p):
                found = tuple(cand)
                break
        assert found == first_irreducible(p, m)
        assert _int_encode(found, p) == _LEX_FIRST[(p, m)]


def test_size_cap():
    with pytest.raises(CapExceededError):
        make_field(2, 30, cap=2**24)
    assert make_field(2, 25, cap=2**26).size == 2**25


def test_size_cap_is_checked_before_primality(monkeypatch):
    # a p or m far past the cap is refused without a primality test
    # (trial division up to 10^9 here) or a power of 3*10^9 bits
    import drintower.finite_field as ff

    def refuse(n):
        raise AssertionError("primality tested before the size cap")

    monkeypatch.setattr(ff, "_is_prime", refuse)
    for p, m in ((10**18 + 3, 1), (2, 3 * 10**9), (7, 9), (2, 25)):
        with pytest.raises(CapExceededError):
            make_field(p, m, cap=2**24)


def test_non_prime_p_rejected():
    with pytest.raises(ValueError, match="not prime"):
        make_field(6, 1)
    with pytest.raises(ValueError, match="not prime"):
        make_field(1, 10**9)


def test_arith_examples():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    assert w * w == gf4.from_int(3)          # w^2 = w + 1
    assert w + w == gf4.zero()
    gf9 = make_field(3, 2)
    i = gf9.element((0, 1))
    assert i * i == gf9.constant(2)          # i^2 = -1 = 2


def test_arith_mismatched_specs():
    a = make_field(2, 2).one()
    b = make_field(2, 3).one()
    with pytest.raises(ValueError, match="embed first"):
        a + b


def test_reverse_division_by_foreign_operand():
    gf9 = make_field(3, 2)
    a = gf9.from_int(5)
    with pytest.raises(TypeError, match="/"):
        "x" / a
    assert 1 / a == a.inverse()
    assert 2 / a == gf9.constant(2) * a.inverse()


def test_division_by_zero():
    gf4 = make_field(2, 2)
    with pytest.raises(ZeroDivisionError):
        gf4.one() / gf4.zero()
    with pytest.raises(ZeroDivisionError):
        gf4.zero().inverse()


def test_frobenius_examples():
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    assert w.frobenius(2) == w * w
    assert w.frobenius(2, 0) == w
    assert w.frobenius(2, 2) == w
    for q in (3, 6, 1, 0, -2):
        with pytest.raises(ValueError, match="not a power"):
            w.frobenius(q)


@pytest.mark.parametrize("p,m,q", [(2, 6, 2), (2, 6, 4), (2, 6, 8),
                                   (3, 4, 3), (3, 4, 9), (5, 2, 5),
                                   (2, 25, 2)])
def test_frobenius_is_e_fold_powering(p, m, q):
    # one power a^(q^e) against e successive q-th powers, with and
    # without tables (GF(2^25) lies past the table budget)
    spec = make_field(p, m, cap=2**25)
    rng = random.Random(f"frobenius {p}^{m}:{q}")
    for a in [spec.zero(), spec.one()] + [spec.random_nonzero(rng)
                                          for _ in range(20)]:
        want = a
        for e in range(4):
            assert a.frobenius(q, e) == want
            want = want ** q


@pytest.mark.parametrize("p,m,modulus", [
    (2, 1, None), (2, 6, None), (2, 6, (1, 1, 0, 1, 1, 0, 1)),
    (3, 4, None), (3, 4, (2, 1, 2, 2, 1)), (5, 3, None), (7, 2, None)])
def test_frobenius_matrix_exhaustive(p, m, modulus):
    # column j of frobenius_matrix(k) is the image of x^j, so the matrix
    # applied to the digits of every a is a^(p^k), for every k < m
    spec = FieldSpec(p, m, modulus or first_irreducible(p, m))
    vals = np.arange(spec.size)
    for k in range(m):
        assert gfp_apply(spec.frobenius_matrix(k), p, vals).tolist() == \
            [(a ** p**k).n for a in spec.elements()], k


# a dense non-default irreducible modulus for each sympy cross-check
_DENSE_MODULI = {
    (2, 16): (1, 0, 1, 1, 0) + (1,) * 12,
    (17, 4): (13, 16, 16, 16, 1),
    (3, 10): (1, 1) + (2,) * 8 + (1,),
    (2, 32): (1, 0, 1, 0) + (1,) * 29,
}


@pytest.mark.parametrize("p,m", sorted(_DENSE_MODULI))
@pytest.mark.parametrize("default_modulus", [True, False])
def test_schoolbook_path_against_sympy(p, m, default_modulus):
    # the digit-tuple products and powers share their GF(p)[x] arithmetic
    # with the Rabin test, the Euclid inverse and every field matrix;
    # sympy's gf_mul/gf_rem and gf_pow_mod are an independent oracle
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    modulus = first_irreducible(p, m) if default_modulus \
        else _DENSE_MODULI[(p, m)]
    f = list(reversed(modulus))
    assert gt.gf_irreducible_p(f, p, ZZ)
    spec = make_field(p, m, modulus, cap=2**40)

    def big_endian(a):
        return gt.gf_strip(list(reversed(a)))

    def digits(g):
        return tuple(reversed(g)) + (0,) * (m - len(g))

    rng = random.Random(f"sympy {p}^{m}:{default_modulus}")
    for i in range(100):
        a, b = (tuple(rng.randrange(p) for _ in range(m)) for _ in range(2))
        n = (0, 1, spec.size - 1)[i] if i < 3 \
            else rng.randrange(3 * spec.size)
        assert spec._mul_generic(a, b) == digits(gt.gf_rem(
            gt.gf_mul(big_endian(a), big_endian(b), p, ZZ), f, p, ZZ))
        assert spec._pow_generic(a, n) == \
            digits(gt.gf_pow_mod(big_endian(a), n, f, p, ZZ))


def test_trace_examples():
    gf2 = make_field(2, 1)
    gf4 = make_field(2, 2)
    w = gf4.from_int(2)
    assert trace_to_subfield(w, gf2) == gf2.one()
    assert trace_to_subfield(gf4.zero(), gf2) == gf2.zero()
    assert trace_to_subfield(gf4.one(), gf2) == gf2.zero()


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16])
def test_trace_map_exhaustive(q):
    p, r = prime_power(q)
    k = make_field(p, r)
    k1 = make_field(p, 2 * r)
    for a in k1.elements():
        tr = trace_to_subfield(a, k)
        assert embed(tr, k1) == a + a.frobenius(q)
        assert tr.frobenius(q) == tr


def test_trace_wrong_extension():
    gf4 = make_field(2, 2)
    gf8 = make_field(2, 3)
    with pytest.raises(ValueError, match="quadratic"):
        trace_to_subfield(gf8.one(), gf4)


def test_enumerate_examples():
    gf2 = make_field(2, 1)
    assert [e.to_int() for e in gf2.elements()] == [0, 1]
    gf4 = make_field(2, 2)
    assert [e.to_int() for e in gf4.elements()] == [0, 1, 2, 3]
    gf9 = make_field(3, 2)
    seen = list(gf9.elements())
    assert len(seen) == 9 and len(set(seen)) == 9


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (2, 5),
                                 (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_field_axioms_exhaustive(p, m):
    spec = make_field(p, m)
    els = list(spec.elements())
    one = spec.one()
    for a in els:
        assert a + spec.zero() == a
        assert a * one == a
        if a:
            assert a * a.inverse() == one
        assert a ** spec.size == a
    for a in els:
        for b in els:
            for c in els:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,m", [(2, 6), (3, 4), (2, 8), (5, 3)])
def test_field_axioms_sampled(p, m):
    spec = make_field(p, m)
    rng = random.Random(2024)
    one = spec.one()
    for _ in range(1500):
        a, b, c = (spec.random_element(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a
        if a:
            assert a * a.inverse() == one


@pytest.mark.parametrize("p,m", [(2, 6), (3, 4), (5, 2), (7, 2)])
def test_log_table_path_bit_identical(p, m):
    spec = make_field(p, m)
    spec._build_tables()
    els = list(spec.elements())
    for a in els:
        for b in els:
            assert spec.from_int(spec._mul(a.n, b.n)).coeffs == \
                spec._mul_generic(a.coeffs, b.coeffs)
    rng = random.Random(p + m)
    for _ in range(500):
        a = spec.random_element(rng)
        n = rng.randrange(0, 3 * spec.size)
        assert (a ** n).coeffs == spec._pow_generic(a.coeffs, n)
        if a:
            assert a.inverse() * a == spec.one()
            assert (a ** -7) * (a ** 7) == spec.one()
    zero = spec.zero()
    assert zero ** 0 == spec.one()
    assert zero ** 5 == zero
    with pytest.raises(ZeroDivisionError):
        zero ** -1


def _search_bases(spec):
    """The encodings _build_tables raises to powers, in order of first
    use, while it searches for a primitive element."""
    bases = []
    pow_generic = spec._pow_generic

    def record(a, n):
        bases.append(_int_encode(a, spec.p))
        return pow_generic(a, n)

    spec._pow_generic = record
    spec._build_tables()
    return list(dict.fromkeys(bases))


def test_primitive_search_runs_down_from_the_top():
    # the search tries size-1, size-2, ... and stops at the generator
    # exp[1]
    spec = FieldSpec(3, 4, first_irreducible(3, 4))
    assert _search_bases(spec) == \
        list(range(spec.size - 1, int(spec._exp[1]) - 1, -1))
    # no linear element is primitive modulo the binomial x^4 + 3, which
    # an upward search from p had to try in turn (291 candidates)
    modulus = first_irreducible(17, 4)
    assert modulus == (3, 0, 0, 0, 1)
    spec = FieldSpec(17, 4, modulus)
    bases = _search_bases(spec)
    assert bases[-1] == spec._exp[1] and len(bases) <= 10


# a non-default irreducible modulus for each sampled table check
_OTHER_MODULI = {
    (2, 16): (1, 1, 0, 1) + (0,) * 8 + (1, 0, 0, 0, 1),
    (17, 4): (1, 3, 0, 0, 1),
    (2, 18): (1,) + (0,) * 6 + (1,) + (0,) * 10 + (1,),
}


@pytest.mark.parametrize("p,m", sorted(_OTHER_MODULI))
@pytest.mark.parametrize("default_modulus", [True, False])
def test_table_path_matches_schoolbook_sampled(p, m, default_modulus):
    modulus = first_irreducible(p, m) if default_modulus \
        else _OTHER_MODULI[(p, m)]
    # a field built outside the cache starts without tables; once built
    # (by hand here, as an array walk would), products, inverses and
    # powers equal the schoolbook path
    spec = FieldSpec(p, m, modulus)
    assert spec._exp is None and spec._log is None
    spec._build_tables()
    one = spec.one().coeffs
    order = spec.size - 1
    rng = random.Random(f"{p}^{m}:{default_modulus}")
    for _ in range(10**4):
        a = spec.random_element(rng)
        b = spec.random_element(rng)
        assert spec.from_int(spec._mul(a.n, b.n)).coeffs == \
            spec._mul_generic(a.coeffs, b.coeffs)
        if a:
            inv = spec.from_int(spec._inv(a.n)).coeffs
            assert spec._mul_generic(a.coeffs, inv) == one
    for _ in range(100):
        a = spec.random_nonzero(rng)
        n = rng.randrange(-3 * spec.size, 3 * spec.size)
        assert (a ** n).coeffs == spec._pow_generic(a.coeffs, n % order)
    zero = spec.zero()
    assert zero ** 0 == spec.one()
    assert zero ** 5 == zero
    with pytest.raises(ZeroDivisionError):
        zero ** -1
    with pytest.raises(ZeroDivisionError):
        zero.inverse()


def test_tables_are_built_on_first_need():
    # one limit: the first product in any field within the table budget
    # builds the tables (past it, see test_tables_refused_past_budget)
    for spec, n in ((FieldSpec(2, 4, (1, 1, 0, 0, 1)), 5),
                    (FieldSpec(17, 4, (3, 0, 0, 0, 1)), 12345)):
        assert spec._exp is None
        a = spec.from_int(n)
        assert (a * a).coeffs == spec._mul_generic(a.coeffs, a.coeffs)
        assert spec._exp is not None  # the first product built them
        exp, log = spec.tables()
        assert spec._exp is exp and len(exp) == spec.size - 1
        assert log[exp[7]] == 7


def test_linear_maps_build_no_tables():
    # solver matrices, subfields and embeddings take schoolbook
    # products; a modulus no other test uses keeps the caches cold
    from drintower.linearized import LinearizedPoly, _solver_for
    spec = FieldSpec(2, 12, (1, 1, 1, 0, 1) + (0,) * 7 + (1,))
    u = LinearizedPoly.from_ints(4, spec, [1, 1])
    assert len(_solver_for(u, spec).nullspace) == 2
    assert len(subfield_elements(spec, 16)) == 16
    w = embed(make_field(2, 2).from_int(2), spec)
    assert spec._exp is None
    assert w * w + w == spec.one()


def test_table_path_never_encodes_digits(monkeypatch):
    # with tables, products, inverses and powers work on the integer
    # encoding alone: no digit tuple is turned back into an encoding
    from drintower import finite_field
    spec = make_field(3, 5)
    spec.tables()
    rng = random.Random(35)
    pairs = [(spec.random_nonzero(rng), spec.random_element(rng))
             for _ in range(200)]
    want = [(spec._mul_generic(a.coeffs, b.coeffs),
             spec._pow_generic(a.coeffs, spec.size - 2),
             spec._pow_generic(b.coeffs, 5)) for a, b in pairs]

    def refuse(*args):
        raise AssertionError("a digit tuple was encoded")

    monkeypatch.setattr(finite_field, "_encode", refuse)
    for (a, b), (prod, inv, fifth) in zip(pairs, want):
        assert (a * b).coeffs == prod
        assert a.inverse().coeffs == inv
        assert (b ** 5).coeffs == fifth
        assert a ** -1 == a.inverse() and (b / a) * a == b
        assert a.frobenius(3, 2) == a ** 9


@pytest.mark.parametrize("p,m", [(2, 12), (3, 7), (17, 3)])
def test_tables_built_in_small_chunks_are_bit_identical(p, m, monkeypatch):
    from drintower import finite_field
    whole = FieldSpec(p, m, first_irreducible(p, m)).tables()
    monkeypatch.setattr(finite_field, "_CHUNK", 100)
    chunked = FieldSpec(p, m, first_irreducible(p, m)).tables()
    for a, b in zip(whole, chunked):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_tables_refused_past_budget():
    spec = FieldSpec(2, 25, first_irreducible(2, 25))
    with pytest.raises(CapExceededError, match="table budget"):
        spec.tables()
    assert spec._exp is None
    a = spec.from_int(3)
    assert (a * a).coeffs == spec._mul_generic(a.coeffs, a.coeffs)


@pytest.mark.parametrize("p,m", [(2, 5), (3, 3), (5, 2)])
def test_array_arithmetic_matches_scalar(p, m):
    spec = make_field(p, m)
    els = list(spec.elements())
    a, b = (np.array(v) for v in zip(*itertools.product(
        range(spec.size), repeat=2)))
    assert spec.add_ints(a, b).tolist() == \
        [(x + y).to_int() for x in els for y in els]
    assert spec.power_product((a, 2), (b, 1)).tolist() == \
        [(x * x * y).to_int() for x in els for y in els]
    nz = b != 0
    assert spec.power_product((a[nz], 1), (b[nz], -1)).tolist() == \
        [(x / y).to_int() for x in els for y in els if y]
    with pytest.raises(ZeroDivisionError):
        spec.power_product((a, 1), (b, -1))
    assert [e.coeffs for e in spec.elements_at(b[:spec.size])] == \
        [e.coeffs for e in els]


def _power_product_reference(spec, *factors):
    """power_product as one unreduced exponent sum and one zero mask."""
    exp, log = spec.tables()
    k, zero = 0, False
    for vals, e in factors:
        vals = np.asarray(vals)
        if e < 0 and not vals.all():
            raise ZeroDivisionError
        k = k + log[vals].astype(np.int64) * e
        if e > 0:
            zero = zero | (vals == 0)
    return np.where(zero, 0, exp[k % (spec.size - 1)].astype(np.int64))


@pytest.mark.parametrize("p,m", [(2, 4), (2, 9), (3, 5), (17, 2)])
def test_power_product_matches_unreduced_formula(p, m):
    # exponents reduced mod |F| - 1, zeros, negative exponents and
    # exponents at or past |F| - 1, on seeded arrays
    spec = make_field(p, m)
    order = spec.size - 1
    rng = np.random.default_rng(1000 * p + m)
    exponents = [0, 1, 2, -1, -3, order - 1, order, order + 1, 3 * order + 2,
                 -order, -order - 5]
    for trial in range(40):
        length = int(rng.integers(0, 50))
        count = int(rng.integers(1, 4))
        arrays = [rng.integers(0 if rng.random() < 0.5 else 1, spec.size,
                               length) for _ in range(count)]
        factors = [(a, int(rng.choice(exponents))) for a in arrays]
        try:
            want = _power_product_reference(spec, *factors)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                spec.power_product(*factors)
            continue
        got = spec.power_product(*factors)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    zeros = np.array([0, 1, 0, 2])
    assert spec.power_product((zeros, order)).tolist() == [0, 1, 0, 1]
    assert spec.power_product((zeros, 0)).tolist() == [1, 1, 1, 1]
    assert spec.power_product((zeros, 1), (3, 2)).tolist() == \
        _power_product_reference(spec, (zeros, 1), (3, 2)).tolist()
    with pytest.raises(ZeroDivisionError):
        spec.power_product((zeros, -order))


@pytest.mark.parametrize("p,rows,cols", [(2, 5, 7), (2, 9, 9), (3, 4, 3),
                                         (5, 3, 4)])
def test_solver_arrays_match_scalar_solve(p, rows, cols):
    # the vectorised solver against GFpSolver.solve on every right side
    rng = random.Random(f"{p}:{rows}:{cols}")
    mat = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    mat[-1] = mat[0][:]  # force a rank deficit
    solver = GFpSolver(mat, p)
    rhs = list(itertools.product(range(p), repeat=rows))
    enc = np.array([sum(c * p**i for i, c in enumerate(v)) for v in rhs])
    want = [solver.solve(list(v)) for v in rhs]
    ok = solver.consistent_ints(enc)
    assert ok.tolist() == [w is not None for w in want]
    assert solver.solve_ints(enc[ok]).tolist() == [
        sum(c * p**i for i, c in enumerate(w))
        for w in want if w is not None]
    kernel = solver.nullspace_ints()
    assert len(set(kernel)) == p ** len(solver.nullspace)
    for k in kernel:
        vec = [k // p**i % p for i in range(cols)]
        assert all(sum(x * y for x, y in zip(row, vec)) % p == 0
                   for row in mat)


def _brute_kernel(mat, p):
    cols = len(mat[0])
    return {v for v in itertools.product(range(p), repeat=cols)
            if all(sum(a * x for a, x in zip(row, v)) % p == 0
                   for row in mat)}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solver_nullspace_spans_brute_force_kernel(p):
    rng = random.Random(f"nullspace {p}")
    mats = [[[0] * 4 for _ in range(3)], [[0, 0]]]   # zero matrices
    for rows, cols in [(3, 3), (2, 5), (1, 6), (4, 2), (5, 5), (3, 6)]:
        mat = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        mats.append(mat)
        # rank-deficient: a row that is a combination of two others, and
        # a zero column
        deficient = [row[:] for row in mat] + [
            [(a + (p - 1) * b) % p for a, b in zip(mat[0], mat[-1])]]
        for row in deficient:
            row[rng.randrange(cols)] = 0
        mats.append(deficient)
    for mat in mats:
        cols = len(mat[0])
        solver = GFpSolver(mat, p)
        basis = solver.nullspace
        span = {tuple(sum(c * b[i] for c, b in zip(combo, basis)) % p
                      for i in range(cols))
                for combo in itertools.product(range(p), repeat=len(basis))}
        assert span == _brute_kernel(mat, p)
        assert len(span) == p ** len(basis)        # the basis is free
        assert solver.rank + len(basis) == cols
        assert sorted(solver.nullspace_ints()) == sorted(
            sum(c * p**i for i, c in enumerate(v)) for v in span)


def test_embed_examples():
    gf2 = make_field(2, 1)
    gf4 = make_field(2, 2)
    gf16 = make_field(2, 4)
    assert embed(gf2.one(), gf16) == gf16.one()
    w16 = embed(gf4.from_int(2), gf16)
    assert w16 * w16 + w16 + gf16.one() == gf16.zero()
    assert w16.frobenius(2, 2) == w16


@pytest.mark.parametrize("src,dst", [((2, 2), (2, 4)), ((2, 2), (2, 6)),
                                     ((3, 2), (3, 4)), ((2, 3), (2, 6))])
def test_embed_injective_multiplicative(src, dst):
    source = make_field(*src)
    target = make_field(*dst)
    images = {}
    for a in source.elements():
        images[a] = embed(a, target)
    assert len(set(images.values())) == source.size
    for a in source.elements():
        for b in source.elements():
            assert embed(a * b, target) == images[a] * images[b]
            assert embed(a + b, target) == images[a] + images[b]


def test_embed_requires_divisibility():
    gf4 = make_field(2, 2)
    gf8 = make_field(2, 3)
    with pytest.raises(ValueError, match="no embedding"):
        embed(gf4.one(), gf8)


def test_project_inverse_of_embed():
    gf4 = make_field(2, 2)
    gf16 = make_field(2, 4)
    for a in gf4.elements():
        assert project(embed(a, gf16), gf4) == a
    outside = next(x for x in gf16.elements()
                   if x.frobenius(2, 2) != x)
    with pytest.raises(ValueError):
        project(outside, gf4)


def test_subfield_elements():
    gf16 = make_field(2, 4)
    sub = subfield_elements(gf16, 4)
    assert len(sub) == 4
    assert all(x.frobenius(2, 2) == x for x in sub)
    with pytest.raises(ValueError):
        subfield_elements(gf16, 8)
    # works in a field too large to enumerate comfortably
    big = make_field(3, 16, cap=2**27)
    sub3 = subfield_elements(big, 9)
    assert len(sub3) == 9
    assert all(x ** 9 == x for x in sub3)


def test_serialization_roundtrip():
    gf9 = make_field(3, 2)
    e = gf9.element((2, 1))
    assert e.serialize() == "2,1"
    assert FieldElement.parse(gf9, e.serialize()) == e
    assert gf9.serialize() == "3^2/1,0,1"
    assert FieldSpec.parse(gf9.serialize()) == gf9


def test_constant_vs_from_int():
    gf4 = make_field(2, 2)
    assert gf4.constant(3) == gf4.one()      # 3 mod 2
    assert gf4.from_int(3) == gf4.element((1, 1))
    assert gf4.one() == 1
    assert -gf4.one() == gf4.constant(-1)


def test_prime_power():
    assert prime_power(4) == (2, 2)
    assert prime_power(27) == (3, 3)
    assert prime_power(6) is None
    assert prime_power(1) is None


@pytest.mark.parametrize("p,m", [(7, 1), (2, 4), (3, 3), (5, 2)])
def test_serialize_ints_exhaustive(p, m):
    spec = make_field(p, m)
    assert spec.serialize_ints(np.arange(spec.size)) == \
        [x.serialize() for x in spec.elements()]


@pytest.mark.parametrize("p,m", [(2, 16), (17, 4)])
@pytest.mark.parametrize("default_modulus", [True, False])
def test_serialize_ints_sampled(p, m, default_modulus):
    modulus = first_irreducible(p, m) if default_modulus \
        else _OTHER_MODULI[(p, m)]
    spec = FieldSpec(p, m, modulus)
    rng = random.Random(f"serialize {p}^{m}:{default_modulus}")
    vals = [rng.randrange(spec.size) for _ in range(10**4)]
    assert spec.serialize_ints(np.array(vals)) == \
        [spec.from_int(v).serialize() for v in vals]


def test_serialize_ints_rejects_out_of_range():
    spec = make_field(2, 4)
    assert spec.serialize_ints([]) == []
    for bad in ([16], [-1]):
        with pytest.raises(ValueError):
            spec.serialize_ints(bad)
