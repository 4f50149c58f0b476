"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines as they happen.
"""

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from drintower.counting import hermitian_check
from drintower.drinfeld import APoly, DrinfeldModule, isogeny_from_kernel, \
    verify_isogeny
from drintower.finite_field import embed, make_field, prime_power, \
    subfield_elements
from drintower.linearized import kernel_in, splitting_field
from drintower.tower import (
    cofactor_poly,
    enumerate_x0,
    enumerate_xprime,
    kernel_line_poly,
    module_from_torsion_point,
    quotient_torsion_poly,
    supersingular_z_values,
    torsion_poly,
)

# subprocesses import this checkout's package, not an installed copy
ENV = dict(os.environ,
           PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


@contextmanager
def _criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: {description}: FAIL")
        raise
    print(f"criterion {number}: {description}: PASS")


def _k1(q):
    p, r = prime_power(q)
    return make_field(p, 2 * r)


def _quartic(q):
    p, r = prime_power(q)
    return make_field(p, 4 * r)


def test_criterion_1_factorization_identities():
    with _criterion(1, "exact twisted factorizations over GF(q^4)* "
                       "for q in {2,3,4}, under 10 s"):
        start = time.perf_counter()
        for q in (2, 3, 4):
            big = _quartic(q)
            for x in big.nonzero_elements():
                assert cofactor_poly(x, q) * kernel_line_poly(x, q) \
                    == torsion_poly(x, q)
                assert kernel_line_poly(x, q) * cofactor_poly(x, q) \
                    == quotient_torsion_poly(x, q)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"identity sweep took {elapsed:.1f} s"


def test_criterion_2_supersingular_counts_x_tower():
    with _criterion(2, "x-tower point counts (q^2-1)q^(n-1) over GF(q^2), "
                       "q in {2,3}, n in 2..5"):
        for q in (2, 3):
            k1 = _k1(q)
            for n in (2, 3, 4, 5):
                pts = enumerate_xprime(q, n, k1)
                assert len(pts) == (q * q - 1) * q ** (n - 1)
                for pt in pts:
                    for x in pt.coords:
                        assert x and x.frobenius(q, 2) == x


def test_criterion_3_supersingular_counts_z_tower():
    with _criterion(3, "quotient-tower supersingular counts q^(n-1) with "
                       "coordinates in the triple-checked Z-set"):
        for q in (2, 3, 4):
            zset = supersingular_z_values(q, _k1(q))
            assert len(zset) == q
        for q in (2, 3):
            k1 = _k1(q)
            allowed = set(supersingular_z_values(q, k1))
            for n in (2, 3, 4, 5):
                ss = [p for p in enumerate_x0(q, n, k1)
                      if p.is_supersingular()]
                assert len(ss) == q ** (n - 1)
                for p in ss:
                    assert set(p.zcoords) <= allowed


def test_criterion_4_quotient_structure():
    with _criterion(4, "projection fibers are exactly the GF(q^2)* orbits, "
                       "q in {2,3}"):
        for q, levels in ((2, (2, 3, 4)), (3, (2, 3))):
            k1 = _k1(q)
            scalars = list(k1.nonzero_elements())
            for n in levels:
                pts = enumerate_xprime(q, n, k1)
                fibers = {}
                for pt in pts:
                    fibers.setdefault(pt.project_to_x0(), set()).add(pt)
                ss_x0 = {p for p in enumerate_x0(q, n, k1)
                         if p.is_supersingular()}
                assert set(fibers) == ss_x0
                for fiber in fibers.values():
                    rep = next(iter(fiber))
                    assert {rep.act(c) for c in scalars} == fiber
            sample = enumerate_xprime(q, 3, k1)[0]
            for c in scalars:
                for d in scalars:
                    assert sample.act(c * d) == sample.act(c).act(d)
            for pt in enumerate_xprime(q, 3, k1):
                base = pt.project_to_x0()
                for c in scalars:
                    assert pt.act(c).project_to_x0() == base


def test_criterion_5_line_isogenies():
    with _criterion(5, "line-kernel isogenies recover the quotient module "
                       "exactly, 500 random torsion points per q"):
        for q in (2, 3):
            big = _quartic(q)
            scalars = subfield_elements(big, q)
            one = big.one()
            rng = random.Random(q * 1000 + 7)
            for _ in range(500):
                x1 = big.random_nonzero(rng)
                module = module_from_torsion_point(x1, q)
                line = {s * x1 for s in scalars}
                u, target = isogeny_from_kernel(module, line)
                expected = kernel_line_poly(x1, q)
                if big.p != 2:
                    # the monic kernel product is the unit -1 times the
                    # displayed line polynomial in odd characteristic
                    expected = -expected
                assert u == expected
                assert verify_isogeny(u, module, target)
                assert target.phi_t() == quotient_torsion_poly(x1, q)


def test_criterion_6_kernel_chain_module_structure():
    with _criterion(6, "kernel chains carry cyclic q^j torsion groups "
                       "stable under the T-action (q=2, n<=4)"):
        q = 2
        k1 = _k1(q)
        for n in (2, 3, 4):
            for pt in enumerate_xprime(q, n, k1):
                top = pt.kernel_chain_poly(n)
                sf = splitting_field(top)
                t_action = torsion_poly(embed(pt.coords[0], sf), q)
                previous = {sf.zero()}
                for j in range(1, n + 1):
                    group = kernel_in(pt.kernel_chain_poly(j).map_to(sf), sf)
                    assert len(group) == q ** j
                    assert previous <= group
                    assert {t_action(y) for y in group} <= previous
                    assert any((t_action ** (j - 1))(y) for y in group)
                    previous = group


def test_criterion_7_hermitian_maximality_and_zeta():
    with _criterion(7, "quadratic level attains the Hasse-Weil bound with "
                       "identically zero zeta residuals, under 5 s"):
        start = time.perf_counter()
        for q in (2, 3, 4):
            g = q * (q - 1) // 2
            rep = hermitian_check(q)
            assert rep.measured[0][2] == q ** 3 + 1 == q * q + 1 + 2 * g * q
            assert rep.attains_weil_bound
            assert rep.measured_model_match
            assert rep.zeta.symmetry_residual == 0
            assert all(r == 0 for r in rep.zeta.count_residuals)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"quadratic-level checks took {elapsed:.1f} s"


def test_criterion_8_torsion_cardinality():
    with _criterion(8, "T-torsion has exactly q^2 points in the splitting "
                       "field, 100 random modules per q"):
        cap = 2 ** 60
        for q in (2, 3):
            big = _quartic(q)
            k = make_field(q, 1)
            rng = random.Random(q * 31)
            for _ in range(100):
                module = DrinfeldModule(q, big.one(),
                                        big.random_element(rng),
                                        big.random_nonzero(rng))
                sf = splitting_field(module.phi_t(), cap=cap)
                torsion = module.torsion_points(APoly.T(k), sf)
                assert len(torsion) == q * q


def test_criterion_9_enumeration_determinism():
    with _criterion(9, "byte-identical enumeration output across worker "
                       "counts"):
        outputs = []
        for workers in ("1", "4"):
            proc = subprocess.run(
                [sys.executable, "-m", "drintower", "enumerate",
                 "--q", "3", "--n", "3", "--ext", "1",
                 "--workers", workers],
                capture_output=True, env=ENV)
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        outputs = []
        for workers in ("1", "5"):
            proc = subprocess.run(
                [sys.executable, "-m", "drintower", "count",
                 "--q", "2", "--n", "3", "--ext", "1..2",
                 "--format", "csv", "--workers", workers],
                capture_output=True, env=ENV)
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
