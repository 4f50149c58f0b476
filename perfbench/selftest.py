"""The benchmark's own tests.

    python3 perfbench/selftest.py

Not collected by the repository's pytest run (the file name does not
match test_*.py), because it times nothing and checks only the harness.
"""

import itertools
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
from tracer import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _irreducible_by_trial_division(f: list, p: int) -> bool:
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not oracles._polymod(f, list(low) + [1], p):
                return False
    return True


class OracleTests(unittest.TestCase):
    def test_irreducibility_matches_trial_division(self):
        for p, m in [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 4), (5, 3)]:
            for low in itertools.product(range(p), repeat=m):
                f = list(low) + [1]
                self.assertEqual(oracles.is_irreducible(f, p),
                                 _irreducible_by_trial_division(f, p), f)

    def test_seeded_modulus_is_deterministic_and_irreducible(self):
        for p, m in [(2, 8), (2, 16), (17, 4)]:
            f = oracles.seeded_modulus(7, p, m)
            self.assertEqual(f, oracles.seeded_modulus(7, p, m))
            self.assertEqual((len(f), f[-1]), (m + 1, 1))
            self.assertTrue(oracles.is_irreducible(list(f), p))
        self.assertNotEqual(oracles.seeded_modulus(1, 2, 16),
                            oracles.seeded_modulus(2, 2, 16))

    def test_closed_forms(self):
        self.assertEqual(oracles.xprime_level2_count(2, 8), 65022)
        self.assertEqual(oracles.xprime_level2_count(17, 2), 4896)
        self.assertEqual(
            [oracles.hermitian_projective_count(2, m) for m in range(1, 9)],
            [9, 9, 81, 225, 1089, 3969, 16641, 65025])

    def test_wrong_count_is_caught(self):
        wl = WORKLOADS["count-x0-2e16"]
        doc = {"meta": {"fields_used": {"2^4": "2^4/1,1,0,0,1"}},
               "report": {"rows": [{"m": 1, "count": 26, "field_size": 16}],
                          "supersingular_count": 16,
                          "degenerate_z_skipped": 2}}
        with self.assertRaises(oracles.OracleError):
            oracles.check_output(json.dumps(doc).encode(), wl, True, 1, {})


class TracerTests(unittest.TestCase):
    def test_self_time_and_tail(self):
        # root [0, 10] with children [1, 3] and [4, 6]; [4, 6] has a
        # child [4.5, 5.5]
        doc = {"names": ["root", "kid", "grandkid"],
               "span_name": [0, 1, 1, 2],
               "start": [0.0, 1.0, 4.0, 4.5], "end": [10.0, 3.0, 6.0, 5.5],
               "parent": [-1, 0, 0, 2], "counts": {"c": 3}}
        s = summarize(doc)["spans"]
        self.assertAlmostEqual(s["root"]["self_s"], 6.0)
        self.assertAlmostEqual(s["root"]["tail_s"], 4.0)
        self.assertAlmostEqual(s["kid"]["self_s"], 3.0)
        self.assertEqual(s["kid"]["calls"], 2)
        self.assertAlmostEqual(s["grandkid"]["total_s"], 1.0)


class HarnessTests(unittest.TestCase):
    def test_benchmark_json_matches_the_driver(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)

    def _smoke(self, seed):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--seed",
             str(seed)], capture_output=True, text=True, timeout=170,
            cwd=HERE.parent)
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.splitlines()[-1])
        self.assertEqual((result["correct"], result["failed"]), (True, 0),
                         out.stdout[-3000:])

    def test_smoke_default_moduli(self):
        self._smoke(0)

    def test_smoke_seeded_moduli(self):
        self._smoke(1)

    def test_refuses_to_run_without_sources(self):
        bare = HERE / ".runs" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".runs", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "zeta-hermitian-2e16", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], capture_output=True, text=True,
                timeout=60, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
