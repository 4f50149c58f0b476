"""End-to-end benchmark of the drintower CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]

Each measured invocation is `python -m drintower ...` in a fresh
interpreter, started from this single driver process and run from the
root of the source tree with PYTHONPATH=src.  Invocations run one after
another (a closed loop with one client) until --seconds have been
spent, and at least MIN_RUNS of them.  Every invocation's stdout is
checked against independent oracles (see oracles.py).

--trace 0 reports the end-to-end metrics:
  wall_s          median wall time of one invocation, launch until its
                  stdout is fully read
  setup_s         median over SETUP_RUNS fresh interpreters of: start,
                  import the CLI, build every FieldSpec the command uses
  elements_per_s  field elements the command sweeps / (wall_s - setup_s)
  peak_rss_mb     median peak resident set of the CLI process
--trace 1 runs the CLI under tracer.py instead and reports the per-layer
metrics, together with the tracing overhead (traced / untraced wall).

A seed other than 0 passes a seed-chosen irreducible modulus for every
field the command builds; point counts do not depend on the modulus, so
the same oracles apply.  The last line of stdout is the result object;
the line before it is a run record with the raw samples and machine
details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter as clock

from oracles import OracleError, check_output, field_label, \
    modulus_flags, seeded_modulus
from tracer import summarize
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"

# Untraced invocations per run, at the least.  Run-to-run spread on a
# shared two-core machine is dominated by drift over minutes, which more
# invocations per run do not average out; two keep a run of the
# heaviest workload near --seconds.
MIN_RUNS = 2
MIN_TRACED = 2        # traced invocations, so their counts can be compared
SETUP_RUNS = 5
RUN_LIMIT_S = 170     # every child is stopped by then

END_TO_END = {"wall_s": "s", "setup_s": "s", "elements_per_s": "1/s",
              "peak_rss_mb": "MB"}

# per-layer metric -> unit; the traced run fills every one of them
PER_LAYER = {
    "finite_field.field_build_s": "s",
    "finite_field.table_build_s": "s",
    "finite_field.tables_built": "count",
    "finite_field.mul.calls": "count",
    "finite_field.mul_generic.calls": "count",
    "finite_field.inv.calls": "count",
    "finite_field.pow.calls": "count",
    "finite_field.solve.calls": "count",
    "finite_field.solve_s": "s",
    "finite_field.solve.consistent_ratio": "ratio",
    "linearized.preimages.calls": "count",
    "linearized.preimages.self_s": "s",
    "linearized.preimages.empty_ratio": "ratio",
    "linearized.solver_build.calls": "count",
    "linearized.solver_build_s": "s",
    "linearized.solver_cache.hits": "count",
    "tower.extend.calls": "count",
    "tower.extend.self_s": "s",
    "tower.extend.dead_ratio": "ratio",
    "tower.point_check.calls": "count",
    "tower.point_check_s": "s",
    "tower.enumerate.self_s": "s",
    "tower.sort_s": "s",
    "tower.degenerate_z_skips_s": "s",
    "tower.points": "count",
    "counting.count_points.self_s": "s",
    "counting.hermitian_affine_count.self_s": "s",
    "counting.zeta_consistency_s": "s",
    "cli.main.self_s": "s",
    "cli.render_s": "s",
    "cli.output_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Child:
    wall: float
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_mb: float


def run_child(cmd: list, deadline: float) -> Child:
    """Run cmd to completion; the wall time ends when stdout closes."""
    with tempfile.TemporaryFile(dir=RUNS) as err:
        start = clock()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=dict(os.environ,
                                         PYTHONPATH=str(ROOT / "src")),
                                cwd=ROOT)
        chunks = []
        fd = proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                left = deadline - clock()
                if left <= 0 or not sel.select(left):
                    proc.kill()
                    break
                data = os.read(fd, 1 << 20)
                if not data:
                    break
                chunks.append(data)
        wall = clock() - start
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        stderr = err.read()[-4000:]
    # ru_maxrss is in KiB on Linux
    return Child(wall, proc.returncode, b"".join(chunks), stderr,
                 usage.ru_maxrss / 1024)


def calibration_probe() -> float:
    """A fixed pure-Python loop, timed next to each invocation so that
    machine drift can be told apart from a change in the program."""
    start = clock()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return clock() - start


class Run:
    """One benchmark run of one workload: invocations and their checks."""

    def __init__(self, wl: Workload, seed: int, smoke: bool):
        self.wl = wl
        self.seed = seed
        self.smoke = smoke
        fields = wl.fields(smoke)
        self.moduli = {f: seeded_modulus(seed, *f) for f in fields} \
            if seed else {}
        self.argv = wl.argv(smoke) + modulus_flags(self.moduli)
        self.setup_args = [field_label(p, m, self.moduli[(p, m)])
                           if self.moduli else f"{p}^{m}" for p, m in fields]
        self.start = clock()
        self.deadline = self.start + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def elapsed(self) -> float:
        return clock() - self.start

    def fail(self, what: str, message: str, child: Child = None) -> None:
        """Count one failed invocation and keep its first messages."""
        self.failed = min(self.failed + 1, self.attempted)
        if len(self.failures) < 5:
            entry = {"what": what, "message": message}
            if child is not None:
                entry["exit_code"] = child.code
                entry["stderr"] = child.stderr.decode(errors="replace")[-800:]
            self.failures.append(entry)

    def setup(self) -> float:
        cmd = [sys.executable, str(HERE / "setup_probe.py"), *self.setup_args]
        child = run_child(cmd, self.deadline)
        self.attempted += 1
        where = child.stdout.decode(errors="replace").strip()
        if child.code != 0:
            self.fail("setup", "set-up probe failed", child)
        elif not Path(where).resolve().is_relative_to(ROOT / "src"):
            self.fail("setup", f"drintower imported from {where}", child)
        return child.wall

    def invoke(self, trace_out: Path | None = None) -> tuple:
        """One CLI invocation, checked; returns (child, stdout sha256)."""
        if trace_out is None:
            cmd = [sys.executable, "-m", "drintower", *self.argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"),
                   str(trace_out), "--", *self.argv]
        child = run_child(cmd, self.deadline)
        self.attempted += 1
        digest = None
        if child.code != 0:
            self.fail("cli", "unexpected exit code", child)
        else:
            try:
                digest = check_output(child.stdout, self.wl, self.smoke,
                                      self.seed, self.moduli)
            except OracleError as exc:
                self.fail("cli", str(exc), child)
        return child, digest

    def room_for(self, seconds: float, estimate: float) -> bool:
        """Whether at least half of a job of this length fits."""
        return self.elapsed() + estimate / 2 <= seconds


def layer_metrics(summary: dict) -> dict:
    spans, counts = summary["spans"], summary["counts"]
    none = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "tail_s": 0.0}

    def sp(name):
        return spans.get(name, none)

    def ratio(num, den):
        return num / den if den else 0.0

    enum = sp("tower.enumerate")
    tables = sp("finite_field.table_build")
    return {
        "finite_field.field_build_s":
            sp("finite_field.field_build")["total_s"],
        "finite_field.table_build_s": tables["total_s"],
        "finite_field.tables_built": tables["calls"],
        "finite_field.mul.calls": counts.get("finite_field.mul.calls", 0),
        "finite_field.mul_generic.calls":
            counts.get("finite_field.mul_generic.calls", 0),
        "finite_field.inv.calls": counts.get("finite_field.inv.calls", 0),
        "finite_field.pow.calls": counts.get("finite_field.pow.calls", 0),
        "finite_field.solve.calls": sp("finite_field.solve")["calls"],
        "finite_field.solve_s": sp("finite_field.solve")["total_s"],
        "finite_field.solve.consistent_ratio": ratio(
            counts.get("finite_field.solve.consistent", 0),
            sp("finite_field.solve")["calls"]),
        "linearized.preimages.calls": sp("linearized.preimages")["calls"],
        "linearized.preimages.self_s": sp("linearized.preimages")["self_s"],
        "linearized.preimages.empty_ratio": ratio(
            counts.get("linearized.preimages.empty", 0),
            sp("linearized.preimages")["calls"]),
        "linearized.solver_build.calls":
            sp("linearized.solver_build")["calls"],
        "linearized.solver_build_s": sp("linearized.solver_build")["total_s"],
        "linearized.solver_cache.hits":
            counts.get("linearized.solver_cache.hits", 0),
        "tower.extend.calls": sp("tower.extend")["calls"],
        "tower.extend.self_s": sp("tower.extend")["self_s"],
        "tower.extend.dead_ratio": ratio(
            counts.get("tower.extend.dead", 0), sp("tower.extend")["calls"]),
        "tower.point_check.calls": sp("tower.point_check")["calls"],
        "tower.point_check_s": sp("tower.point_check")["total_s"],
        # the time after an enumeration's last child span is its final sort
        "tower.enumerate.self_s": enum["self_s"] - enum["tail_s"],
        "tower.sort_s": enum["tail_s"],
        "tower.degenerate_z_skips_s":
            sp("tower.degenerate_z_skips")["total_s"],
        "tower.points": counts.get("tower.points", 0),
        "counting.count_points.self_s": sp("counting.count_points")["self_s"],
        "counting.hermitian_affine_count.self_s":
            sp("counting.hermitian_affine_count")["self_s"],
        "counting.zeta_consistency_s":
            sp("counting.zeta_consistency")["total_s"],
        "cli.main.self_s": sp("cli.main")["self_s"],
        "cli.render_s": sp("cli.render")["total_s"],
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
    }


def tail_percentile(samples: list):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return {"percentile": 100 * (n - 10) // n, "value": ordered[n - 11]}


def measure(run: Run, seconds: int) -> tuple:
    walls, rss, probes, setups = [], [], [], []
    while True:
        probes.append(calibration_probe())
        setups.append(run.setup())
        child, _ = run.invoke()
        walls.append(child.wall)
        rss.append(child.maxrss_mb)
        estimate = statistics.median(walls)
        if len(walls) >= MIN_RUNS and not run.room_for(seconds, estimate):
            break
        if not run.room_for(RUN_LIMIT_S - 20, 3 * estimate):
            break
    while len(setups) < SETUP_RUNS:
        setups.append(run.setup())
    wall, setup = statistics.median(walls), statistics.median(setups)
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "elements_per_s": run.wl.elements(run.smoke)
        / max(wall - setup, 1e-9),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"wall_s": walls, "wall_s_count": len(walls),
               "wall_s_tail": tail_percentile(walls),
               "setup_s": setups, "peak_rss_mb": rss,
               "calibration_s": probes,
               "wall_per_calibration": statistics.median(
                   w / c for w, c in zip(walls, probes))}
    return metrics, END_TO_END, samples


def measure_traced(run: Run, seconds: int) -> tuple:
    # untraced invocations before and after the traced ones, so that the
    # overhead ratio is not skewed by drift across the run
    untraced, want_digest = run.invoke()
    untraced_walls = [untraced.wall]
    trace_out = RUNS / f"{run.wl.name}.{os.getpid()}.trace.json"
    walls, layers = [], []
    while True:
        trace_out.unlink(missing_ok=True)
        child, digest = run.invoke(trace_out)
        walls.append(child.wall)
        if digest is not None and digest != want_digest:
            run.fail("trace", "traced stdout differs from untraced", child)
        if digest is not None:
            try:
                with open(trace_out, encoding="utf-8") as fh:
                    layers.append(layer_metrics(summarize(json.load(fh))))
            except (OSError, ValueError) as exc:
                run.fail("trace", f"unreadable span dump: {exc}", child)
        estimate = statistics.median(walls)
        if len(walls) >= MIN_TRACED and not run.room_for(seconds, estimate):
            break
        if not run.room_for(RUN_LIMIT_S - 20, 3 * estimate):
            break
    after, digest = run.invoke()
    untraced_walls.append(after.wall)
    if digest is not None and digest != want_digest:
        run.fail("cli", "stdout differs between invocations", after)
    kept = RUNS / f"{run.wl.name}.trace.json"
    if trace_out.exists():
        os.replace(trace_out, kept)
    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [lay[name] for lay in layers if name in lay]
        if unit in ("count", "bytes") and len(set(values)) > 1:
            run.fail("trace", f"{name} differs between traced "
                              f"invocations: {values}")
        if not values:
            metrics[name] = 0
        elif unit in ("count", "bytes"):
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.wall_s"] = statistics.median(walls)
    metrics["trace.overhead_ratio"] = \
        metrics["trace.wall_s"] / statistics.median(untraced_walls)
    return metrics, PER_LAYER, {"traced_wall_s": walls,
                                "untraced_wall_s": untraced_walls,
                                "trace_file": str(kept.relative_to(ROOT))}


def machine_record() -> dict:
    cpu = platform.machine() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "git_commit": commit, "src_lines": src_lines}


def result_line(metrics: dict, units: dict, attempted: int,
                failed: int) -> dict:
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def run_workload(args) -> dict:
    run = Run(WORKLOADS[args.workload], args.seed, smoke=False)
    run.setup()  # warm-up: byte-code and file caches, as users have them
    if args.trace:
        metrics, units, samples = measure_traced(run, args.seconds)
    else:
        metrics, units, samples = measure(run, args.seconds)
    record = {"workload": run.wl.name, "seed": run.seed,
              "seconds": args.seconds, "trace": args.trace,
              "argv": run.argv, "elements": run.wl.elements(),
              "elapsed_s": run.elapsed(), "samples": samples,
              "error_rate": run.failed / run.attempted,
              "failures": run.failures, **machine_record()}
    print(json.dumps({"record": record}))
    return result_line(metrics, units, run.attempted, run.failed)


def run_smoke(seed: int) -> dict:
    """Every workload at --ext 1, once plain and twice traced."""
    attempted = failed = 0
    per_workload = {}
    for wl in WORKLOADS.values():
        run = Run(wl, seed, smoke=True)
        run.setup()
        metrics, _, _ = measure_traced(run, 0)
        attempted += run.attempted
        failed += run.failed
        per_workload[wl.name] = {
            "failures": run.failures,
            "counts": {k: v for k, v in metrics.items()
                       if PER_LAYER[k] in ("count", "bytes")}}
    print(json.dumps({"record": {"smoke": per_workload, "seed": seed}}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload at --ext 1 and exit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "drintower" / "__init__.py").is_file():
        print(f"error: no drintower sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    result = run_smoke(args.seed) if args.smoke else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
