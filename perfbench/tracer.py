"""Spans and counters around drintower's layer boundaries.

The package is not edited: `install` replaces attributes at the place
each caller looks a name up.  A name bound with `from ... import` is a
separate module attribute, so it is wrapped in every importing module;
methods are wrapped on their class.

Coarse calls (one per seed, point, field or command) record a span:
name, start, end and the index of the enclosing span.  Element-level
operators (field multiply, inverse, power) only bump a counter, which
keeps the tracing overhead bounded.  Spans are kept in memory and
written out once, at the end of the traced process.  The recorder
assumes one thread, which holds because every workload runs with
`--workers 1`.
"""

from __future__ import annotations

import functools
import json
import time

clock = time.perf_counter


class Trace:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.stack: list = [-1]
        self.counts: dict = {}

    def counter(self, name: str) -> list:
        return self.counts.setdefault(name, [0])

    def span(self, name: str, fn, observe=None):
        """Wrap fn so each call records a span; observe(result) may add
        counts drawn from the return value."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        cell = self.counter(name)

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span with no children under the current one."""
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.starts.append(start)
        self.ends.append(end)

    def dump(self) -> dict:
        ids: dict = {}
        name_ids = [ids.setdefault(n, len(ids)) for n in self.names]
        t0 = self.starts[0] if self.starts else 0.0
        return {
            "names": list(ids),
            "span_name": name_ids,
            "start": [s - t0 for s in self.starts],
            "end": [e - t0 for e in self.ends],
            "parent": self.parents,
            "counts": {k: v[0] for k, v in sorted(self.counts.items())},
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh, separators=(",", ":"))


def _ratio_counter(trace: Trace, name: str, test):
    cell = trace.counter(name)

    def observe(result):
        if test(result):
            cell[0] += 1
    return observe


def install(trace: Trace) -> None:
    """Wrap the boundaries of finite_field, linearized, tower, counting
    and cli.  Imports drintower, which must be on sys.path."""
    from drintower import cli, counting, finite_field, linearized, tower

    def patch(owners, attr, make):
        # one wrapper per original, installed at every owner that binds it
        original = getattr(owners[0], attr)
        wrapped = make(original)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the "
                                   f"same object as in {owners[0].__name__}")
            setattr(owner, attr, wrapped)

    ff_el, ff_spec = finite_field.FieldElement, finite_field.FieldSpec

    # finite_field: element operators are counted, not spanned
    for attr in ("__mul__", "__rmul__"):
        setattr(ff_el, attr,
                trace.counted("finite_field.mul.calls", getattr(ff_el, attr)))
    patch([ff_el], "__pow__",
          lambda f: trace.counted("finite_field.pow.calls", f))
    patch([ff_spec], "_mul_generic",
          lambda f: trace.counted("finite_field.mul_generic.calls", f))
    patch([ff_spec], "_inv",
          lambda f: trace.counted("finite_field.inv.calls", f))
    patch([ff_spec], "__init__",
          lambda f: trace.span("finite_field.field_build", f))
    patch([ff_spec], "_build_tables",
          lambda f: trace.span("finite_field.table_build", f))
    patch([finite_field.GFpSolver], "solve", lambda f: trace.span(
        "finite_field.solve", f,
        _ratio_counter(trace, "finite_field.solve.consistent",
                       lambda r: r is not None)))

    # linearized: a miss of the lru-cached _solver_for builds a solver
    solver_for = linearized._solver_for
    hits = trace.counter("linearized.solver_cache.hits")

    @functools.wraps(solver_for)
    def traced_solver_for(u, field):
        misses = solver_for.cache_info().misses
        start = clock()
        out = solver_for(u, field)
        end = clock()
        if solver_for.cache_info().misses != misses:
            trace.record("linearized.solver_build", start, end)
        else:
            hits[0] += 1
        return out

    patch([linearized, counting], "_solver_for", lambda f: traced_solver_for)
    patch([linearized, tower], "preimages", lambda f: trace.span(
        "linearized.preimages", f,
        _ratio_counter(trace, "linearized.preimages.empty",
                       lambda r: not r)))

    # tower: constructors re-check the relation for every point
    for cls in (tower.TowerPoint, tower.X0Point):
        patch([cls], "__init__",
              lambda f: trace.span("tower.point_check", f))
    patch([tower.TowerPoint], "extend", lambda f: trace.span(
        "tower.extend", f,
        _ratio_counter(trace, "tower.extend.dead", lambda r: not r)))
    points = trace.counter("tower.points")

    def count_points(result):
        points[0] += len(result)

    for attr in ("enumerate_xprime", "enumerate_x0"):
        patch([tower, cli, counting], attr,
              lambda f: trace.span("tower.enumerate", f, count_points))
    patch([tower, counting], "degenerate_z_skips",
          lambda f: trace.span("tower.degenerate_z_skips", f))

    # counting
    for attr in ("count_points", "hermitian_affine_count",
                 "zeta_consistency"):
        patch([counting, cli], attr,
              lambda f, attr=attr: trace.span(f"counting.{attr}", f))

    # cli: rendering returns the text the command writes to stdout
    out_bytes = trace.counter("cli.output_bytes")

    def count_bytes(text):
        out_bytes[0] += len(text.encode("utf-8"))

    for attr in ("_emit_json", "_emit_csv"):
        patch([cli], attr,
              lambda f: trace.span("cli.render", f, count_bytes))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _covered(intervals: list) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def summarize(doc: dict) -> dict:
    """Per span name: calls, total seconds, self seconds; plus counts.

    Self time is a span's duration minus the part of it that its child
    spans cover.  `tail` is the time after the last child ended, which
    for tower.enumerate is the final sort of the points.
    """
    names = doc["names"]
    kind, start, end, parent = (doc["span_name"], doc["start"], doc["end"],
                                doc["parent"])
    children: dict = {}
    for i, par in enumerate(parent):
        if par >= 0:
            children.setdefault(par, []).append((start[i], end[i]))
    spans = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "tail_s": 0.0}
             for n in names}
    for i, k in enumerate(kind):
        agg = spans[names[k]]
        dur = end[i] - start[i]
        kids = children.get(i, ())
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - _covered(kids)
        agg["tail_s"] += end[i] - max((e for _, e in kids), default=end[i])
    return {"spans": spans, "counts": doc["counts"]}
