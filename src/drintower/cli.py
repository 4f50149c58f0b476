"""Batch command-line interface.

Four commands: verify (exhaustive identity suites), enumerate (point
listings), count (per-extension tallies), zeta (residual report for the
quadratic level).  One parser takes the command and every flag, in any
order.  Configuration precedence is flags over config file over
defaults; the config file is a flat key = value text file whose keys
mirror the long flag names.

Exit codes: 0 success, 1 verification failure (a failed identity in
verify, a nonzero exact residual in zeta; the report is written either
way), output that cannot be written, or a failed internal check (one
error line, no traceback), 2 usage error, 3 field-size cap exceeded,
a count that could pass 2^63 - 1, or a walk or count out of memory.
Identical configuration produces byte-identical output.
--workers is accepted for compatibility and ignored: the whole-field
walks run as array code in one thread.  main sets OPENBLAS_NUM_THREADS=1 for its own process,
overriding an inherited value, before numpy is first imported: numpy
would otherwise start an OpenBLAS thread pool that no integer array
product uses.  Importing this module leaves the environment alone.
main returns the exit code; run, the entry of the `drintower` script
and of `python -m drintower`, exits with it after gc.freeze, so the
interpreter's final collections skip the objects numpy and the
package leave behind.

enumerate works on the sorted, relation-checked integer coordinate
columns of the tower walks, and no per-point TowerPoint, X0Point or
FieldElement is built: --supersingular-only is a row mask, and every
check (tower relation, supersingular mask, encoding range) runs before
the first byte is written.  The text before the points comes from the
same renderers as every other report.  The points follow in the row
blocks of finite_field._chunks, each rendered into one reused uint8
matrix from the byte tables of FieldSpec.text_tables in the exact layout of
json.dumps (indent 2) or csv.writer, so the process holds the columns
and one block of text, never the whole listing.

count takes its counts and tallies from the transfer weights of
counting.count_points, keeping no row; verify checks the level-3
columns of both walks through the row masks the walks raise on,
recording a failing row instead of raising, and the pair
identities through ids of the twisted-polynomial compositions at each
element of GF(q^2)*.  The one point object a command builds is verify's
sample for the act(c*d) = act(c).act(d) check, with its images under act.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys
from dataclasses import dataclass, field

from . import __version__, finite_field
from .counting import (
    FieldContext,
    count_points,
    hermitian_affine_count,
    zeta_consistency,
)
from .finite_field import CapExceededError, DEFAULT_CAP, _chunks, \
    make_field, prime_power
from .tower import (
    TOWERS,
    TowerPoint,
    _walk,
    cofactor_poly,
    columns,
    kernel_line_poly,
    quotient_torsion_poly,
    project_columns_to_x0,
    supersingular_z_values,
    torsion_poly,
)
# bound here only for the benchmark's tracer, which wraps them
from .tower import enumerate_x0, enumerate_xprime  # noqa: F401

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    q: int = 2
    n: int = 2
    variant: str = "xprime"
    m_first: int = 1
    m_last: int = 1
    format: str = "json"
    cap: int = DEFAULT_CAP
    workers: int = 1
    supersingular_only: bool = False
    genus: int | None = None
    moduli: dict = field(default_factory=dict)

    def validate(self):
        if self.cap < 4:
            raise UsageError("cap is too small for any field")
        # before prime_power, whose trial division is slow for large q
        if self.q >= 2 and self.q * self.q > self.cap:
            raise CapExceededError(
                f"field size {self.q}^2 exceeds the cap {self.cap}")
        if prime_power(self.q) is None:
            raise UsageError(f"q = {self.q} is not a prime power >= 2")
        if self.n < 2:
            raise UsageError("n must be at least 2")
        if not 1 <= self.m_first <= self.m_last:
            raise UsageError("extension range must satisfy 1 <= m1 <= m2")
        if self.variant not in TOWERS:
            raise UsageError(f"unknown variant {self.variant!r}")
        if self.format not in ("json", "csv"):
            raise UsageError(f"unknown format {self.format!r}")
        if self.workers < 1:
            raise UsageError("workers must be at least 1")
        for (p, m), coeffs in self.moduli.items():
            try:
                make_field(p, m, coeffs, cap=self.cap)
            except (ValueError, CapExceededError) as exc:
                raise UsageError(f"bad modulus for {p}^{m}: {exc}") from None

    def context(self) -> FieldContext:
        return FieldContext(cap=self.cap, moduli=self.moduli)

    def echo(self) -> dict:
        # workers is deliberately absent: it is ignored, and reports must
        # be byte-identical whatever its value
        return {
            "q": self.q, "n": self.n, "variant": self.variant,
            "ext": f"{self.m_first}..{self.m_last}",
            "format": self.format, "cap": self.cap,
            "supersingular_only": self.supersingular_only,
            "genus": self.genus,
            "moduli": {f"{p}^{m}": ",".join(str(c) for c in mod)
                       for (p, m), mod in sorted(self.moduli.items())},
        }


def _parse_ext(text: str) -> tuple:
    a, sep, b = text.partition("..")
    try:
        m1 = int(a)
        m2 = int(b) if sep else m1
    except ValueError:
        raise UsageError(f"bad extension range {text!r}") from None
    return m1, m2


def _parse_modulus(text: str) -> tuple:
    head, sep, tail = text.partition("/")
    if not sep:
        raise UsageError(f"bad modulus spec {text!r}; use p^m/c0,c1,...")
    ps, sep2, ms = head.partition("^")
    try:
        p = int(ps)
        m = int(ms) if sep2 else 1
        coeffs = tuple(int(c) for c in tail.split(","))
    except ValueError:
        raise UsageError(f"bad modulus spec {text!r}") from None
    return (p, m), coeffs


def _read_config_file(path: str) -> dict:
    out: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise UsageError(
                        f"{path}:{lineno}: expected key = value")
                key = key.strip().replace("-", "_")
                value = value.strip()
                if key == "modulus":
                    out.setdefault("modulus", []).append(value)
                else:
                    out[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    return out


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    layers = []
    if args.config:
        layers.append(_read_config_file(args.config))
    # every flag given; "is not", as 0 == False
    layers.append({key: value for key, value in vars(args).items()
                   if key not in ("command", "config")
                   and value is not None and value is not False})

    for layer in layers:
        for key, value in layer.items():
            if key in ("q", "n", "genus", "cap", "workers"):
                try:
                    setattr(cfg, key, int(value))
                except ValueError:
                    raise UsageError(f"bad integer for {key}: {value!r}") \
                        from None
            elif key == "ext":
                cfg.m_first, cfg.m_last = _parse_ext(str(value))
            elif key in ("variant", "format"):
                setattr(cfg, key, str(value))
            elif key == "supersingular_only":
                text = str(value).lower()
                if text not in ("1", "true", "yes", "on",
                                "0", "false", "no", "off"):
                    raise UsageError(f"bad boolean for {key}: {value!r}")
                cfg.supersingular_only = text in ("1", "true", "yes", "on")
            elif key == "modulus":
                values = value if isinstance(value, list) else [value]
                for item in values:
                    pm, coeffs = _parse_modulus(str(item))
                    cfg.moduli[pm] = coeffs
            else:
                raise UsageError(f"unknown config key {key!r}")
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _meta(cfg: RunConfig, command: str, ctx: FieldContext) -> dict:
    return {
        "tool": "drintower",
        "version": __version__,
        "command": command,
        "config": cfg.echo(),
        "fields_used": {f"{p}^{m}": label
                        for (p, m), label in ctx.used.items()},
    }


def _emit_json(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) and a newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_csv(meta: dict, rows: list) -> str:
    buf = io.StringIO()
    for key in sorted(meta):
        value = meta[key]
        if isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _write_report(cfg: RunConfig, meta: dict, body: dict,
                  csv_rows: list) -> None:
    """Write _emit_json of {"meta": meta, **body}, or _emit_csv of meta
    and csv_rows, as cfg.format asks."""
    if cfg.format == "json":
        sys.stdout.write(_emit_json({"meta": meta, **body}))
    else:
        sys.stdout.write(_emit_csv(meta, csv_rows))


def _write_rows(field, cols: list, head: str, sep: str, tail: str,
                skip: int = 0) -> None:
    """Write the rows of integer coordinate columns to stdout, leaving
    out the first skip characters: for each row, head, the element texts
    of its coordinates joined by sep, and tail.

    Every _chunks block of rows is rendered into one (rows, width) uint8
    matrix, allocated once for _CHUNK rows and sliced for the last
    block.  The literal pieces sit in fixed columns, written once, and
    each coordinate's slot is gathered from the two NUL-padded half
    tables of FieldSpec.text_tables.  Where the tables are padded
    (p > 10), one boolean mask drops the padding.
    """
    import numpy as np
    base, low, high = field.text_tables()
    pieces = [head] + [sep] * (len(cols) - 1) + [tail]
    width = sum(map(len, pieces)) + \
        len(cols) * (low.shape[1] + high.shape[1])
    buf = np.empty((min(finite_field._CHUNK, len(cols[0])), width),
                   dtype=np.uint8)
    slots = []
    at = 0
    for piece in pieces:
        buf[:, at:at + len(piece)] = np.frombuffer(piece.encode(), np.uint8)
        at += len(piece)
        if len(slots) < len(cols):
            slots.append((at, at + low.shape[1]))
            at += low.shape[1] + high.shape[1]
    padded = not (low.all() and high.all())
    for rows in _chunks(len(cols[0])):
        out = buf[:rows.stop - rows.start]
        for c, (lo, hi) in zip(cols, slots):
            out[:, lo:hi] = low[c[rows] % base]
            out[:, hi:hi + high.shape[1]] = high[c[rows] // base]
        out = out[out != 0] if padded else out.reshape(-1)
        # decoded straight from the matrix, with no bytes copy between
        sys.stdout.write(str(out[skip:], "ascii"))
        skip = 0


def _write_points(fmt: str, meta: dict, names: list, field,
                  cols: list) -> None:
    """Write an enumerate report whose points are the rows of the
    checked coordinate columns cols: exactly _emit_json of the payload
    {"meta", "points"}, or _emit_csv of names and the rows."""
    if fmt == "csv":
        sys.stdout.write(_emit_csv(meta, [names]))
        # csv.writer quotes a field only when it holds a comma (m > 1)
        quote = '"' if field.m > 1 else ""
        _write_rows(field, cols, quote, f"{quote},{quote}", f"{quote}\n")
        return
    text = _emit_json({"meta": meta, "points": []})
    if not len(cols[0]):
        sys.stdout.write(text)
        return
    # the rows go inside the empty points list, which text ends with:
    # each row is led by ",\n", of which the first row drops the comma
    sys.stdout.write(text[:-len("]\n}\n")])
    _write_rows(field, cols, ',\n    [\n      "', '",\n      "', '"\n    ]',
                skip=1)
    sys.stdout.write("\n  ]\n}\n")


# ---------------------------------------------------------------------------
# the identity suite behind `verify`
# ---------------------------------------------------------------------------

def _compositions(x, q):
    """torsion, cofactor*kernel_line, kernel_line*cofactor, quotient."""
    kernel, cofactor = kernel_line_poly(x, q), cofactor_poly(x, q)
    return (torsion_poly(x, q), cofactor * kernel, kernel * cofactor,
            quotient_torsion_poly(x, q))


def _pair_failures(k1, cols, ok):
    """(cases, point-major {"point": ...} failures) of per-pair masks."""
    import numpy as np
    failed = ~np.column_stack(ok)
    return failed.size, [{"point": k1.serialize_ints([c[row] for c in cols])}
                         for row in failed.nonzero()[0]]


def _suite_factorizations(q, big):
    forward, reverse = [], []
    for x in big.nonzero_elements():
        torsion, left, right, quotient = _compositions(x, q)
        if left != torsion:
            forward.append({"x": x.serialize()})
        mid = x ** (q - 1) - x ** (q - q * q)
        if right != quotient or right.coeffs[1] != mid:
            reverse.append({"x": x.serialize()})
    return (big.size - 1, forward), (big.size - 1, reverse)


def _suite_pairs(q, cols, k1):
    import numpy as np
    # composition ids by encoding; a zero coordinate's ids match none
    ids: dict = {}
    torsion, left, right, quotient = np.array([(-1, -2, -3, -4)] + [
        [ids.setdefault(f, len(ids)) for f in _compositions(x, q)]
        for x in k1.nonzero_elements()]).T
    swap = [(left[b] == right[a]) & (right[a] == torsion[b])
            for a, b in zip(cols, cols[1:])]
    shift = [quotient[a] == torsion[b] for a, b in zip(cols, cols[1:])]
    return _pair_failures(k1, cols, swap), _pair_failures(k1, cols, shift)


def _suite_z_recursion(q, cols, k1):
    x0 = TOWERS["x0"]
    zcols = project_columns_to_x0(q, k1, cols)
    cases, failures = _pair_failures(k1, cols, [
        x0.mask(q, k1, zcols[j:j + 2]) for j in range(len(zcols) - 1)])
    # and a case per level-3 quotient point, walked without the raising
    # check so that a bad row is recorded
    quotient = _walk(x0, q, 3, k1)
    more, bad = _pair_failures(k1, quotient, [x0.mask(q, k1, quotient)])
    return cases + more, failures + bad


def _suite_z_set(q, k1):
    try:
        zset = supersingular_z_values(q, k1)
    except RuntimeError as exc:
        return 1, [{"error": str(exc)}]
    return 1, [] if len(zset) == q else [{"size": len(zset)}]


def _suite_action(q, cols, sample, k1):
    import numpy as np
    scalars = list(k1.nonzero_elements())
    base = project_columns_to_x0(q, k1, cols)
    # a case per (point, c): the scaled row stays on the tower and keeps
    # its Z-coordinates; one column per c, so failures are point-major
    failed = np.empty((len(cols[0]), len(scalars)), dtype=bool)
    for k, c in enumerate(scalars):
        factors = (c.to_int(), c.frobenius(q).to_int())
        moved = [k1.power_product((col, 1), (factors[j % 2], 1))
                 for j, col in enumerate(cols)]
        failed[:, k] = ~TOWERS["xprime"].mask(q, k1, moved) | \
            np.logical_or.reduce([a != b for a, b in zip(
                project_columns_to_x0(q, k1, moved), base)])
    failures = [{"point": k1.serialize_ints([c[row] for c in cols]),
                 "c": scalars[k].serialize()}
                for row, k in zip(*np.nonzero(failed))]
    pair_budget = scalars if len(scalars) <= 100 else scalars[:40]
    for c in pair_budget:
        for d in pair_budget:
            if sample.act(c * d) != sample.act(c).act(d):
                failures.append({"c": c.serialize(), "d": d.serialize()})
    return failed.size + len(pair_budget) ** 2, failures


def identity_suite(q: int, ctx: FieldContext) -> list:
    """Exhaustive identity checks for one q; returns machine-readable
    records, one per identity."""
    p, r = prime_power(q)
    k1 = ctx.extension_of_k1(q, 1)
    big = ctx.field(p, 4 * r)
    # the level-3 points as integer columns, and row 0 as a checked point
    cols = columns(TOWERS["xprime"], q, 3, k1)
    sample = TowerPoint(q, k1.elements_at([c[0] for c in cols]))

    names = ("torsion_factors_through_line",
             "reverse_factorization_middle_coeff",
             "consecutive_swap_identity", "quotient_torsion_shifts",
             "z_recursion", "supersingular_z_set_triple", "scaling_action")
    results = (*_suite_factorizations(q, big),
               *_suite_pairs(q, cols, k1),
               _suite_z_recursion(q, cols, k1),
               _suite_z_set(q, k1),
               _suite_action(q, cols, sample, k1))
    return [{"identity": name, "cases": cases, "passed": not failures,
             "failures": failures[:5]}
            for name, (cases, failures) in zip(names, results)]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_verify(cfg: RunConfig) -> int:
    ctx = cfg.context()
    records = identity_suite(cfg.q, ctx)
    meta = _meta(cfg, "verify", ctx)
    ok = all(rec["passed"] for rec in records)
    rows = [["identity", "cases", "passed"]]
    rows += [[rec["identity"], rec["cases"], rec["passed"]]
             for rec in records]
    _write_report(cfg, meta, {"checks": records, "passed": ok}, rows)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_enumerate(cfg: RunConfig) -> int:
    if cfg.m_first != cfg.m_last:
        raise UsageError("enumerate takes a single extension, not a range")
    ctx = cfg.context()
    L = ctx.extension_of_k1(cfg.q, cfg.m_first)
    tower = TOWERS[cfg.variant]
    cols = columns(tower, cfg.q, cfg.n, L)
    names = [f"{tower.letter}{i}"
             for i in range(cfg.n - len(cols) + 1, cfg.n + 1)]
    if cfg.supersingular_only:
        keep = tower.supersingular_mask(cfg.q, L, cols)
        cols = [c[keep] for c in cols]
    cols = [L.check_ints(c) for c in cols]
    meta = _meta(cfg, "enumerate", ctx)
    meta["field"] = L.serialize()
    meta["affine_only"] = True
    meta["count"] = len(cols[0])
    _write_points(cfg.format, meta, names, L, cols)
    return EXIT_OK


def _cmd_count(cfg: RunConfig) -> int:
    ctx = cfg.context()
    report = count_points(cfg.q, cfg.n, cfg.variant, cfg.m_first,
                          cfg.m_last, ctx=ctx)
    meta = _meta(cfg, "count", ctx)
    rows = report.csv_rows()
    rows.append(["supersingular_over_k1", "", "", report.supersingular_count])
    _write_report(cfg, meta, {"report": report.to_json_dict()}, rows)
    return EXIT_OK


def _cmd_zeta(cfg: RunConfig) -> int:
    if cfg.genus is None:
        raise UsageError("zeta requires --genus")
    if cfg.genus < 0:
        raise UsageError("genus must be nonnegative")
    n_counts = cfg.m_last - cfg.m_first + 1
    if n_counts < cfg.genus:
        raise UsageError(f"genus {cfg.genus} needs at least {cfg.genus} "
                         f"counts; --ext gives {n_counts}")
    if cfg.n != 2:
        raise UsageError(
            "zeta is wired to the quadratic level (n = 2), the only one "
            "with a built-in projective count convention")
    ctx = cfg.context()
    # every field before any count, so a range past the cap fails at once
    for m in range(cfg.m_first, cfg.m_last + 1):
        ctx.extension_of_k1(cfg.q, m)
    counts = [hermitian_affine_count(cfg.q, m, ctx) + 1
              for m in range(cfg.m_first, cfg.m_last + 1)]
    report = zeta_consistency(counts, cfg.genus, cfg.q**2)
    meta = _meta(cfg, "zeta", ctx)
    rows = [["m", "projective_count", "count_residual"]]
    for i, (cnt, res) in enumerate(zip(report.counts,
                                       report.count_residuals)):
        rows.append([cfg.m_first + i, cnt, str(res)])
    rows.append(["symmetry_residual", str(report.symmetry_residual), ""])
    rows.append(["weil_deviation", report.weil_deviation, ""])
    _write_report(cfg, meta, {"report": report.to_json_dict()}, rows)
    return EXIT_OK if report.exact_residuals_zero() else EXIT_VERIFY_FAILED


_COMMANDS = {
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "zeta": _cmd_zeta,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drintower",
        description="Recursive curve towers from rank-2 Drinfeld modules: "
                    "identity verification, enumeration, counting, zeta "
                    "consistency.")
    parser.add_argument("--version", action="version",
                        version=f"drintower {__version__}")
    parser.add_argument(
        "command", choices=tuple(_COMMANDS),
        help="verify: run the exhaustive identity suites for one q; "
             "enumerate: list tower points over one extension field; "
             "count: count points over a range of extensions; "
             "zeta: zeta consistency residuals for the quadratic level")
    parser.add_argument("--q", type=int,
                        help="base field size, a prime power")
    parser.add_argument("--n", type=int, help="tower level")
    parser.add_argument("--variant", choices=tuple(TOWERS),
                        help="x-coordinate tower or its Z-coordinate "
                             "quotient")
    parser.add_argument("--ext", help="extension index m or range m1..m2 "
                                      "over GF(q^2)")
    parser.add_argument("--format", choices=("json", "csv"))
    parser.add_argument("--genus", type=int,
                        help="externally supplied genus (zeta)")
    parser.add_argument("--supersingular-only", action="store_true")
    parser.add_argument("--workers", type=int,
                        help="accepted and ignored (must be at least 1)")
    parser.add_argument("--cap", type=int, help="field size cap")
    parser.add_argument("--modulus", action="append",
                        metavar="p^m/c0,c1,...",
                        help="explicit field modulus (repeatable)")
    parser.add_argument("--config", help="flat key = value config file")
    return parser


def main(argv=None) -> int:
    # before the walks first import numpy: no product here uses BLAS
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        code = _COMMANDS[args.command](cfg)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:
        # a walk or a count larger than the memory left
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (RuntimeError, ValueError) as exc:
        # a failed internal check: a walk's relation or range check
        print(f"error: {exc}", file=sys.stderr)
        return 1  # the exit code of the traceback this replaces
    except OSError as exc:
        # only a write can fail here: _build_config reports a config file
        # it cannot read as a usage error
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        # the interpreter flushes stdout again at exit; that must not fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 1  # the exit code of the traceback this replaces


def run() -> None:
    """The process entry of `drintower` and `python -m drintower`: exit
    with main's code.  Every object left is frozen first, so the
    interpreter's final collections skip them."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
