import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from drintower.cli import main
from drintower.finite_field import TABLE_BUDGET, make_field

# subprocesses import this checkout's package, not an installed copy
ENV = dict(os.environ,
           PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_q2_passes(capsys):
    code, out, _ = _run(capsys, "verify", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    names = {rec["identity"] for rec in payload["checks"]}
    assert {"torsion_factors_through_line",
            "reverse_factorization_middle_coeff",
            "consecutive_swap_identity", "quotient_torsion_shifts",
            "z_recursion", "supersingular_z_set_triple",
            "scaling_action"} == names


def test_identity_suite_prime_power_q():
    from drintower.cli import identity_suite
    from drintower.counting import FieldContext
    records = identity_suite(4, FieldContext())
    assert all(rec["passed"] for rec in records)


@pytest.mark.parametrize("q", [3, 4])
def test_verify_builds_no_quotient_points(q, monkeypatch):
    # every suite reads the walk's columns: with the quotient-point
    # constructor, the scalar projection and both unchecked point
    # constructors made to raise, the records do not change, and the
    # one TowerPoint built besides the images of act is the act sample
    from drintower import tower
    from drintower.cli import identity_suite
    from drintower.counting import FieldContext
    expected = identity_suite(q, FieldContext())

    def refuse(*args, **kwargs):
        raise AssertionError("verify built a per-point object")

    calls = {"__init__": 0, "act": 0}

    def counted(name):
        original = getattr(tower.TowerPoint, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tower.X0Point, "__init__", refuse)
    monkeypatch.setattr(tower.TowerPoint, "project_to_x0", refuse)
    for cls in (tower.TowerPoint, tower.X0Point):
        monkeypatch.setattr(cls, "_checked_elsewhere", refuse)
    for name in calls:
        monkeypatch.setattr(tower.TowerPoint, name, counted(name))
    assert identity_suite(q, FieldContext()) == expected
    assert calls["act"] > 0 and calls["__init__"] == 1 + calls["act"]


def _pair_records_by_scalar_loop(q, k1, cols):
    # the swap and shift suites as a scalar loop over the pairs of each
    # point; kernel_line_poly refuses 0, so a pair with a zero
    # coordinate counts as failing both identities
    from drintower.tower import (cofactor_poly, kernel_line_poly,
                                 quotient_torsion_poly, torsion_poly)
    swap, shift = [], []
    for row in range(len(cols[0])):
        point = k1.serialize_ints([c[row] for c in cols])
        xs = [k1.from_int(int(c[row])) for c in cols]
        for xa, xb in zip(xs, xs[1:]):
            ok_swap = ok_shift = False
            if xa and xb:
                torsion = torsion_poly(xb, q)
                ok_swap = cofactor_poly(xb, q) * kernel_line_poly(xb, q) \
                    == kernel_line_poly(xa, q) * cofactor_poly(xa, q) \
                    == torsion
                ok_shift = quotient_torsion_poly(xa, q) == torsion
            swap += [] if ok_swap else [{"point": point}]
            shift += [] if ok_shift else [{"point": point}]
    cases = len(cols[0]) * (len(cols) - 1)
    return (cases, swap), (cases, shift)


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("j,bad_z", [(2, 0), (2, -1), (1, -1)])
def test_column_suites_report_a_corrupted_point(q, j, bad_z):
    # one bad coordinate x_{j+1} in the columns: records name that point
    # (and, for the action, every scalar in order), case counts stay,
    # nothing raises.  Over GF(q^2) every Z pair off 0 and -1 satisfies
    # the quotient recursion, so x_{j+1} is moved to give Z = 0 or -1.
    from drintower.cli import _suite_action, _suite_pairs, \
        _suite_z_recursion
    from drintower.tower import TOWERS, columns, enumerate_xprime
    k1 = make_field(*{3: (3, 2), 4: (2, 4)}[q])
    sample = enumerate_xprime(q, 3, k1)[0]
    cols = columns(TOWERS["xprime"], q, 3, k1)
    clean = (_suite_z_recursion(q, cols, k1),
             _suite_action(q, cols, sample, k1), *_suite_pairs(q, cols, k1))
    assert all(failures == [] for _, failures in clean)

    row = len(cols[0]) // 2
    xs = [k1.from_int(int(c[row])) for c in cols]
    a = xs[j - 1]
    xs[j] = next(v for v in k1.elements() if (a * v) ** (q - 1) == bad_z)
    z = a * xs[j]
    assert z.frobenius(q) + z != a ** (q + 1)  # off the tower
    cols = [c.copy() for c in cols]
    cols[j][row] = xs[j].to_int()
    point = [x.serialize() for x in xs]

    cases, failures = _suite_z_recursion(q, cols, k1)
    assert (cases, failures) == (clean[0][0], [{"point": point}])
    cases, failures = _suite_action(q, cols, sample, k1)
    assert cases == clean[1][0]
    assert failures == [{"point": point, "c": c.serialize()}
                        for c in k1.nonzero_elements()]

    # over GF(q^2)* both pair identities hold for every pair of nonzero
    # coordinates, so only a zero one fails them, once per pair holding
    # it: here x_2 = 0 in row 0 (both pairs), and x_{j+1} in row when
    # the move above made it 0 (bad_z = 0)
    cols[1][0] = 0
    zero = k1.serialize_ints([c[0] for c in cols])
    moved = [] if xs[j] else [{"point": point}]
    pairs = _suite_pairs(q, cols, k1)
    assert pairs == _pair_records_by_scalar_loop(q, k1, cols)
    for (cases, failures), (clean_cases, _) in zip(pairs, clean[2:]):
        assert cases == clean_cases
        assert failures == [{"point": zero}] * 2 + moved


def test_verify_rejects_non_prime_power(capsys):
    code, _, err = _run(capsys, "verify", "--q", "6")
    assert code == 2
    assert "prime power" in err


@pytest.mark.parametrize("argv,code,message", [
    (("verify", "--q", "1000000000000000003"), 3, "exceeds the cap"),
    (("verify", "--q", "6000"), 3, "exceeds the cap"),
    (("verify", "--q", "6"), 2, "prime power"),
    (("enumerate", "--q", "1000000000000000003"), 3, "exceeds the cap"),
    (("count", "--modulus", "1000000000000000003^1/0,1"), 2,
     "exceeds the cap"),
    (("count", "--modulus", "2^3000000000/1,1"), 2, "exceeds the cap"),
    (("zeta", "--q", "1000000000000000003", "--genus", "1"), 3,
     "exceeds the cap"),
])
def test_size_is_checked_before_primality(argv, code, message):
    # q past the cap exits 3 before prime_power runs, and a modulus past
    # the cap exits 2 before its p is tested for primality or p^m is
    # computed: both run for more than 20 s otherwise
    proc = subprocess.run([sys.executable, "-m", "drintower", *argv],
                          capture_output=True, text=True, env=ENV,
                          timeout=10)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert message in proc.stderr


def test_enumerate_point_listing(capsys):
    code, out, _ = _run(capsys, "enumerate", "--q", "2", "--n", "2",
                        "--variant", "xprime", "--ext", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["count"] == 6
    assert len(payload["points"]) == 6
    assert payload["meta"]["config"]["q"] == 2
    assert payload["meta"]["field"] == "2^2/1,1,1"
    assert payload["meta"]["version"]


def test_enumerate_supersingular_only_x0(capsys):
    code, out, _ = _run(capsys, "enumerate", "--q", "2", "--n", "3",
                        "--variant", "x0", "--ext", "1",
                        "--supersingular-only")
    assert code == 0
    assert len(json.loads(out)["points"]) == 4


def test_enumerate_csv_format(capsys):
    code, out, _ = _run(capsys, "enumerate", "--q", "2", "--n", "2",
                        "--ext", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    meta_lines = [l for l in lines if l.startswith("# ")]
    data_lines = [l for l in lines if not l.startswith("# ")]
    assert any(l.startswith("# tool=") for l in meta_lines)
    assert data_lines[0] == "x1,x2"
    assert len(data_lines) == 7


def test_enumerate_rejects_ranges(capsys):
    code, _, err = _run(capsys, "enumerate", "--q", "2", "--n", "2",
                        "--ext", "1..2")
    assert code == 2
    assert "single extension" in err


def test_enumerate_rejects_ranges_before_building_fields(capsys):
    # GF(2^26) is past the default cap, but the range is the first error
    code, _, err = _run(capsys, "enumerate", "--q", "2", "--n", "2",
                        "--ext", "13..14")
    assert code == 2
    assert "single extension" in err


def test_count_values(capsys):
    code, out, _ = _run(capsys, "count", "--q", "2", "--n", "2",
                        "--ext", "1..2")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["rows"][0]["count"] == 6
    assert report["supersingular_count"] == 6
    code, out, _ = _run(capsys, "count", "--q", "3", "--n", "4",
                        "--ext", "1")
    assert json.loads(out)["report"]["supersingular_count"] == 216


def test_zeta_hermitian(capsys):
    code, out, _ = _run(capsys, "zeta", "--q", "2", "--n", "2",
                        "--genus", "1", "--ext", "1..2")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["symmetry_residual"] == "0"
    assert report["count_residuals"] == ["0", "0"]
    assert report["lpoly"] == ["1", "4", "4"]


def test_zeta_nonzero_residuals_exit_1(capsys):
    # the wrong genus leaves a nonzero exact residual: the report is
    # written unchanged and the exit code says it failed
    code, out, _ = _run(capsys, "zeta", "--q", "2", "--n", "2",
                        "--genus", "0", "--ext", "1")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "2e46c962ba607f03558f8a9e857197f7c489baaf573037640765a3a13fc4dd3b"
    assert json.loads(out)["report"]["count_residuals"] == ["-4"]
    code, out, _ = _run(capsys, "zeta", "--q", "2", "--n", "2",
                        "--genus", "1", "--ext", "1")
    assert code == 0
    assert json.loads(out)["report"]["count_residuals"] == ["0"]


def test_zeta_requires_genus_and_level_two(capsys):
    code, _, err = _run(capsys, "zeta", "--q", "2", "--n", "2")
    assert code == 2 and "genus" in err
    code, _, err = _run(capsys, "zeta", "--q", "2", "--n", "3",
                        "--genus", "1")
    assert code == 2 and "quadratic" in err


def test_zeta_usage_errors_exit_2(capsys):
    code, out, err = _run(capsys, "zeta", "--q", "4", "--n", "2",
                          "--genus", "6", "--ext", "1..3")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "at least 6 counts" in err
    code, out, err = _run(capsys, "zeta", "--q", "2", "--n", "2",
                          "--genus", "-1", "--ext", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "nonnegative" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    import drintower.cli as cli_mod

    def broken_suite(q, ctx):
        return [{"identity": "forced", "cases": 1, "passed": False,
                 "failures": [{"detail": "forced failure"}]}]

    monkeypatch.setattr(cli_mod, "identity_suite", broken_suite)
    code, out, _ = _run(capsys, "verify", "--q", "2")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_records_a_bad_quotient_row(capsys, monkeypatch):
    # one wrong bucket member in the level-3 quotient walk over GF(q^2)
    # is a failed z_recursion record with the same case count, not an
    # exception; every other record is unchanged
    from test_tower import _corrupt_bucket_member
    _, out, _ = _run(capsys, "verify", "--q", "2")
    expected = json.loads(out)["checks"]
    _corrupt_bucket_member(monkeypatch, 2, make_field(2, 2), "x0")
    code, out, err = _run(capsys, "verify", "--q", "2")
    assert (code, err) == (1, "")
    checks = json.loads(out)["checks"]
    z_got, z_expected = (
        next(rec for rec in records if rec["identity"] == "z_recursion")
        for records in (checks, expected))
    assert z_got["cases"] == z_expected["cases"]
    assert not z_got["passed"] and z_got["failures"]
    assert all(len(f["point"]) == 2 for f in z_got["failures"])
    assert [rec for rec in checks if rec is not z_got] == \
        [rec for rec in expected if rec is not z_expected]


def test_cap_exit_code(capsys):
    code, _, err = _run(capsys, "count", "--q", "2", "--n", "2",
                        "--ext", "13")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("argv,field", [
    (("--q", "16", "--n", "20", "--variant", "x0", "--ext", "1"), "2^8"),
    # GF(4) passes the bound at level 61, GF(16) does not
    (("--q", "2", "--n", "61", "--ext", "1..2"), "2^4"),
])
def test_count_past_int64_exits_3_before_field_work(argv, field, capsys,
                                                    monkeypatch):
    # a count bound q^(n-1) (|F| - 1) past 2^63 - 1 is refused before any
    # table, edge or weight array is allocated
    from drintower import finite_field, tower

    def refuse(*args, **kwargs):
        raise AssertionError("field-sized work before the overflow guard")

    monkeypatch.setattr(finite_field.FieldSpec, "tables", refuse)
    monkeypatch.setattr(tower, "_transfer", refuse)
    n = argv[argv.index("--n") + 1]
    assert _run(capsys, "count", *argv) == (
        3, "", f"error: a level-{n} count over {field} can exceed "
               f"2^63 - 1 points\n")


def test_walk_past_table_budget_exits_3(capsys):
    # the cap admits GF(2^26), but its tables would exceed the budget;
    # the walk is refused before it allocates anything of field size
    code, out, err = _run(capsys, "enumerate", "--q", "2", "--n", "2",
                          "--ext", "13", "--cap", str(2**26))
    assert (code, out) == (3, "")
    assert "table budget" in err


def test_invalid_inputs(capsys):
    assert _run(capsys, "enumerate", "--q", "2", "--n", "1")[0] == 2
    assert _run(capsys, "enumerate", "--ext", "2..1")[0] == 2
    assert _run(capsys, "enumerate", "--ext", "x")[0] == 2
    assert _run(capsys, "count", "--workers", "0")[0] == 2
    assert _run(capsys, "count", "--modulus", "nonsense")[0] == 2


def test_modulus_override(capsys):
    code, out, _ = _run(capsys, "enumerate", "--q", "2", "--n", "2",
                        "--ext", "1", "--modulus", "2^2/1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["config"]["moduli"] == {"2^2": "1,1,1"}
    code, _, err = _run(capsys, "enumerate", "--q", "2", "--n", "2",
                        "--ext", "1", "--modulus", "2^2/1,0,1")
    assert code == 2
    assert "reducible" in err


def test_config_file_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 3\nn = 3\nvariant = x0\n# comment\nformat = json\n")
    code, out, _ = _run(capsys, "enumerate", "--ext", "1",
                        "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["config"]["q"] == 3
    assert payload["meta"]["config"]["variant"] == "x0"
    # flags beat the file
    code, out, _ = _run(capsys, "enumerate", "--ext", "1",
                        "--config", str(cfg), "--q", "2", "--n", "2",
                        "--variant", "xprime")
    payload = json.loads(out)
    assert payload["meta"]["config"]["q"] == 2
    assert payload["meta"]["count"] == 6


# one value per flag; --workers 0 and --genus 0 check that a zero flag
# is not dropped as if it were absent
_FLAG_VALUES = [("q", "3"), ("n", "3"), ("variant", "x0"), ("ext", "2..3"),
                ("format", "csv"), ("genus", "0"), ("genus", "2"),
                ("supersingular-only", None), ("workers", "0"),
                ("workers", "2"), ("cap", "100000"),
                ("modulus", "2^2/1,1,1"), ("modulus", "3^2/2,2,1")]


@pytest.mark.parametrize("command", ["verify", "enumerate", "count", "zeta"])
@pytest.mark.parametrize("flag,value", _FLAG_VALUES)
def test_flag_and_config_key_give_one_config(flag, value, command,
                                             tmp_path):
    from drintower.cli import UsageError, _build_config, build_parser
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag} = {'true' if value is None else value}\n")
    argvs = ([command, f"--{flag}"] + ([] if value is None else [value]),
             [command, "--config", str(cfg)])
    results = []
    for argv in argvs:
        try:
            results.append(_build_config(build_parser().parse_args(argv)))
        except UsageError as exc:
            results.append(str(exc))
    assert results[0] == results[1]
    # equal RunConfigs, or the one validation message, for workers 0
    assert isinstance(results[0], str) == ((flag, value) == ("workers", "0"))


_ALL_COMMANDS = [
    ("verify", "--q", "2"),
    ("enumerate", "--q", "2", "--n", "3", "--ext", "2", "--format", "csv"),
    ("count", "--q", "2", "--n", "3", "--variant", "x0", "--ext", "1..2"),
    ("zeta", "--q", "2", "--n", "2", "--genus", "1", "--ext", "1..2"),
]


@pytest.mark.parametrize("argv", _ALL_COMMANDS, ids=lambda a: a[0])
def test_flags_before_the_command_give_the_same_output(argv, capsys):
    after = _run(capsys, *argv)
    before = _run(capsys, *argv[1:], argv[0])
    assert after[0] == 0 and after[1]
    assert before == after


def test_help_names_each_command_and_flag_once(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for command, *_ in _ALL_COMMANDS:
        assert f"{command}:" in text
    # the options section, past the usage line that names them too
    options = text[text.index("\noptions:"):]
    flags = {f for f, _ in _FLAG_VALUES} | {"config", "version"}
    for flag in flags:
        assert len(re.findall(f"--{flag}(?![\\w-])", options)) == 1, flag


@pytest.mark.parametrize("text,value", [
    ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
    ("0", False), ("false", False), ("NO", False), ("Off", False),
    ("ture", None), ("", None), ("2", None)])
def test_config_boolean(text, value, tmp_path, capsys):
    # a word outside the two lists is a usage error, not false
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"supersingular_only = {text}\n")
    code, out, err = _run(capsys, "enumerate", "--q", "2", "--n", "2",
                          "--ext", "1", "--config", str(cfg))
    if value is None:
        assert (code, out, err) == (
            2, "", f"error: bad boolean for supersingular_only: {text!r}\n")
    else:
        assert code == 0
        assert json.loads(out)["meta"]["config"]["supersingular_only"] \
            is value


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    # numpy's allocation failure in a walk exits 3, as a resource
    # refusal, with no traceback and nothing on stdout; 2 EiB exceeds
    # every address space, so the request fails at once
    import numpy as np
    from drintower import tower

    def expand(*args):
        return np.empty(2**58, dtype=np.int64)

    monkeypatch.setattr(tower, "_expand", expand)
    code, out, err = _run(capsys, "enumerate", "--q", "2", "--n", "3",
                          "--ext", "1")
    assert (code, out) == (3, "")
    assert err.startswith("error: out of memory: Unable to allocate")
    assert len(err.splitlines()) == 1


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("q: 3\n")
    assert _run(capsys, "enumerate", "--config", str(cfg))[0] == 2
    cfg2 = tmp_path / "bad2.cfg"
    cfg2.write_text("mystery = 1\n")
    assert _run(capsys, "enumerate", "--config", str(cfg2))[0] == 2
    assert _run(capsys, "enumerate", "--config",
                str(tmp_path / "missing.cfg"))[0] == 2
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"q = 2\n\xff\n")
    code, out, err = _run(capsys, "enumerate", "--config", str(latin))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot read config file")


@pytest.mark.parametrize("argv", [
    ("count", "--q", "4", "--n", "2", "--ext", "1..6", "--cap", "1048576"),
    ("zeta", "--q", "4", "--n", "2", "--genus", "1", "--ext", "1..6",
     "--cap", "1048576"),
])
def test_ext_range_past_the_cap_fails_before_any_count(argv, capsys,
                                                       monkeypatch):
    # GF(4^12) passes the cap: no walk or count below it runs first
    from drintower import cli, counting

    def refuse(*args, **kwargs):
        raise AssertionError("counted before the cap check")

    monkeypatch.setattr(counting, "count", refuse)
    monkeypatch.setattr(cli, "hermitian_affine_count", refuse)
    assert _run(capsys, *argv) == (
        3, "", "error: field size 2^24 exceeds the cap 1048576\n")


def test_workers_do_not_change_output(capsys):
    runs = []
    for workers in ("1", "3"):
        code, out, _ = _run(capsys, "enumerate", "--q", "2", "--n", "3",
                            "--ext", "1", "--workers", workers)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_workers_start_no_thread(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for cmd in (("enumerate", "--q", "2", "--n", "3", "--ext", "2"),
                ("count", "--q", "2", "--n", "3", "--variant", "x0",
                 "--ext", "1..2")):
        outs = []
        for workers in ("1", "8"):
            code, out, _ = _run(capsys, *cmd, "--workers", workers)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
def test_cli_process_runs_in_one_thread():
    # importing the package leaves the environment alone; main then keeps
    # numpy's OpenBLAS from starting threads, even against a preset value
    probe = ("import contextlib, io, os, sys\n"
             "import drintower, drintower.cli\n"
             "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = drintower.cli.main(['count', '--q', '2', '--n', '3',"
             " '--variant', 'x0', '--ext', '1..2'])\n"
             "print(code, 'numpy' in sys.modules,"
             " len(os.listdir('/proc/self/task')))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True,
                          env=dict(ENV, OPENBLAS_NUM_THREADS="4"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["4", "0 True 1", ""]


def test_setup_does_not_import_numpy():
    # importing the CLI and building fields stays free of numpy; tables
    # and array walks import it when first needed
    probe = ("import sys, drintower.cli\n"
             "from drintower.finite_field import make_field\n"
             "make_field(17, 4); make_field(2, 16)\n"
             "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "drintower", "count", "--q", "2", "--n",
         "2", "--ext", "1", "--format", "csv"],
        capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0
    assert "supersingular_over_k1,,,6" in proc.stdout


# one command for each exit code: 0, 1 (a nonzero zeta residual), 2 (q
# not a prime power) and 3 (GF(q^2) over the size cap)
_EXIT_CASES = [
    (0, ["count", "--q", "2", "--n", "2", "--ext", "1"]),
    (1, ["zeta", "--q", "2", "--n", "2", "--genus", "0", "--ext", "1"]),
    (2, ["count", "--q", "6"]),
    (3, ["count", "--q", "4", "--cap", "10"]),
]


@pytest.mark.parametrize("want,argv", _EXIT_CASES)
def test_process_entries_match_main(capsys, want, argv):
    # python -m drintower and cli.run write main's stdout and exit with
    # its code
    code, out, _ = _run(capsys, *argv)
    assert code == want
    for entry in (["-m", "drintower"],
                  ["-c", "from drintower.cli import run; run()"]):
        proc = subprocess.run([sys.executable, *entry, *argv],
                              capture_output=True, env=ENV)
        assert (proc.returncode, proc.stdout) == (want, out.encode()), \
            proc.stderr


def test_run_freezes_once_after_main(monkeypatch):
    import gc

    import drintower.cli as cli_mod
    events = []
    monkeypatch.setattr(cli_mod, "main", lambda: events.append("main") or 3)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli_mod.run()
    assert exc.value.code == 3
    assert events == ["main", "freeze"]


def test_main_never_freezes(capsys, monkeypatch):
    import gc

    def refuse():
        raise AssertionError("main froze the heap")

    monkeypatch.setattr(gc, "freeze", refuse)
    for want, argv in _EXIT_CASES:
        assert _run(capsys, *argv)[0] == want


def _assert_one_error_line(returncode, stderr):
    assert returncode == 1, stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), stderr


def test_closed_pipe_is_one_error_line():
    # the reader stops after 100 bytes of a listing of several megabytes
    proc = subprocess.Popen(
        [sys.executable, "-m", "drintower", "enumerate", "--q", "2", "--n",
         "2", "--ext", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    _assert_one_error_line(proc.wait(), stderr)
    assert "cannot write output" in stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("command", ["enumerate", "count"])
def test_full_device_is_one_error_line(command):
    # the report fits the stdout buffer, so the write fails only when
    # main flushes it
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "drintower", command, "--q", "2", "--n",
             "2", "--ext", "1"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=ENV)
    _assert_one_error_line(proc.returncode, proc.stderr)
    assert "No space left" in proc.stderr


# the variant each probe walks, and how it breaks the walk: the count
# reads no bucket, so its probe moves one transfer key of the level-3
# quotient count off the field instead
_CORRUPT = {
    "enumerate": ("xprime", "_corrupt_bucket_member(pytest.MonkeyPatch(), "
                            "2, make_field(2, 4), 'xprime')"),
    "count": ("x0", "real = tower._z_backward\n"
                    "def shifted(q, field, z):\n"
                    "    keys = real(q, field, z)\n"
                    "    keys[:1] += field.size\n"
                    "    return keys\n"
                    "tower._z_backward = shifted"),
}


@pytest.mark.parametrize("command", sorted(_CORRUPT))
def test_failed_internal_check_is_one_error_line(command):
    # a walk that fails its own check exits 1 with one error line and
    # nothing on stdout, as a process
    variant, corrupt = _CORRUPT[command]
    probe = ("import sys, pytest\n"
             "from test_tower import _corrupt_bucket_member\n"
             "from drintower import cli, tower\n"
             "from drintower.finite_field import make_field\n"
             f"{corrupt}\n"
             f"sys.exit(cli.main(['{command}', '--q', '2', '--n', '3', "
             f"'--variant', '{variant}', '--ext', '2']))")
    env = dict(ENV, PYTHONPATH=os.pathsep.join(
        (ENV["PYTHONPATH"], str(Path(__file__).resolve().parent))))
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env)
    _assert_one_error_line(proc.returncode, proc.stderr)
    assert proc.stdout == ""


def test_emit_json_matches_json_dumps():
    import random
    from drintower.cli import _emit_json
    rng = random.Random(11)
    meta = {"tool": "drintower", "count": 3, "nested": {"b": [1, {}], "a": []},
            "fields_used": {"2^4": "2^4/1,1,0,0,1"}}
    cases = [[], [["1,0"]]]
    for width in (1, 2, 3):
        cases.append([[f"{rng.randrange(9)},{rng.randrange(9)}"
                       for _ in range(width)] for _ in range(50)])
    for rows in cases:
        payload = {"points": rows, "meta": meta}
        assert _emit_json(payload) == \
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
    other = {"passed": True, "checks": [{"failures": []}], "meta": meta}
    assert _emit_json(other) == \
        json.dumps(other, indent=2, sort_keys=True) + "\n"



@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 11, 17, 251)
                                 for m in (1, 2, 5) if p**m <= TABLE_BUDGET])
def test_point_blocks_match_json_dumps_and_csv_writer(p, m, capsys,
                                                      monkeypatch):
    # GF(251^5) is left out: no walk lists points past the table budget
    import numpy as np
    from drintower import cli, finite_field
    monkeypatch.setattr(finite_field, "_CHUNK", 5)
    field = make_field(p, m)
    rng = np.random.default_rng(100 * p + m)
    meta = {"tool": "drintower", "count": 0,
            "fields_used": {f"{p}^{m}": field.serialize()}}
    for width in (1, 2, 3):
        names = [f"x{i}" for i in range(1, width + 1)]
        for rows in (0, 1, 4, 5, 6, 17):
            cols = [rng.integers(0, field.size, rows) for _ in range(width)]
            points = [[field.from_int(int(v)).serialize() for v in row]
                      for row in zip(*cols)]
            cli._write_points("json", meta, names, field, cols)
            assert capsys.readouterr().out == json.dumps(
                {"meta": meta, "points": points},
                indent=2, sort_keys=True) + "\n"
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows([names] + points)
            cli._write_points("csv", meta, names, field, cols)
            assert capsys.readouterr().out == \
                cli._emit_csv(meta, []) + buf.getvalue()


def test_enumerate_writes_nothing_when_a_check_fails(capsys, monkeypatch):
    import numpy as np
    from drintower import cli

    def refuse(*args):
        raise RuntimeError("mask refused")

    # a failed check is one error line and exit 1, with empty stdout
    argv = ["enumerate", "--q", "2", "--n", "2", "--ext", "2"]
    with monkeypatch.context() as patched:
        patched.setitem(cli.TOWERS, "xprime", dataclasses.replace(
            cli.TOWERS["xprime"], supersingular_mask=refuse))
        code, out, err = _run(capsys, *argv, "--supersingular-only")
    assert (code, out, err) == (1, "", "error: mask refused\n")
    size = make_field(2, 4).size
    monkeypatch.setattr(cli, "columns", lambda tower, q, n, field: (
        np.array([1, 2]), np.array([3, size])))
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: encoding out of range\n")
