import csv
import io
import json
import subprocess
import sys
import threading

import pytest

from drintower.cli import main
from drintower.finite_field import TABLE_BUDGET, make_field


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


def test_verify_rejects_non_prime_power(capsys):
    code, _, err = _run(capsys, "verify", "--q", "6")
    assert code == 2
    assert "prime power" in err


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


def test_cap_exit_code(capsys):
    code, _, err = _run(capsys, "count", "--q", "2", "--n", "2",
                        "--ext", "13")
    assert code == 3
    assert "cap" in err


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


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("q: 3\n")
    assert _run(capsys, "enumerate", "--config", str(cfg))[0] == 2
    cfg2 = tmp_path / "bad2.cfg"
    cfg2.write_text("mystery = 1\n")
    assert _run(capsys, "enumerate", "--config", str(cfg2))[0] == 2
    assert _run(capsys, "enumerate", "--config",
                str(tmp_path / "missing.cfg"))[0] == 2


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


def test_setup_does_not_import_numpy():
    # importing the CLI and building fields stays free of numpy; tables
    # and array walks import it when first needed
    probe = ("import sys, drintower.cli\n"
             "from drintower.finite_field import make_field\n"
             "make_field(17, 4); make_field(2, 16)\n"
             "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "drintower", "count", "--q", "2", "--n",
         "2", "--ext", "1", "--format", "csv"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "supersingular_over_k1,,,6" in proc.stdout


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
    from drintower import cli
    monkeypatch.setattr(cli, "RENDER_BLOCK", 5)
    field = make_field(p, m)
    rng = np.random.default_rng(100 * p + m)
    meta = {"tool": "drintower", "count": 0,
            "fields_used": {(p, m): field.serialize()}}
    for width in (1, 2, 3):
        names = [f"x{i}" for i in range(1, width + 1)]
        for rows in (0, 1, 4, 5, 6, 17):
            cols = [rng.integers(0, field.size, rows) for _ in range(width)]
            points = [[field.from_int(int(v)).serialize() for v in row]
                      for row in zip(*cols)]
            cli._write_points("json", meta, names, field, cols)
            assert capsys.readouterr().out == json.dumps(
                {"meta": cli._json_meta(meta), "points": points},
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

    argv = ["enumerate", "--q", "2", "--n", "2", "--ext", "2"]
    with monkeypatch.context() as patched:
        patched.setattr(cli, "xprime_supersingular_mask", refuse)
        with pytest.raises(RuntimeError, match="mask refused"):
            main(argv + ["--supersingular-only"])
    assert capsys.readouterr().out == ""
    size = make_field(2, 4).size
    monkeypatch.setattr(cli, "xprime_columns", lambda q, n, field: (
        np.array([1, 2]), np.array([3, size])))
    with pytest.raises(ValueError, match="out of range"):
        main(argv)
    assert capsys.readouterr().out == ""
