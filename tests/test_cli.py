import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gausschar.cli import BUDGET_ENV_VAR, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_statement_table(capsys):
    code, out, err = run_cli(capsys, "verify", "--statement", "prop_1_1", "--p", "13")
    assert code == 0
    assert "prop_1_1" in out
    assert "2048" in out
    assert "ok" in out
    assert err == ""


def test_verify_hypothesis_violation_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--statement", "thm_1_2",
                             "--p", "3", "--n", "6")
    assert code == 2
    assert "divides" in err


def test_verify_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--statement", "thm_1_2",
                           "--p", "7", "--n", "2", "--output", "json")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert json.dumps(record, sort_keys=True) == lines[0]
    assert record["statement"] == "thm_1_2"
    assert record["p"] == 7 and record["n"] == 2
    assert record["total_functions"] == 32
    assert record["passing_spectral"] == 1
    assert record["mismatch_count"] == 0
    assert record["success"] is True
    assert record["witnesses"] == [{"exps": [0, 0, 1, 0, 1, 1], "a": 1}]


def test_verify_grid_with_small_budget(capsys):
    code, out, _ = run_cli(capsys, "verify", "--statement", "all",
                           "--budget", "300", "--output", "json")
    assert code == 1  # oversized cells become failed reports
    records = [json.loads(line) for line in out.splitlines() if line]
    assert len(records) == 64
    blown = [r for r in records if r["error"]]
    assert blown and all("exceeding the budget" in r["error"] for r in blown)
    small = [r for r in records if not r["error"]]
    assert small and all(r["success"] for r in small)


def test_verify_all_rejects_explicit_params(capsys):
    code, _, err = run_cli(capsys, "verify", "--statement", "all", "--p", "5")
    assert code == 2
    assert "default grid" in err


def test_verify_witness_listing(capsys):
    code, out, _ = run_cli(capsys, "verify", "--statement", "thm_1_2",
                           "--p", "5", "--n", "2", "--witnesses")
    assert code == 0
    assert "witness exps=0,1,1,0 a=1" in out


def test_classify_legendre(capsys):
    code, out, _ = run_cli(capsys, "classify", "--fn", "p=7 n=2 exps=0,0,1,0,1,1")
    assert code == 0
    assert "character (nontrivial)" in out
    assert "witness a=1" in out
    assert "consistent" in out


def test_classify_json_record(capsys):
    code, out, _ = run_cli(capsys, "classify", "--fn", "p=5 n=2 exps=0,1,1,0",
                           "--output", "json")
    assert code == 0
    record = json.loads(out)
    assert record["oracle"] is True
    assert record["spectral"] is True
    assert record["witness"] == 1
    assert record["consistent"] is True
    assert record["warnings"] == []


def test_classify_counterexample_not_applicable(capsys):
    code, out, _ = run_cli(capsys, "classify", "--fn", "p=3 n=6 exps=0,5")
    assert code == 0
    assert "not a character" in out
    assert "not applicable" in out
    assert "p divides n" in out


def test_classify_f1_warning(capsys):
    code, out, _ = run_cli(capsys, "classify", "--fn", "p=5 n=2 exps=1,1,1,1",
                           "--output", "json")
    assert code == 0
    record = json.loads(out)
    assert record["applicable"] is False
    assert "f(1) != 1" in record["warnings"]
    assert record["oracle"] is False


def test_classify_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--fn", "gibberish")
    assert code == 2
    assert "malformed" in err


def test_gauss_sum_command(capsys):
    code, out, _ = run_cli(capsys, "gauss-sum", "--fn", "p=5 n=2 exps=1,1,1,1")
    assert code == 0
    assert "integer  1" in out
    code, out, _ = run_cli(capsys, "gauss-sum", "--fn", "p=5 n=2 exps=0,1,1,0",
                           "--output", "json")
    record = json.loads(out)
    assert record["order"] == 10
    assert record["norm_squared_integer"] == 5


def test_fourier_command(capsys):
    code, out, _ = run_cli(capsys, "fourier", "--fn", "p=3 n=2 exps=0,1", "--xi", "1",
                           "--output", "json")
    assert code == 0
    record = json.loads(out)
    assert record["norm_squared_integer"] == 3
    assert record["unit_magnitude"] is True
    code, out, _ = run_cli(capsys, "fourier", "--fn", "p=5 n=2 exps=0,0,0,0", "--xi", "2")
    assert "unit_magnitude  false" in out


def test_autocorr_command(capsys):
    code, out, _ = run_cli(capsys, "autocorr", "--fn", "p=5 n=2 exps=0,1,1,0",
                           "--h", "0")
    assert code == 0
    assert "integer  4" in out
    code, out, _ = run_cli(capsys, "autocorr", "--fn", "p=5 n=2 exps=0,1,1,0",
                           "--h", "1", "--output", "json")
    assert json.loads(out)["integer"] == -1


def test_search_command(capsys):
    code, out, _ = run_cli(capsys, "search", "--p", "3", "--n", "6")
    assert code == 0
    assert "hit exps=0,5 a=2" in out
    code, _, _ = run_cli(capsys, "search", "--p", "3", "--n", "3")
    assert code == 1
    code, _, err = run_cli(capsys, "search", "--p", "3", "--n", "2")
    assert code == 2
    assert "does not divide" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "5")
    code, _, err = run_cli(capsys, "verify", "--statement", "thm_1_2",
                           "--p", "5", "--n", "2")
    assert code == 2
    assert "exceeding the budget of 5" in err
    # an explicit flag overrides the environment
    code, _, _ = run_cli(capsys, "verify", "--statement", "thm_1_2",
                         "--p", "5", "--n", "2", "--budget", "8")
    assert code == 0
    monkeypatch.setenv(BUDGET_ENV_VAR, "zero")
    code, _, err = run_cli(capsys, "verify", "--statement", "thm_1_2",
                           "--p", "5", "--n", "2")
    assert code == 2
    assert BUDGET_ENV_VAR in err


def test_budget_flag_must_be_positive(capsys, monkeypatch):
    # --budget gets the check GAUSSCHAR_BUDGET gets, before any cell runs.
    commands = (["verify", "--statement", "prop_1_1", "--p", "5"],
                ["verify", "--statement", "all"],
                ["search", "--p", "3", "--n", "6"])
    for budget, message in (("-3", "must be positive"), ("0", "must be positive"),
                            ("ten", "must be a decimal integer")):
        for command in commands:
            with pytest.raises(SystemExit) as excinfo:
                main(command + ["--budget", budget])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --budget: {message}" in err, (command, budget)
            monkeypatch.setenv(BUDGET_ENV_VAR, budget)
            code, _, err = run_cli(capsys, *command)
            monkeypatch.delenv(BUDGET_ENV_VAR)
            assert code == 2
            assert f"error: {BUDGET_ENV_VAR} {message}" in err, (command, budget)


def test_no_floats_anywhere(capsys):
    commands = [
        ["verify", "--statement", "prop_1_1", "--p", "7", "--witnesses"],
        ["verify", "--statement", "thm_1_2", "--p", "5", "--n", "4", "--output", "json"],
        ["classify", "--fn", "p=7 n=2 exps=0,0,1,0,1,1", "--output", "json"],
        ["gauss-sum", "--fn", "p=3 n=6 exps=0,5"],
        ["fourier", "--fn", "p=3 n=6 exps=0,5", "--xi", "2", "--output", "json"],
        ["autocorr", "--fn", "p=3 n=6 exps=0,5", "--h", "1"],
        ["search", "--p", "3", "--n", "6", "--output", "json"],
    ]
    float_pattern = re.compile(r"\d\.\d|\d[eE][+-]\d")
    for argv in commands:
        main(argv)
        out = capsys.readouterr().out
        assert not float_pattern.search(out), (argv, out)


def test_unknown_statement_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--statement", "thm_9_9", "--p", "5", "--n", "2"])
    assert excinfo.value.code == 2


def test_cli_import_stays_light():
    # -S: a site .pth file may preload typing, which would hide the package's
    # own imports.  The check is on the modules loaded, never on timing.
    heavy = ("dataclasses", "typing", "inspect", "ast")
    code = f"import sys, gausschar.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
