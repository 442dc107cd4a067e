import ast
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import reference

from gausschar import cli, modp
from gausschar.cli import _json_text, _parse_args, main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


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


def test_verify_grid_table_shows_cell_errors(capsys):
    code, out, _ = run_cli(capsys, "verify", "--statement", "all", "--budget", "300")
    assert code == 1
    rows = out.splitlines()
    assert rows[-1] == "cells=64 ok=47 failed=17"
    row = next(r for r in rows if r.startswith("prop_1_1") and r.split()[1] == "11")
    assert row.endswith("  error: enumeration would visit 512 functions, "
                        "exceeding the budget of 300")
    assert sum("  error: " in r for r in rows) == 17


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


def test_classify_table_non_character(capsys):
    code, out, _ = run_cli(capsys, "classify", "--fn", "p=5 n=4 exps=0,1,1,0")
    assert code == 0
    assert "spectral   not a nontrivial character" in out.splitlines()


def test_verify_table_lists_mismatches(capsys, monkeypatch):
    # A flatness test that passes every judged table disagrees with the
    # oracle on the trivial character, which the bucket screen rejects and
    # the candidate list names; the disagreement is listed under the row.
    from gausschar import spectral
    monkeypatch.setattr(spectral, "kurlberg_test", lambda f: True)
    code, out, _ = run_cli(capsys, "verify", "--statement", "thm_1_7",
                           "--p", "5", "--n", "4")
    assert code == 1
    mismatches = [r for r in out.splitlines() if r.startswith("    mismatch exps=")]
    assert len(mismatches) == 1
    assert "    mismatch exps=0,0,0,0" in mismatches


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


@pytest.mark.parametrize("fn", [
    "p=10007 n=20014 exps=" + ",".join(["0"] * 10006),       # p | n
    "p=10007 n=2 exps=" + ",".join(["1"] + ["0"] * 10005),   # f(1) != 1
], ids=["p_divides_n", "f1_not_1"])
def test_classify_refuses_what_no_side_can_bound(capsys, fn):
    # The spectral side is skipped on these tables and the oracle is
    # quadratic in p, so above MAX_ORDER the command refuses at once.
    code, out, err = run_cli(capsys, "classify", "--fn", fn)
    assert (code, out) == (2, "")
    assert err == "error: modulus 10007 exceeds MAX_ORDER = 10000\n"


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
    code, out, _ = run_cli(capsys, "verify", "--statement", "remark_p_divides_n",
                           "--p", "3", "--n", "6", "--witnesses")
    assert code == 0
    assert "witness exps=0,5 a=2" in out
    code, _, _ = run_cli(capsys, "verify", "--statement", "remark_p_divides_n",
                         "--p", "3", "--n", "3")
    assert code == 1
    code, _, err = run_cli(capsys, "verify", "--statement", "remark_p_divides_n",
                           "--p", "3", "--n", "2")
    assert code == 2
    assert "does not divide" in err
    # verify is the one way to run the search; there is no search subcommand.
    with pytest.raises(SystemExit) as excinfo:
        main(["search", "--p", "3", "--n", "6"])
    assert excinfo.value.code == 2


def test_budget_env_var(capsys, monkeypatch):
    # The budget comes from --budget alone; the environment sets nothing.
    monkeypatch.setenv("GAUSSCHAR_BUDGET", "5")
    code, _, err = run_cli(capsys, "verify", "--statement", "thm_1_2",
                           "--p", "5", "--n", "2")
    assert code == 0
    assert err == ""
    code, _, err = run_cli(capsys, "verify", "--statement", "thm_1_2",
                           "--p", "5", "--n", "2", "--budget", "5")
    assert code == 2
    assert "exceeding the budget of 5" in err


def test_budget_flag_must_be_positive(capsys):
    # --budget is checked before any cell runs.
    commands = (["verify", "--statement", "prop_1_1", "--p", "5"],
                ["verify", "--statement", "all"],
                ["verify", "--statement", "remark_p_divides_n", "--p", "3", "--n", "6"])
    for budget, message in (("-3", "must be positive"), ("0", "must be positive"),
                            ("ten", "must be a decimal integer")):
        for command in commands:
            with pytest.raises(SystemExit) as excinfo:
                main(command + ["--budget", budget])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --budget: {message}" in err, (command, budget)


def test_no_floats_anywhere(capsys):
    commands = [
        ["verify", "--statement", "prop_1_1", "--p", "7", "--witnesses"],
        ["verify", "--statement", "thm_1_2", "--p", "5", "--n", "4", "--output", "json"],
        ["classify", "--fn", "p=7 n=2 exps=0,0,1,0,1,1", "--output", "json"],
        ["gauss-sum", "--fn", "p=3 n=6 exps=0,5"],
        ["fourier", "--fn", "p=3 n=6 exps=0,5", "--xi", "2", "--output", "json"],
        ["autocorr", "--fn", "p=3 n=6 exps=0,5", "--h", "1"],
        ["verify", "--statement", "remark_p_divides_n", "--p", "3", "--n", "6",
         "--output", "json"],
    ]
    float_pattern = re.compile(r"\d\.\d|\d[eE][+-]\d")
    for argv in commands:
        main(argv)
        out = capsys.readouterr().out
        assert not float_pattern.search(out), (argv, out)


@pytest.mark.parametrize("args", [
    ("verify", "--statement", "all", "--output", "json"),
    ("--help",),
], ids=["verify_all_json", "help"])
def test_a_closed_pipe_ends_quietly(args):
    # The reader is gone before the first write: the command stops with
    # status 1 and no traceback, and the exit flush does not fail again.
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([sys.executable, "-m", "gausschar.cli", *args],
                              stdout=write, stderr=subprocess.PIPE, env=env, text=True,
                              timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")   # no traceback, nor any other line


def test_unknown_statement_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--statement", "thm_9_9", "--p", "5", "--n", "2"])
    assert excinfo.value.code == 2


def test_cli_import_stays_light():
    # -S: a site .pth file may preload typing, which would hide the package's
    # own imports.  The check is on the modules loaded, never on timing.
    heavy = ("dataclasses", "typing", "inspect", "ast", "argparse", "gettext", "locale",
             "json", "re", "enum")
    code = f"import sys, gausschar.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


# ---------------------------------------------------------------------------
# The table-driven parser against the argparse parser it replaced.

SUBCOMMANDS = ("verify", "classify", "gauss-sum", "fourier", "autocorr")
FN = "p=5 n=2 exps=0,1,1,0"

# Rejected by both parsers.
REJECTED = (
    [],
    ["search", "--p", "3", "--n", "6"],
    ["verify", "--statement", "thm_9_9", "--p", "5", "--n", "2"],
    ["verify", "--p", "5", "--n", "2"],
    ["classify"],
    ["gauss-sum", "--output", "json"],
    ["fourier", "--fn", FN],
    ["autocorr", "--fn", FN, "--output", "json"],
    ["classify", "--fn", FN, "--output", "xml"],
    ["verify", "--statement", "prop_1_1", "--p", "5", "--budget", "-3"],
    ["verify", "--statement", "prop_1_1", "--p", "5", "--budget", "0"],
    ["verify", "--statement", "prop_1_1", "--p", "5", "--budget", "ten"],
    ["verify", "--statement", "all", "extra"],
    ["verify", "--statement"],
    ["fourier", "--fn", FN, "--xi", "x"],
    ["verify", "--statement", "all", "--witnesses=yes"],
)

# Rejected by the table alone: argparse reads these integers with int(), which
# also takes underscores, padding and non-ASCII digits, and it accepts a
# unique prefix of a long option.
REJECTED_BY_TABLE = (
    ["verify", "--statement", "prop_1_1", "--p", "5", "--budget", "1_000"],
    ["verify", "--statement", "prop_1_1", "--p", "5", "--budget", " 7"],
    ["verify", "--statement", "prop_1_1", "--p", "5", "--budget", "7\n"],
    ["verify", "--statement", "prop_1_1", "--p", "5", "--budget", "\u0667"],
    ["verify", "--statement", "prop_1_1", "--p", "1_3"],
    ["verify", "--statement", "thm_1_2", "--p", "5", "--n", "\uff12"],
    ["fourier", "--fn", FN, "--xi", " 1"],
    ["autocorr", "--fn", FN, "--h", "1_0"],
    ["verify", "--stat", "all"],
)


def outcome(parse, argv):
    """The values a parser reads from argv, or the status it exits with."""
    try:
        return vars(parse(list(argv)))
    except SystemExit as exc:
        return exc.code


def test_parsers_reject_the_same_argvs(capsys):
    ref = reference._build_parser().parse_args
    for argv in REJECTED + REJECTED_BY_TABLE:
        if argv in REJECTED:
            assert outcome(ref, argv) == 2, argv
        else:
            assert isinstance(outcome(ref, argv), dict), argv
        capsys.readouterr()
        assert outcome(_parse_args, argv) == 2, argv
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: gausschar"), argv
        assert re.match(r"gausschar( [a-z-]+)?: error: ", error), argv
        if argv in REJECTED_BY_TABLE:
            assert "must be a decimal integer" in error or "unrecognized argument" in error


def _argvs_in_this_file():
    """Every literal command line of this file: run_cli calls and lists of
    strings that start with a subcommand."""
    argvs = []
    for node in ast.walk(ast.parse(Path(__file__).read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_cli":
            items = node.args[1:]
        elif isinstance(node, ast.List) and node.elts:
            items = node.elts
        else:
            continue
        if all(isinstance(x, ast.Constant) and isinstance(x.value, str) for x in items):
            argv = [x.value for x in items]
            if argv[0] in SUBCOMMANDS + ("search",):
                argvs.append(argv)
    return argvs


def _argvs_in_docs():
    """The README's gausschar examples and the CLI calls of the CI workflow."""
    argvs = []
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("gausschar "):
            argvs.append(shlex.split(line)[1:])
    for line in (ROOT / ".github/workflows/ci.yml").read_text().splitlines():
        line = line.strip()
        if line.startswith("refuses "):
            argvs.append(shlex.split(line)[1:])
        elif "-m gausschar.cli " in line:
            rest = line.split("-m gausschar.cli ", 1)[1].split(" > ")[0]
            if not rest.lstrip('"').startswith("$"):    # a shell function's or loop's argv
                argvs.append(shlex.split(rest))
    return argvs


def _argvs_of_the_benchmark():
    """The commands of perfbench's cli_cold workload for a few seeds."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [list(op) for seed in range(4) for op in workloads.CliCold(seed, False).ops]


def test_parsers_agree_on_the_corpus(capsys):
    ref = reference._build_parser().parse_args
    corpora = {"tests": _argvs_in_this_file(), "docs": _argvs_in_docs(),
               "benchmark": _argvs_of_the_benchmark()}
    assert len(corpora["tests"]) > 30 and len(corpora["docs"]) > 20
    assert len(corpora["benchmark"]) == 56
    for name, argvs in corpora.items():
        for argv in argvs:
            if argv in REJECTED_BY_TABLE:   # where the two differ on purpose
                continue
            assert outcome(_parse_args, argv) == outcome(ref, argv), (name, argv)
    capsys.readouterr()


def test_help_lists_every_command_and_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert all(re.search(rf"^  {sub} ", out, re.M) for sub in SUBCOMMANDS), out
    options = {"verify": ("--statement", "--p", "--n", "--witnesses", "--budget", "--output"),
               "classify": ("--fn", "--output"), "gauss-sum": ("--fn", "--output"),
               "fourier": ("--fn", "--xi", "--output"), "autocorr": ("--fn", "--h", "--output")}
    for sub, names in options.items():
        with pytest.raises(SystemExit) as excinfo:
            main([sub, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: gausschar {sub} ")
        for name in ("-h, --help",) + names:
            assert re.search(rf"^  {name}\b", out, re.M), (sub, name)


# ---------------------------------------------------------------------------
# The JSON writer against json.dumps.

def _same_as_json_dumps(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True), value


def test_json_writer_matches_json_dumps():
    strings = ("", "ok", 'say "hi"', "back\\slash", "nul\x00", "line\nbreak", "tab\t",
               "del\x7f", "caf\u00e9", "\U0001F600", " ", "~", "p divides n")
    for text in strings:
        _same_as_json_dumps(text)
        _same_as_json_dumps({text: [text]})
    values = (None, True, False, 1, 0, -1, [True, 1, False, 0], (0, True), (), [], [[]],
              [[1, [2, []]], {}], 2 ** 64 + 1, -(2 ** 70), {"a": True, "b": 1, "c": False},
              {"z": None, "b": [1, 2], "a": {"y": 0, "x": "t"}, "B": ()}, [{"k": 1}, None])
    for value in values:
        _same_as_json_dumps(value)


def test_json_writer_matches_json_dumps_on_every_cli_record(capsys, monkeypatch):
    # Every command line of this file, the docs and the benchmark, asked for
    # JSON (the last --output wins), and every golden report.
    records = []
    monkeypatch.setattr(cli, "_emit_json", records.append)
    for argv in _argvs_in_this_file() + _argvs_in_docs() + _argvs_of_the_benchmark():
        try:
            main(argv + ["--output", "json"])
        except SystemExit:
            pass
    capsys.readouterr()
    assert len(records) > 100
    for name in ("grid_golden.jsonl", "tier2_golden.jsonl"):
        lines = (ROOT / "tests" / "data" / name).read_text().splitlines()
        records += [json.loads(line) for line in lines]
    for record in records:
        _same_as_json_dumps(record)


# ---------------------------------------------------------------------------
# The str-method parser of function text against the regular expression it
# replaced.

# Rejected by both parsers.
MALFORMED_FN = (
    "", "gibberish", "p=5 n=2", "p=5 exps=0,1,1,0", "n=2 exps=0,1,1,0",
    "n=2 p=5 exps=0,1,1,0", "p=5 exps=0,1,1,0 n=2", "p=5n=2 exps=0,1,1,0",
    "p=5 n=2exps=0,1,1,0", "p=5 n=2 exps=0,,1,1", "p=5 n=2 exps=0,1,1,",
    "p=5 n=2 exps=0,,1", "p=5 n=2 exps=", "p=5 n=2 exps= ", "p=5 n=2 exps=0,1=1,0",
    "p=5 n=2 exp=0,1,1,0", "p=5 n=2 n=0,1,1,0", "p=5 n=2 exps=0,1 1,0",
    "p=5 n=2 exps=0;1;1;0", "p=5 n=2 exps=0,-1,1,0", "p=+5 n=2 exps=0,1,1,0",
    "p=1_1 n=2 exps=0,1,1,0", "p=5 n=2 exps=0,1_0,1,0", "P=5 n=2 exps=0,1,1,0",
    "p=5 n=2 exps=0,\u0661,1,0", "p=5 n=2 exps=0,1,2,0", "p=5 n=2 exps=0,1,1",
    "p=4 n=2 exps=0,1,1", "p=5 n=0 exps=0,0,0,0", "p = = 5 n=2 exps=0,1,1,0",
    "p=5 n=2 exps=0,1,1,0 x", "p=1000000000000000000000007 n=2 exps=0",
)
# Accepted by both.
WELL_FORMED_FN = (
    "p=5 n=2 exps=0,1,1,0", "  p = 5\tn =2\n exps= 0 , 1,1 ,0 \n", "p=05 n=2 exps=0,1,1,00",
    "p=5\u00a0n=2\u2003exps=0,1,1,0\u3000", "p=3 n=6 exps=0,5\n",
)
# Rejected by the str methods alone: the regular expression's \d also took
# non-ASCII decimal digits in p and n, which int() reads.
REJECTED_BY_STR = (
    "p=\u0665 n=2 exps=0,1,1,0", "p=5 n=\uff12 exps=0,1,1,0",
    "p=\u0967\u0967 n=2 exps=0,0,0,0,0,0,0,0,0,0",
)


def parse_outcome(parse, text):
    """The table a parser reads from text, or the message it refuses with."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def _fn_literals_in_tests():
    """The value after every "--fn" in a literal list or call of tests/, and
    every literal parse_unit_function argument there."""
    texts = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            items = node.elts if isinstance(node, ast.List) else (
                node.args if isinstance(node, ast.Call) else [])
            values = [x.value if isinstance(x, ast.Constant) else None for x in items]
            texts += [v for k, v in zip(values, values[1:]) if k == "--fn" and isinstance(v, str)]
            if getattr(getattr(node, "func", None), "id", None) == "parse_unit_function":
                texts += [v for v in values if isinstance(v, str)]
    return texts


def _fn_texts_in_docs():
    """The README's --fn values, and CI's, whose exps the workflow builds
    with a python -c program that is run here the same way."""
    texts = []
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("gausschar ") and "--fn" in line:
            argv = shlex.split(line)
            texts.append(argv[argv.index("--fn") + 1])
    exps = None
    for line in (ROOT / ".github/workflows/ci.yml").read_text().splitlines():
        if "exps=$(python -c '" in line:
            program = line.split("-c '", 1)[1].rsplit("')", 1)[0]
            exps = subprocess.run([sys.executable, "-c", program], capture_output=True,
                                  text=True, check=True, timeout=60).stdout.strip()
        elif '--fn "' in line:
            texts.append(line.split('--fn "', 1)[1].split('"', 1)[0].replace("$exps", exps))
    return texts


def test_function_text_parsers_agree_on_the_corpus():
    corpora = {"tests": _fn_literals_in_tests(), "docs": _fn_texts_in_docs(),
               "benchmark": [argv[2] for argv in _argvs_of_the_benchmark() if argv[1] == "--fn"],
               "malformed": MALFORMED_FN, "well-formed": WELL_FORMED_FN}
    assert len(corpora["tests"]) > 15 and len(corpora["docs"]) == 7
    assert len(corpora["benchmark"]) > 30
    for name, texts in corpora.items():
        for text in texts:
            ours = parse_outcome(modp.parse_unit_function, text)
            assert ours == parse_outcome(reference.parse_unit_function, text), (name, text)
            if name in ("malformed", "well-formed"):
                assert isinstance(ours, str) == (name == "malformed"), (name, text)
    for text in REJECTED_BY_STR:
        assert isinstance(reference.parse_unit_function(text), modp.UnitFunction), text
        assert parse_outcome(modp.parse_unit_function, text).startswith("malformed"), text


def test_non_ascii_digits_in_function_text_exit_2(capsys):
    for text in REJECTED_BY_STR:
        code, out, err = run_cli(capsys, "classify", "--fn", text)
        assert code == 2 and out == "", text
        assert err.startswith("error: malformed function text"), text
