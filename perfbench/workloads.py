"""Seeded inputs, set-up and correctness gates of the three workloads.

Inputs are generated here, from the seed, with the benchmark's own
arithmetic; the library only sees the finished inputs.  Nothing here imports
gausschar at module level, so a set-up probe can time the import itself.

* ``grid``: every cell of ``verify.default_grid()`` through
  ``verify.verify_grid``, one cell per operation and the whole grid per
  pass.  The paper-verification traffic: enumeration, the oracle and the
  verify loop all do real work, at orders up to 42.  The seed shuffles the
  cell order.
* ``large_order``: single-function classifications at orders 330-2002
  (p does not divide n, f(1) = 1), a quarter of them nontrivial
  characters.  No enumeration; the O(phi^2) multiply and its reduction
  dominate, over four per-order tables up to 2002 x 720 entries.  The
  seed draws the functions; the per-pass mix is fixed so that the median
  and the p90 each stay inside one cost class.
* ``cli_cold``: one fresh interpreter per ``gausschar`` command, one at a
  time.  Mostly small commands, one in seven a Gauss sum at order 2002
  whose table build dominates; every command pays interpreter start,
  import and lazy set-up.  The seed draws the functions and the order.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GRID_EXPECTED = HERE / "grid_expected.json"


# ---------------------------------------------------------------------------
# The benchmark's own arithmetic mod p (independent of the library).

def primitive_root(p):
    for g in range(2, p):
        x, k = g, 1
        while x != 1:
            x = x * g % p
            k += 1
        if k == p - 1:
            return g
    raise ValueError(f"no primitive root modulo {p}")


def character_exps(p, n, j):
    """Exponent table of chi_j(g^t) = e(j*t/(p-1)) as n-th roots of unity."""
    g = primitive_root(p)
    scale = j * n // (p - 1)
    exps = [0] * (p - 1)
    x = 1
    for t in range(p - 1):
        exps[x - 1] = scale * t % n
        x = x * g % p
    return tuple(exps)


def nontrivial_characters(p, n):
    """Indices j of the nontrivial characters with values in mu_n."""
    return [j for j in range(1, p - 1) if j * n % (p - 1) == 0]


def is_multiplicative(p, n, exps):
    return exps[0] == 0 and all(
        (exps[a - 1] + exps[b - 1]) % n == exps[a * b % p - 1]
        for a in range(2, p) for b in range(a, p))


def draw_function(rng, p, n, character):
    """A seeded table with f(1) = 1: a nontrivial character, or a non-character."""
    if character:
        return character_exps(p, n, rng.choice(nontrivial_characters(p, n)))
    while True:
        exps = (0,) + tuple(rng.randrange(n) for _ in range(p - 2))
        if not is_multiplicative(p, n, exps):
            return exps


def fn_text(p, n, exps):
    return f"p={p} n={n} exps=" + ",".join(map(str, exps))


def warm_up(lib, cells):
    """First touch of every order a workload uses: lcm(n, p) and n."""
    for p, n in sorted(set(cells)):
        f = lib.UnitFunction(p, n, (0,) * (p - 1))
        lib.gauss_sum(f).value.norm_squared()
        lib.autocorrelation(f, 1)


# ---------------------------------------------------------------------------
# grid

def grid_label(cell):
    statement, p, n = cell
    return f"{statement}/{p}/{n}"


def _digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def grid_summary(record):
    """Deterministic fields of a report's JSON form; lists are digested."""
    return {
        "total_functions": record["total_functions"],
        "passing_spectral": record["passing_spectral"],
        "passing_oracle": record["passing_oracle"],
        "mismatch_count": record["mismatch_count"],
        "success": record["success"],
        "error": record["error"],
        "mismatches_sha256": _digest(record["mismatches"]),
        "witnesses_sha256": _digest(record["witnesses"]),
    }


class Grid:
    name = "grid"
    in_process = True
    min_passes = 2          # 128 cell latencies put >= 10 above the p90

    def __init__(self, seed, smoke):
        self.seed, self.smoke = seed, smoke
        self.ops, self.expected = [], {}

    def prepare(self, lib):
        cells = lib.verify.default_grid()
        if self.smoke:
            cells = [c for c in cells if c[1] <= 5 and c[2] <= 4]
        random.Random(self.seed).shuffle(cells)
        self.ops = cells
        warm_up(lib, [(p, n) for _, p, n in cells])

    def expect(self, lib):
        self.expected = json.loads(GRID_EXPECTED.read_text())

    label = staticmethod(grid_label)

    def run(self, lib, cell):
        report = lib.verify.verify_grid([cell])[0]
        ok = report.success and (
            grid_summary(report.to_json_dict()) == self.expected.get(grid_label(cell)))
        return ok, report.total_functions

    run_in_process = run


# ---------------------------------------------------------------------------
# large_order

# (p, n, queries per pass, of which nontrivial characters), at orders
# lcm(n, p) = 330, 390, 930 and 2002.  A character is decided by its first
# norm (1-20 ms); a non-character tests all p - 1 twists.  Sorted by cost a
# pass is 24 characters at 1-3 ms, 18 queries at ~10 ms, 52 at 13-20 ms
# (the median, rank 57 of 114), 14 at ~220 ms (the p90, rank 103) and 6 at
# ~330 ms, so neither percentile sits on the edge between two classes.
LARGE_MIX = ((11, 30, 24, 6), (13, 30, 64, 16), (31, 30, 18, 4), (7, 286, 8, 2))
LARGE_MIX_SMOKE = ((11, 30, 2, 1), (13, 30, 2, 1), (31, 30, 1, 1), (7, 286, 1, 1))


class LargeOrder:
    name = "large_order"
    in_process = True
    min_passes = 1          # 114 queries put >= 10 above the p90

    def __init__(self, seed, smoke):
        rng = random.Random(seed)
        self.queries = []
        for p, n, count, chars in (LARGE_MIX_SMOKE if smoke else LARGE_MIX):
            for i in range(count):
                self.queries.append((p, n, draw_function(rng, p, n, i < chars), i < chars))
        rng.shuffle(self.queries)
        self.ops = []

    def prepare(self, lib):
        self.ops = [(lib.UnitFunction(p, n, exps), is_char)
                    for p, n, exps, is_char in self.queries]
        warm_up(lib, [(p, n) for p, n, _, _ in self.queries])

    def expect(self, lib):
        pass    # the expected verdict is the label drawn with each function

    @staticmethod
    def label(op):
        f, _ = op
        return f"{f.p}/{f.n}"

    def run(self, lib, op):
        f, is_char = op
        witness = lib.spectral_witness(f) is not None
        oracle = lib.is_character_oracle(f) and not f.is_trivial
        gauss = lib.gauss_sum(f).value.norm_squared().as_integer() == f.p
        flat = lib.kurlberg_test(f)
        return witness == oracle == gauss == flat == is_char, 1

    run_in_process = run


# ---------------------------------------------------------------------------
# cli_cold

# One pass: (subcommand, p, n).  Fixed cells keep the cost mix the same for
# every seed; 2 of the 14 commands are Gauss sums at order 2002.
CLI_PASS = (
    ("classify", 7, 6), ("classify", 11, 10), ("classify", 13, 12),
    ("gauss-sum", 5, 4), ("gauss-sum", 7, 3), ("gauss-sum", 13, 6),
    ("fourier", 5, 6), ("fourier", 11, 5), ("fourier", 13, 4),
    ("autocorr", 7, 6), ("autocorr", 11, 10),
    ("verify", 5, 4),
    ("gauss-sum", 7, 286), ("gauss-sum", 7, 286),
)
CLI_PASS_SMOKE = (("classify", 7, 6), ("gauss-sum", 5, 4), ("fourier", 5, 6),
                  ("autocorr", 7, 6), ("verify", 5, 4), ("gauss-sum", 7, 286))
CLI_VERIFY_STATEMENT = "thm_1_2"


def spawn(args):
    """Run one child interpreter to completion, with the package path given
    explicitly; the caller waits, so there is one child at a time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


class CliCold:
    name = "cli_cold"
    in_process = False
    min_passes = 8          # 112 commands put >= 10 above the p90

    def __init__(self, seed, smoke):
        rng = random.Random(seed)
        self.ops = []
        for sub, p, n in (CLI_PASS_SMOKE if smoke else CLI_PASS):
            if sub == "verify":
                argv = ["verify", "--statement", CLI_VERIFY_STATEMENT,
                        "--p", str(p), "--n", str(n)]
            else:
                character = bool(nontrivial_characters(p, n)) and rng.random() < 0.5
                argv = [sub, "--fn", fn_text(p, n, draw_function(rng, p, n, character))]
                if sub == "fourier":
                    argv += ["--xi", str(rng.randrange(p))]
                elif sub == "autocorr":
                    argv += ["--h", str(rng.randrange(p))]
            self.ops.append(tuple(argv + ["--output", "json"]))
        rng.shuffle(self.ops)
        self.expected = {}

    def prepare(self, lib):
        importlib.import_module("gausschar.cli")

    def expect(self, lib):
        for argv in self.ops:
            if argv not in self.expected:
                self.expected[argv] = expected_record(lib, argv)

    @staticmethod
    def label(argv):
        return argv[0]

    def check(self, argv, returncode, stdout):
        if returncode != 0:
            return False
        lines = stdout.strip().splitlines()
        if len(lines) != 1:
            return False
        record = json.loads(lines[0])
        return all(record.get(k) == v for k, v in self.expected[argv].items())

    def run(self, lib, argv):
        proc = spawn(["-m", "gausschar.cli", *argv])
        return self.check(argv, proc.returncode, proc.stdout), self.functions(argv)

    def run_in_process(self, lib, argv):
        out = io.StringIO()
        with redirect_stdout(out):
            try:
                code = lib.cli.main(list(argv))
            except SystemExit as exc:   # argparse rejected the command line
                code = exc.code
        return self.check(argv, code, out.getvalue()), self.functions(argv)

    def functions(self, argv):
        if argv[0] == "verify":
            return self.expected[argv]["total_functions"]
        return 1


def expected_record(lib, argv):
    """The fields a command's JSON record must carry, computed in-process."""
    sub = argv[0]
    if sub == "verify":
        _, _, statement, _, p, _, n = argv[:7]
        record = lib.run_statement(statement, int(p), int(n)).to_json_dict()
        del record["elapsed_ms"]
        return record
    f = lib.parse_unit_function(argv[2])
    base = {"command": sub, "p": f.p, "n": f.n, "exps": list(f.exps)}
    if sub == "classify":
        witness = lib.spectral_witness(f)
        oracle = lib.is_character_oracle(f)
        return {**base, "oracle": oracle, "trivial": f.is_trivial, "witness": witness,
                "spectral": witness is not None, "applicable": True,
                "consistent": (witness is not None) == (oracle and not f.is_trivial)}
    if sub == "autocorr":
        h = int(argv[4])
        value = lib.autocorrelation(f, h)
        return {**base, "h": h % f.p, "order": value.order,
                "coeffs": list(value.coeffs), "integer": value.as_integer()}
    if sub == "gauss-sum":
        value = lib.gauss_sum(f).value
        extra = {}
    else:
        xi = int(argv[4])
        value = lib.fourier_sum(f, xi).value
        extra = {"xi": xi % f.p}
    norm = value.norm_squared()
    record = {**base, **extra, "order": value.order, "coeffs": list(value.coeffs),
              "integer": value.as_integer(), "norm_squared_coeffs": list(norm.coeffs),
              "norm_squared_integer": norm.as_integer()}
    if sub == "fourier":
        record["unit_magnitude"] = norm.as_integer() == f.p
    return record


WORKLOADS = {w.name: w for w in (Grid, LargeOrder, CliCold)}


def make(name, seed, smoke):
    return WORKLOADS[name](seed, smoke)
