"""Self-test of the benchmark (not part of the package's test suite).

Run from the repository root:  python3 -m unittest perfbench/test_perfbench.py
or:  python3 perfbench/test_perfbench.py
It runs the smoke mode of every workload, traced and untraced, which takes
seconds, and checks the correctness gates against corrupted expectations.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def library():
    sys.path.insert(0, str(workloads.SRC))
    import gausschar
    import gausschar.cli  # noqa: F401
    return gausschar


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload, trace, declared):
        proc = run_benchmark("--workload", workload, "--smoke", "--seconds", "0.5",
                             "--seed", "3", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            with self.subTest(workload=workload, trace=0):
                self.check_run(workload, 0, BENCHMARK["end_to_end"])
            with self.subTest(workload=workload, trace=1):
                self.check_run(workload, 1, BENCHMARK["per_layer"])

    def test_declared_layer_metrics_match_the_trace(self):
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
                         spans.LAYER_UNITS)

    def test_without_the_package_it_fails_and_prints_no_result(self):
        bare = HERE / "out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_benchmark("--workload", "grid", "--seconds", "1", "--trace", "0",
                                 cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Gates(unittest.TestCase):
    """Each gate passes on the real output and fails on one corrupted value."""

    @classmethod
    def setUpClass(cls):
        cls.lib = library()

    def prepared(self, name):
        workload = workloads.make(name, 5, True)
        workload.prepare(self.lib)
        workload.expect(self.lib)
        return workload

    def test_grid_gate(self):
        grid = self.prepared("grid")
        cell = ("thm_1_2", 5, 4)
        self.assertEqual(grid.run(self.lib, cell), (True, 64))
        grid.expected[workloads.grid_label(cell)]["passing_oracle"] += 1
        self.assertFalse(grid.run(self.lib, cell)[0])

    def test_large_order_gate(self):
        large = self.prepared("large_order")
        f, is_char = large.ops[0]
        self.assertTrue(large.run(self.lib, (f, is_char))[0])
        self.assertFalse(large.run(self.lib, (f, not is_char))[0])

    def test_cli_gate(self):
        cli = self.prepared("cli_cold")
        argv = next(a for a in cli.ops if a[0] == "gauss-sum")
        self.assertTrue(cli.run(self.lib, argv)[0])
        self.assertTrue(cli.run_in_process(self.lib, argv)[0])
        cli.expected[argv]["coeffs"][0] += 1
        self.assertFalse(cli.run(self.lib, argv)[0])
        self.assertFalse(cli.run_in_process(self.lib, argv)[0])


class Trace(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        lib = library()
        cyclo, spectral = lib.cyclo, lib.spectral
        originals = (cyclo.CyclotomicElement.__mul__, spectral.sum_of_zeta_powers,
                     lib.verify._PARAMETRIC_VERIFIERS["thm_1_2"])
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIs(cyclo.CyclotomicElement.__mul__, cyclo.CyclotomicElement.__rmul__)
            self.assertIsNot(cyclo.CyclotomicElement.__mul__, originals[0])
            self.assertIsNot(spectral.sum_of_zeta_powers, originals[1])
            self.assertIsNot(lib.verify._PARAMETRIC_VERIFIERS["thm_1_2"], originals[2])
            lib.verify.run_statement("thm_1_2", 3, 4)
            z = cyclo.zeta_pow(12, 1)
            _ = 2 * z, z * z
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.agg["verify.thm_1_2"][0], 1)
        self.assertEqual(tracer.counters["functions_enumerated"], 4)
        self.assertGreaterEqual(tracer.agg["cyclo.mul"][0], 2)
        self.assertEqual((cyclo.CyclotomicElement.__mul__, spectral.sum_of_zeta_powers,
                          lib.verify._PARAMETRIC_VERIFIERS["thm_1_2"]), originals)
        self.assertIs(cyclo.CyclotomicElement.__rmul__, originals[0])

    def test_a_missing_name_is_absent_not_fatal(self):
        modp = library().modp
        oracle = modp.is_character_oracle
        del modp.is_character_oracle
        tracer = spans.Tracer()
        try:
            tracer.install()
        finally:
            tracer.uninstall()
            modp.is_character_oracle = oracle
        self.assertEqual(tracer.absent, ["modp.oracle"])
        metrics = tracer.layer_metrics(1)
        self.assertNotIn("modp.oracle.calls", metrics)
        self.assertIn("cyclo.mul.calls", metrics)


if __name__ == "__main__":
    unittest.main()
