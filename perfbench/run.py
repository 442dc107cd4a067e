#!/usr/bin/env python3
"""Benchmark of gausschar: the ``grid``, ``large_order`` and ``cli_cold`` workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload cli_cold --smoke      # seconds-long pass
    python3 perfbench/test_perfbench.py                       # self-test

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  A pass is the workload's fixed job (the whole
grid, 114 queries, 14 commands); passes repeat until the next one would end
after ``--seconds``, with a floor that gives the p90 ten samples above it.
Every operation's output is checked; a wrong or failed operation counts
towards ``failed``.  See ``workloads.py`` for what each workload runs and why.

``--trace 0`` reports the end-to-end metrics, with nothing wrapped.  Times
are in reference seconds: each operation's wall time divided by the host's
speed factor around it (``speed.py``), because a shared host drifts by up
to 2x for tens of seconds; the raw times are in the run record.  The
error rate (failed over attempted operations) is printed with them.

    setup_s          s     median over fresh interpreters of import plus warm-up
                           (first touch of each order, bytecode compiled first)
    wall_s           s     median time of one pass
    functions_per_s  1/s   exponent tables decided per second of passes
    op_p50_ms        ms    median latency of one operation (grid: one cell;
                           large_order: one query; cli_cold: one command)
    op_p90_ms        ms    p90 latency of one operation
    peak_rss_mb      MB    peak RSS of this process, or of its largest child
                           for cli_cold

``--trace 1`` wraps the package's layers from outside (``spans.py``) and
reports the per-layer metrics: calls and self time per pass, set-up table
builds, CLI start-up floors, per-subcommand self time (cli_cold, run
in-process) and ``trace.overhead_ratio``, the traced over the untraced pass
time in the same process.  Nothing is scaled.  Metrics of a layer the
workload does not exercise read 0; metrics of a traced name that no longer
exists are left out and listed under ``absent`` in the run record.

Every metric is printed by name with its unit, and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record (machine, commit, seed, sample counts, failures,
raw times and, when traced, the spans) is written to ``perfbench/out/``.  The
benchmark exits with status 1 and prints no result when the package source
is missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
import speed  # noqa: E402

ROOT, SRC, spawn = workloads.ROOT, workloads.SRC, workloads.spawn
OUT = HERE / "out"
SETUP_PROBES = 7
CLI_FLOOR_PROBES = 7
TRACED_SHARE = 0.6      # of --seconds given to traced passes; the rest untraced

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "functions_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

_now = time.perf_counter


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs and no pass floor; finishes in seconds")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# The program under test.

def prepare_program():
    """Fail without a result if the package is missing; compile its bytecode."""
    package = SRC / "gausschar"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found at {package}")
    if not compileall.compile_dir(str(package), quiet=1):
        raise SystemExit("error: the package does not compile")


def import_library():
    sys.path.insert(0, str(SRC))
    import gausschar
    import gausschar.cli  # noqa: F401  (binds gausschar.cli for the trace and cli_cold)
    return gausschar


def setup_samples(args, host):
    """Set-up times of fresh interpreters: raw, and in reference seconds."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        probe = [str(HERE / "probe.py"), args.workload, str(args.seed)]
        proc = spawn(probe + (["--smoke"] if args.smoke else []))
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        raw.append(float(proc.stdout.split()[-1]))
        scaled.append(raw[-1] / host.around())
    return raw, scaled


def cli_floor_ms():
    """Bare interpreter start, and the import of the CLI above it (ms)."""
    bare, imported = [], []
    for _ in range(CLI_FLOOR_PROBES):
        for argv, into in ((["-c", "pass"], bare),
                           (["-c", "import gausschar.cli"], imported)):
            t0 = _now()
            proc = spawn(argv)
            into.append((_now() - t0) * 1000)
            if proc.returncode != 0:
                raise SystemExit(f"error: {argv} failed:\n{proc.stderr}")
    floor = statistics.median(bare)
    return floor, statistics.median(imported) - floor


# ---------------------------------------------------------------------------
# The closed loop.

class Measurement:
    def __init__(self):
        self.pass_s = []        # sum of the pass's operation times
        self.raw_pass_s = []    # wall time of the pass, unscaled
        self.latency_ms = []
        self.by_label = {}      # label -> [(scaled ms, raw ms)]
        self.attempted = self.failed = self.functions = 0
        self.errors = []

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def measure(workload, lib, run, seconds, min_passes, tracer=None, host=None):
    """Closed loop over whole passes.  With a ``host`` speed, operation times
    are scaled to reference seconds; without, they are raw."""
    m = Measurement()
    start = _now()
    while True:
        t_pass = _now()
        pass_s = 0.0
        for op in workload.ops:
            label = workload.label(op)
            t0 = _now()
            try:
                if tracer is None:
                    ok, functions = run(lib, op)
                else:
                    with tracer.span(label):
                        ok, functions = run(lib, op)
                reason = "wrong output"
            except Exception as exc:  # a failed operation is counted, not fatal
                ok, functions, reason = False, 0, repr(exc)
            raw_ms = (_now() - t0) * 1000
            ms = raw_ms / host.around() if host is not None else raw_ms
            pass_s += ms / 1000
            m.latency_ms.append(ms)
            m.by_label.setdefault(label, []).append((ms, raw_ms))
            m.attempted += 1
            m.functions += functions
            if not ok:
                m.failed += 1
                if len(m.errors) < 20:
                    m.errors.append(f"{label}: {reason}")
        m.pass_s.append(pass_s)
        m.raw_pass_s.append(_now() - t_pass)
        if len(m.pass_s) >= min_passes and _now() - start + m.raw_pass_s[-1] > seconds:
            return m


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024   # ru_maxrss is in KiB on Linux


def percentiles(latency_ms):
    """Median and p90; the p90 interpolates between the ranks around
    0.9 * (n - 1), which stays inside one cost class as passes are added."""
    if len(latency_ms) > 1:
        p90 = statistics.quantiles(latency_ms, n=10, method="inclusive")[8]
    else:
        p90 = latency_ms[0]
    return statistics.median(latency_ms), p90, sum(1 for x in latency_ms if x > p90)


# ---------------------------------------------------------------------------
# Runs.

def run_untraced(args, workload, record):
    starts = speed.start_speed(spawn)
    raw_setup, setup = setup_samples(args, starts)
    lib = import_library()
    workload.prepare(lib)
    workload.expect(lib)
    host = speed.cpu_speed() if workload.in_process else starts
    m = measure(workload, lib, workload.run, args.seconds,
                1 if args.smoke else workload.min_passes, host=host)
    p50, p90, above = percentiles(m.latency_ms)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(m.pass_s),
        "functions_per_s": m.functions / sum(m.pass_s),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": peak_rss_mb(who),
    }
    record["samples"] = {"setup_s": len(setup), "wall_s": len(m.pass_s),
                         "op_latency": len(m.latency_ms), "op_p90_above": above}
    if above < 10:
        record["warnings"].append(f"only {above} latency samples above the p90")
    record["setup_s_samples"] = setup
    record["raw_setup_s_samples"] = raw_setup
    record["pass_s"] = m.pass_s
    record["raw_pass_s"] = m.raw_pass_s
    references = {"start": starts} if host is starts else {"start": starts, "cpu": host}
    record["host_speed"] = {
        name: {"samples": len(h.samples), "median": statistics.median(h.samples),
               "min": min(h.samples), "max": max(h.samples)}
        for name, h in references.items()}
    record["functions"] = m.functions
    record["op_median_ms_by_label"] = {
        k: {"scaled": statistics.median(x for x, _ in v), "raw": statistics.median(r for _, r in v)}
        for k, v in sorted(m.by_label.items())}
    return m, metrics, E2E_UNITS


def run_traced(args, workload, record):
    interpreter_ms, import_ms = cli_floor_ms()
    lib = import_library()
    tracer = spans.Tracer()
    tracer.install()
    try:
        workload.prepare(lib)
        workload.expect(lib)
        tracer.reset(keep=("cyclo.context",))
        traced = measure(workload, lib, workload.run_in_process,
                         TRACED_SHARE * args.seconds, 1, tracer)
    finally:
        tracer.uninstall()
    untraced = measure(workload, lib, workload.run_in_process,
                       (1 - TRACED_SHARE) * args.seconds, 1)
    metrics = tracer.layer_metrics(len(traced.pass_s))
    metrics["cli.interpreter_ms"] = interpreter_ms
    metrics["cli.import_ms"] = import_ms
    exercised = {}
    for label, _, self_s in tracer.roots:
        if label in spans.CLI_SUBCOMMANDS:
            exercised.setdefault(label, []).append(self_s * 1000)
    for sub in spans.CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.self_ms"] = statistics.median(exercised.get(sub, [0.0]))
    metrics["trace.overhead_ratio"] = (statistics.median(traced.pass_s)
                                       / statistics.median(untraced.pass_s))
    traced.add(untraced)
    record["samples"] = {"traced_passes": len(traced.pass_s),
                         "untraced_passes": len(untraced.pass_s),
                         "cli_floor_probes": CLI_FLOOR_PROBES,
                         "cli_self_ms": {sub: len(v) for sub, v in sorted(exercised.items())}}
    record["traced_pass_median_s"] = statistics.median(traced.pass_s)
    record["untraced_pass_median_s"] = statistics.median(untraced.pass_s)
    record["not_exercised"] = sorted(
        m for m, v in metrics.items() if v == 0 and m != "trace.overhead_ratio")
    record["absent"] = tracer.absent
    record["spans"] = tracer.aggregates()
    units = {m: u for m, u in spans.LAYER_UNITS.items() if m in metrics}
    return traced, {m: metrics[m] for m in units}, units


def machine_record(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_commit": git_commit(),
        "python": platform.python_version(), "implementation": sys.implementation.name,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "warnings": [],
    }


def git_commit():
    """The checked-out commit, read from .git without running git; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    args = parse_args(argv)
    prepare_program()
    workload = workloads.make(args.workload, args.seed, args.smoke)
    record = machine_record(args)
    run = run_traced if args.trace else run_untraced
    m, metrics, units = run(args, workload, record)
    record.update(attempted=m.attempted, failed=m.failed,
                  error_rate=m.failed / m.attempted, errors=m.errors,
                  metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, v in record["metrics"].items():
        print(f"{name:32} {v['value']:14.6g} {v['unit']}")
    print(f"{'error_rate':32} {record['error_rate']:14.6g} ratio "
          f"({m.failed} of {m.attempted} operations failed)")
    for warning in record["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    for error in m.errors:
        print(f"failed: {error}", file=sys.stderr)
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": record["metrics"]}))


if __name__ == "__main__":
    main()
