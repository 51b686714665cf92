#!/usr/bin/env python3
"""weylforge benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each iteration runs `suite.run_suite` and then `suite.render_json`, the path
of `weylforge verify`, on the workload's configuration with `--seed` as the
run seed, and checks the rendered report (see reportcheck.py).  Iterations
repeat for about `--seconds` seconds.  With `--trace 0` the last line of
standard output is a JSON object carrying the end-to-end metrics of
BENCHMARK.json; with `--trace 1`, the per-layer metrics of a traced run (see
layertrace.py and kernelmicro.py).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import kernelmicro
import reportcheck
import workloads
from layertrace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

SETUP_MIN_PROBES = 5
SETUP_PROBE_EVERY_S = 3.0
SETUP_TIMEOUT_S = 60
# Counters that must repeat exactly from one traced iteration to the next.
EXACT_SUFFIXES = ("mul_calls", "mul_pairs", "mul_bytes_computed")


def import_program():
    """Import weylforge from the checkout's src/; exit 2 if it is not there."""
    if not (SRC / "weylforge" / "__init__.py").is_file():
        print(f"perfbench: no weylforge package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from weylforge import jets, suite
    return jets, suite


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    outcome: reportcheck.Outcome
    report_bytes: int


def run_iteration(suite, cfg, expected) -> Iteration:
    """One verify run plus its correctness check; the check is not timed."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        report = suite.run_suite(cfg)
        text = suite.render_json(report)
    except Exception as exc:   # counted as failed checks, never dropped
        traceback.print_exc()
        return Iteration(time.perf_counter() - wall0,
                         time.process_time() - cpu0,
                         reportcheck.failed_iteration(expected, repr(exc)), 0)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    outcome = reportcheck.check_report(text, report.exit_code, expected)
    return Iteration(wall, cpu, outcome, len(text.encode()))


def repeat(seconds: float, step) -> list:
    """Call `step` until about `seconds` have passed; at least once.

    A further call starts only if it would end less than half a typical call
    past the deadline.
    """
    results, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) / 2 > seconds:
            return results


def setup_probe(order: int) -> float:
    """Wall time of a fresh process that imports, builds the catalog, warms.

    The wait blocks (a wait with a timeout polls in steps of up to 50 ms,
    which would quantize the time); a timer kills a probe that hangs.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                             str(order)], cwd=ROOT)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def warm_up(suite, workload, seed):
    """One point of the first chart, so lazy tables and caches are built."""
    cfg = workload.shrunk(charts=1, points_per_chart=1,
                          threads=1).run_config(suite, seed)
    try:
        suite.run_suite(cfg)
    except Exception:   # the measured iterations count it as failed
        traceback.print_exc()


def untraced(workload, seed, seconds, expected):
    """End-to-end metrics and the iterations they come from.

    Set-up probes run between iterations, one every few seconds, so that
    their median samples the same stretch of time as the iterations do.
    """
    _, suite = import_program()
    warm_up(suite, workload, seed)
    cfg = workload.run_config(suite, seed)
    setup = []
    last_probe = -math.inf

    def step():
        nonlocal last_probe
        if time.perf_counter() - last_probe >= SETUP_PROBE_EVERY_S:
            setup.append(setup_probe(workload.jet_order_used))
            last_probe = time.perf_counter()
        return run_iteration(suite, cfg, expected)

    its = repeat(seconds, step)
    while len(setup) < SETUP_MIN_PROBES:
        setup.append(setup_probe(workload.jet_order_used))
    attempted = sum(it.outcome.attempted for it in its)
    failed = sum(it.outcome.failed for it in its)
    # Totals over the run, not medians of iterations: the host's speed drifts
    # both ways over seconds to a minute, and a total averages every stretch
    # of the run where a median of a handful of iterations picks one.
    applicable = max(sum(it.outcome.applicable for it in its), 1)
    metrics = {
        "setup_s": statistics.median(setup),
        "checks_per_s": applicable / sum(it.wall_s for it in its),
        "cpu_ms_per_check": 1e3 * sum(it.cpu_s for it in its) / applicable,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks_ok_frac": 1.0 - failed / max(attempted, 1),
    }
    return metrics, its, []


def traced(workload, seed, seconds, expected):
    """Per-layer metrics: an untraced baseline, traced iterations, micro."""
    jets, suite = import_program()
    warm_up(suite, workload, seed)
    cfg = workload.run_config(suite, seed)
    base = repeat(seconds / 2, lambda: run_iteration(suite, cfg, expected))

    tracer = Tracer()
    layers = []

    def traced_step():
        tracer.reset()
        it = run_iteration(suite, cfg, expected)
        layers.append(tracer.layer_metrics())
        return it

    with tracer:
        its = repeat(seconds / 2, traced_step)
    for name in tracer.absent:
        print(f"absent: {name}")
    problems = []

    metrics = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if key.endswith(EXACT_SUFFIXES):
            if len(set(values)) > 1:
                problems.append(f"counter {key} differs between traced "
                                f"iterations: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    sizes = {it.report_bytes for it in its}
    if len(sizes) > 1:
        problems.append(f"report size differs between iterations: {sizes}")
    metrics["suite.report_bytes"] = its[0].report_bytes
    base_wall = statistics.median(it.wall_s for it in base)
    metrics["suite.trace_overhead"] = (
        statistics.median(it.wall_s for it in its) / base_wall)
    # one untraced iteration at the other thread count
    other = run_iteration(suite, replace(
        cfg, threads=1 if cfg.threads > 1 else workloads.nproc()), expected)
    base.append(other)
    metrics["suite.thread_speedup"] = (
        other.wall_s / base_wall if cfg.threads > 1
        else base_wall / other.wall_s)
    metrics.update(kernelmicro.run(jets.mul_coeffs, jets.n_coeffs, seed))
    return metrics, base + its, problems


def result_line(declared: list, metrics: dict, its: list,
                problems: list) -> dict:
    """The final JSON object; every declared metric, with its unit."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    attempted = sum(it.outcome.attempted for it in its)
    failed = sum(it.outcome.failed for it in its)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    known = workloads.load_all()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(known))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    declared = json.loads(BENCHMARK_FILE.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    workload = known[args.workload]
    expected = reportcheck.expected_rows(
        workload, reportcheck.load_reference()[workload.name]["statuses"])
    if args.trace:
        metrics, its, problems = traced(workload, args.seed, args.seconds,
                                        expected)
    else:
        metrics, its, problems = untraced(workload, args.seed, args.seconds,
                                          expected)
    for it in its:
        for problem in it.outcome.problems[:20]:
            print(f"check failed: {problem}")
    for problem in problems:
        print(problem)
    names = {m["name"] for m in declared}
    for key in sorted(metrics.keys() - names):
        print(f"not in BENCHMARK.json: {key} = {metrics[key]!r}")
    print(f"{workload.name}: {len(its)} iterations, walls "
          f"{[round(it.wall_s, 3) for it in its]}")
    print(json.dumps(result_line(declared, metrics, its, problems)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
