#!/usr/bin/env python3
"""Parent-against-change benchmark harness: writes one BENCH_*.json.

Usage (from the root of the change's checkout):

    python3 bench/contract_gemm.py --parent DIR [--pairs 10] [--seconds 56]
        [--first-seed 301] --out BENCH_<tag>.json

DIR is a checkout of the parent commit.  For each workload of BENCHMARK.json
the script runs `perfbench/run.py --trace 0` in both checkouts `--pairs`
times, alternating which side runs first, with seed first_seed + i on both
sides of pair i, and records per end-to-end metric both sides' medians and
quartiles and how many pairs each side won.  It then makes one traced run
(`--trace 1`) per side and workload, which records the per-layer times and
the exact `mul_pairs` counters, and counts the multiply-adds of the dense
products in `jets.contract_slot` over one iteration of each workload of the
change, from the shapes of its arguments: the traced `mul_pairs` count only
operator builds and elementwise jet products.  It wrote
BENCH_contract_gemm.json, BENCH_jet_kernel.json and BENCH_serial_points.json;
`--out` is required so that no run overwrites a committed result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * seconds + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()}}


def spread(values: list) -> dict:
    q1, q3 = np.percentile(values, [25, 75])
    return {"median": statistics.median(values), "q1": float(q1),
            "q3": float(q3), "runs": values}


def compare(pairs: list, declared: list) -> dict:
    """Per metric: both sides' medians and quartiles, and pairs won."""
    out = {}
    for m in declared:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        diffs = [sign * (c - p) for p, c in zip(par, chg)]
        p_side, c_side = spread(par), spread(chg)
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": p_side, "change": c_side,
            "change_wins": sum(d > 0 for d in diffs),
            "parent_wins": sum(d < 0 for d in diffs),
            "change_over_parent": c_side["median"] / p_side["median"],
            "parent_iqr": p_side["q3"] - p_side["q1"],
        }
    return out


def count_gemm(workload_names: list, seed: int) -> dict:
    """Multiply-adds of contract_slot's matrix products, per caller."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from weylforge import jets, suite

    original = jets.contract_slot
    counts = defaultdict(lambda: defaultdict(int))

    def contract_slot(t, op, slot):
        rows = math.prod(t.shape) // (t.shape[slot] * t.shape[-1])
        inner = op.shape[0] * op.shape[-2]
        cols = math.prod(op.shape[1:-2]) * op.shape[-1]
        c = counts[sys._getframe(1).f_code.co_name]
        c["calls"] += 1
        c["multiply_adds"] += rows * inner * cols
        return original(t, op, slot)

    modules = [m for n, m in sys.modules.items() if n.startswith("weylforge")]
    patched = [m for m in modules if getattr(m, "contract_slot", None)
               is original]
    result = {}
    try:
        for m in patched:
            m.contract_slot = contract_slot
        known = workloads.load_all()
        for name in workload_names:
            counts.clear()
            report = suite.run_suite(known[name].run_config(suite, seed))
            assert report.exit_code == 0
            by_caller = {k: dict(v) for k, v in sorted(counts.items())}
            result[name] = {
                "calls": sum(v["calls"] for v in by_caller.values()),
                "multiply_adds": sum(v["multiply_adds"]
                                     for v in by_caller.values()),
                "by_caller": by_caller}
    finally:
        for m in patched:
            m.contract_slot = original
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=56.0)
    p.add_argument("--first-seed", type=int, default=301)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    doc = {"workloads": {}}
    for name in names:
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(sides[side], name, seed, args.seconds, 0)
                print(f"{name} seed {seed} {side}: checks_per_s "
                      f"{pair[side]['metrics']['checks_per_s']:.2f}",
                      flush=True)
            pairs.append(pair)
        traced = {side: run_bench(sides[side], name, args.first_seed,
                                  args.seconds, 1)
                  for side in ("parent", "change")}
        doc["workloads"][name] = {
            "end_to_end": compare(pairs, bench["end_to_end"]),
            "all_correct": all(p[s]["correct"] for p in pairs
                               for s in ("parent", "change")),
            "pairs": [{"seed": p["seed"], "first": p["first"],
                       "parent": p["parent"]["metrics"],
                       "change": p["change"]["metrics"]} for p in pairs],
            "traced": {s: traced[s]["metrics"] for s in traced},
        }
    gemm = count_gemm(names, args.first_seed)
    for name in names:
        doc["workloads"][name]["contract_gemm"] = gemm[name]
    doc["settings"] = {"pairs": args.pairs, "seconds": args.seconds,
                       "seeds": [args.first_seed, args.first_seed + args.pairs - 1]}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
