#!/usr/bin/env python3
"""Record the status reference the benchmark checks reports against.

Usage (from the root of a checkout):

    python3 perfbench/record_reference.py [--seeds 1,2,3] [--points 4]

Runs every workload at each seed with `--points` points per chart and
records one status per (identity, manifold) into reference.json.  It refuses
to record if any run fails, or if a pair's status differs between sampled
points: the benchmark expands the table over point indices for any seed, so
it must not depend on the point.  Run it again only when a change is meant
to alter statuses, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reportcheck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def record(workload, suite, seeds, points) -> dict:
    seen: dict = {}
    for seed in seeds:
        cfg = replace(workload, points_per_chart=points).run_config(suite,
                                                                    seed)
        report = suite.run_suite(cfg)
        if report.exit_code != 0:
            raise SystemExit(f"{workload.name} seed {seed}: exit code "
                             f"{report.exit_code}; not recording")
        for r in report.results:
            seen.setdefault(r.manifold, {}).setdefault(
                r.identity_id, set()).add(r.status)
        print(f"{workload.name} seed {seed}: {len(report.results)} rows",
              flush=True)
    table = {}
    for manifold, ids in sorted(seen.items()):
        for ident, statuses in sorted(ids.items()):
            if len(statuses) != 1:
                raise SystemExit(f"{workload.name}: {ident}@{manifold} has "
                                 f"point-dependent statuses {statuses}")
            table.setdefault(manifold, {})[ident] = statuses.pop()
    return {"statuses": table,
            "recorded_over": {"seeds": list(seeds), "points_per_chart": points}}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--points", type=int, default=4)
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    _, suite = run.import_program()
    doc = {name: record(w, suite, seeds, args.points)
           for name, w in workloads.load_all().items()}
    reportcheck.REFERENCE_FILE.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
