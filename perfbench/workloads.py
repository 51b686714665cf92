"""Workload definitions, read from workloads.json beside this file."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS_FILE = Path(__file__).with_name("workloads.json")


def nproc() -> int:
    """Cores this process may run on, as `nproc` counts them."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    charts: tuple
    identities: tuple
    points_per_chart: int
    threads: int
    jet_order_used: int   # the automatic order run_suite picks; set-up warms it

    def run_config(self, suite, seed: int):
        """The `weylforge verify` configuration this workload runs."""
        return suite.RunConfig(
            manifolds=self.charts, identities=self.identities,
            points_per_manifold=self.points_per_chart, seed=seed,
            deterministic=True, threads=self.threads)

    def shrunk(self, charts: int = 1, **changes) -> "Workload":
        """The same workload on its first `charts` charts (for tests)."""
        return replace(self, charts=self.charts[:charts], **changes)


def load_all() -> dict:
    doc = json.loads(WORKLOADS_FILE.read_text())
    out = {}
    for name, w in doc["workloads"].items():
        threads = nproc() if w["threads"] == "nproc" else int(w["threads"])
        out[name] = Workload(name, tuple(w["charts"]), tuple(w["identities"]),
                             int(w["points_per_chart"]), threads,
                             int(w["jet_order_used"]))
    return out
