"""Correctness gate applied to every benchmark iteration.

An iteration's rendered JSON report is checked row by row.  A row counts as
failed when its status is `fail` or `unexpected-pass`, a residual is not
finite, a gate mismatch was reported at its point, or its status differs from
the recorded reference.  The (identity, manifold, point index, status) rows
are compared with the reference rows as a whole, and one by one only when
they differ, to count the failures.  A non-zero exit code or a summary that
is not ok with no failed row to show for it fails the whole iteration.

The reference (reference.json) holds one status per (identity, manifold) for
each workload.  At the recorded commit every status depends on the pair only,
never on the sampled point (record_reference.py verifies this over several
seeds), so the reference for any seed is that table repeated over the point
indices.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")
NOT_APPLICABLE = "not_applicable"
FAILING_STATUSES = ("fail", "unexpected-pass")
RESIDUAL_FIELDS = ("residual_abs", "scale", "residual_rel")


@dataclass
class Outcome:
    """Checks attempted and failed in one iteration."""

    attempted: int
    failed: int
    applicable: int          # rows of the report that are not not_applicable
    problems: list = field(default_factory=list)


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def expected_rows(workload, statuses: dict) -> list:
    """Reference rows in report order: (identity, manifold, point index)."""
    return [(ident, manifold, idx, statuses[manifold][ident])
            for ident in sorted(workload.identities)
            for manifold in sorted(workload.charts)
            for idx in range(workload.points_per_chart)]


def report_rows(results) -> list:
    """(identity, manifold, point index, status) for each report row.

    Rows come sorted by (identity, manifold, point index), so a row's point
    index is its position among the rows of its (identity, manifold) pair.
    """
    seen = Counter()
    rows = []
    for r in results:
        key = (r["identity_id"], r["manifold"])
        rows.append(key + (seen[key], r["status"]))
        seen[key] += 1
    return rows


def check_report(text: str, exit_code: int, expected: list) -> Outcome:
    """Check one rendered report against the reference rows."""
    doc = json.loads(text)
    results = doc["results"]
    summary = doc["summary"]
    rows = report_rows(results)
    problems = []
    bad = set()
    for (ident, manifold, idx, status), r in zip(rows, results):
        key = (ident, manifold, idx)
        if status in FAILING_STATUSES:
            bad.add(key)
            problems.append(f"{ident}@{manifold}#{idx}: {status}")
        if not all(math.isfinite(r[f]) for f in RESIDUAL_FIELDS):
            bad.add(key)
            problems.append(f"{ident}@{manifold}#{idx}: non-finite residual")
    for m in summary["gate_mismatches"]:
        problems.append(f"gate mismatch {m['manifold']} {m['point']}: "
                        f"{m['problem']}")
        for (ident, manifold, idx, _), r in zip(rows, results):
            if manifold == m["manifold"] and r["point"] == m["point"]:
                bad.add((ident, manifold, idx))

    want = {row[:3]: row[3] for row in expected}
    got = {row[:3]: row[3] for row in rows}
    if rows != expected:
        for key in want.keys() | got.keys():
            if want.get(key) != got.get(key):
                bad.add(key)
                problems.append(f"{'@'.join(map(str, key))}: status "
                                f"{got.get(key)} but reference "
                                f"{want.get(key)}")

    attempted = ({k for k, s in want.items() if s != NOT_APPLICABLE}
                 | {k for k, s in got.items() if s != NOT_APPLICABLE})
    failed = bad & attempted
    if (exit_code != 0 or not summary["ok"]) and not failed:
        problems.append(f"exit code {exit_code}, summary ok "
                        f"{summary['ok']}, with no failed row to show for it")
        failed = attempted
    applicable = sum(s != NOT_APPLICABLE for s in got.values())
    return Outcome(len(attempted), len(failed), applicable, problems)


def failed_iteration(expected: list, problem: str) -> Outcome:
    """Outcome of an iteration that raised: every expected check failed."""
    n = sum(row[3] != NOT_APPLICABLE for row in expected)
    return Outcome(n, n, 0, [problem])
