"""The suite on random polynomial metrics, whose halves have three distinct
eigenvalues: the Derdzinski frame and K on generic data."""

import numpy as np
import pytest

from polynomial_charts import random_polynomial_chart
from weylforge import rng as rng_mod
from weylforge.charts import ChartProperties, curvature_at
from weylforge.identities import REGISTRY, PointData, gate_satisfied
from weylforge.suite import RunConfig, run_suite

SEEDS = (1, 2, 3)
CFG = RunConfig(points_per_manifold=5)


@pytest.fixture(scope="module")
def charts():
    return {c.name: c for c in map(random_polynomial_chart, SEEDS)}


def test_every_applicable_row_passes(charts):
    """Every identity that holds on all metrics passes at every point, and
    the gated ones apply nowhere, with no declaration mismatch."""
    report = run_suite(CFG, catalog=charts)
    any_ids = {sid for sid, s in REGISTRY.items() if s.gate == "any"}
    for r in report.results:
        assert r.status == ("pass" if r.identity_id in any_ids
                            else "not_applicable"), r
    passed = [r for r in report.results if r.status == "pass"]
    assert len(passed) == len(any_ids) * len(SEEDS) * CFG.points_per_manifold
    assert report.summary["gate_mismatches"] == []
    assert report.summary["nonfinite"] == []
    assert report.summary["ok"] and report.exit_code == 0


def test_halves_have_distinct_eigenvalues(charts):
    """At the suite's sample points each half's smallest eigenvalue gap is
    at least 1e-2 of its largest |lam| (measured: 0.044, median 0.58), and
    no gate but `any` holds."""
    gaps = []
    for chart in charts.values():
        for point in rng_mod.sample_box(chart.domain, CFG.points_per_manifold,
                                        CFG.seed, chart.name):
            pd = PointData(curvature_at(chart, point, depth=1))
            for sign in (1, -1):
                lam = pd.operand("lam", sign)
                gaps.append(np.diff(lam).min() / np.abs(lam).max())
            assert {s.gate for s in REGISTRY.values()
                    if gate_satisfied(s, pd)} == {"any"}
    assert min(gaps) > 1e-2


def test_false_declaration_is_caught():
    """Declared Ricci-flat with harmonic W, a random metric fails the audit
    at every point, and the run fails."""
    chart = random_polynomial_chart(SEEDS[0], ChartProperties(
        einstein=0.0, ricci_flat=True, harmonic_weyl=True))
    report = run_suite(CFG, catalog={chart.name: chart})
    mismatches = report.summary["gate_mismatches"]
    assert len({tuple(m["point"]) for m in mismatches}) == \
        CFG.points_per_manifold
    assert not report.summary["ok"] and report.exit_code == 1
