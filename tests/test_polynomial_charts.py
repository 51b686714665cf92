"""The suite on random polynomial metrics, whose halves have three distinct
eigenvalues: the Derdzinski frame and K on generic data."""

from dataclasses import replace

import numpy as np
import pytest

from polynomial_charts import random_polynomial_chart
from weylforge import rng as rng_mod
from weylforge import suite
from weylforge.charts import ChartProperties, curvature_at
from weylforge.identities import (REGISTRY, PointData, gate_satisfied,
                                  residual_rel)
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
                lam = pd.sector(sign).operand("lam")
                gaps.append(np.diff(lam).min() / np.abs(lam).max())
            assert {s.gate for s in REGISTRY.values()
                    if gate_satisfied(s, pd.sector(s.sector))} == {"any"}
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


def test_each_half_row_reads_its_own_half(charts):
    """suite._check hands a half row the pack of its own half.  At a random
    polynomial point, where W+ and W- differ, each of the 14 applicable
    half rows is evaluated on pd.sector(spec.sector) and on nothing else,
    and reports bit for bit that evaluation's residual.  Its scale there
    differs from its scale on the other half.  A half row handed the other
    half or the whole point would still run, so the test records what the
    evaluator is handed."""
    chart = charts[f"random-poly-{SEEDS[0]}"]
    point = rng_mod.sample_box(chart.domain, 1, CFG.seed, chart.name)[0]
    pd = PointData(curvature_at(chart, point, depth=1))
    halves = [spec for spec in REGISTRY.values() if spec.sector is not None
              and gate_satisfied(spec, pd.sector(spec.sector))]
    assert len(halves) == 14
    for spec in halves:
        own, other = pd.sector(spec.sector), pd.sector(-spec.sector)
        handed = []

        def recording(sector, _evaluate=spec.evaluate):
            handed.append(sector)
            return _evaluate(sector)

        row, _ = suite._check(replace(spec, evaluate=recording), pd,
                              spec.tol)
        assert len(handed) == 1 and handed[0] is own, spec.id
        res, scale = spec.evaluate(own)
        rel, floor = residual_rel(spec, pd, res, scale)
        assert (row.residual_abs, row.scale, row.residual_rel) == \
            (res, floor, rel), spec.id
        assert spec.evaluate(other)[1] != scale, spec.id
