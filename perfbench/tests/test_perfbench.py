"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layertrace  # noqa: E402
import reportcheck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from weylforge import charts, jets, suite  # noqa: E402
from weylforge.identities import REGISTRY  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = workloads.load_all()
REFERENCE = reportcheck.load_reference()
PREDICTIONS = json.loads(workloads.WORKLOADS_FILE.read_text())["predictions"]


def expected(w):
    return reportcheck.expected_rows(w, REFERENCE[w.name]["statuses"])


def units(declared):
    return {m["name"]: m["unit"] for m in declared}


def check_result(line, declared):
    assert line["correct"], line
    assert line["failed"] == 0
    assert line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        units(declared)
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    w = WORKLOADS[name].shrunk(charts=1)
    metrics, its, problems = run.untraced(w, 1, 1e-3, expected(w))
    line = run.result_line(BENCH["end_to_end"], metrics, its, problems)
    check_result(line, BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    w = WORKLOADS[name].shrunk(charts=1)
    metrics, its, problems = run.traced(w, 1, 1e-3, expected(w))
    assert problems == []
    line = run.result_line(BENCH["per_layer"], metrics, its, problems)
    check_result(line, BENCH["per_layer"])
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["jets.mul_pairs"] == sum(
        m[f"charts.{st}.mul_pairs"] for st in layertrace.STAGES)
    assert m["charts.curvature_at_s"] > m["charts.nabla_w_s"] > 0


def traced_counts(w, seed=1) -> dict:
    with layertrace.Tracer() as tracer:
        report = suite.run_suite(w.run_config(suite, seed))
    assert report.exit_code == 0
    return {k: v for k, v in tracer.layer_metrics().items()
            if k.endswith(("mul_pairs", "mul_calls", "mul_bytes_computed"))}


def test_mul_pairs_repeat_exactly_across_runs():
    w = WORKLOADS["bochner-stack"].shrunk(charts=1)
    first = traced_counts(w)
    assert first == traced_counts(w)
    for stage in ("nabla_w", "nabla_riem_ric", "norm_sq", "duality_cross"):
        assert first[f"charts.{stage}.mul_pairs"] > 0


def test_mul_pairs_equal_across_thread_counts():
    """More workers than cores and frequent switches: no update is lost."""
    w = WORKLOADS["catalog-sweep"].shrunk(charts=1, points_per_chart=4)
    one = traced_counts(replace(w, threads=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = traced_counts(replace(w, threads=2 * workloads.nproc()))
    finally:
        sys.setswitchinterval(interval)
    assert many == one


@pytest.mark.parametrize("orders", [(3, 3, 3), (6, 6, 6), (6, 5, 5),
                                    (2, 6, 4), (5, 5, 2)])
def test_pairs_per_element_is_the_pair_table_length(orders):
    oa, ob, oo = orders
    tables = sum(len(jets._pair_table(da, db)[0])
                 for da in range(min(oa, oo) + 1)
                 for db in range(min(ob, oo - da) + 1))
    assert layertrace.pairs_per_element(oa, ob, oo) == tables


def test_tracer_restores_the_program_and_reports_absent_names(monkeypatch):
    monkeypatch.delattr(charts, "epsilon_jets")
    original_eval = {sid: spec.evaluate for sid, spec in REGISTRY.items()}
    with layertrace.Tracer() as tracer:
        assert tracer.absent == ["charts.epsilon_jets"]
        assert suite.curvature_at is charts.curvature_at
        assert hasattr(suite.curvature_at, "__wrapped__")
        assert hasattr(charts.mul_coeffs, "__wrapped__")
        assert hasattr(suite.gate_satisfied, "__wrapped__")
    for fn in (suite.curvature_at, charts.mul_coeffs, jets.mul_coeffs,
               suite.gate_satisfied, charts.MetricChart.metric_jets):
        assert not hasattr(fn, "__wrapped__")
    assert {sid: spec.evaluate for sid, spec in REGISTRY.items()} == \
        original_eval


@pytest.fixture(scope="module")
def small_report():
    w = WORKLOADS["algebraic-dense"].shrunk(charts=2, points_per_chart=2)
    report = suite.run_suite(w.run_config(suite, 3))
    return w, suite.render_json(report), report.exit_code


def test_gate_passes_a_correct_report(small_report):
    w, text, code = small_report
    out = reportcheck.check_report(text, code, expected(w))
    assert (out.failed, out.problems) == (0, [])
    assert out.attempted == out.applicable > 0


def _mutated(text, change):
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


def _first_pass(doc):
    return next(r for r in doc["results"] if r["status"] == "pass")


@pytest.mark.parametrize("change", [
    lambda doc: _first_pass(doc).update(status="not_applicable"),
    lambda doc: _first_pass(doc).update(status="fail"),
    lambda doc: _first_pass(doc).update(residual_rel=float("nan")),
])
def test_gate_counts_one_bad_row(small_report, change):
    w, text, code = small_report
    out = reportcheck.check_report(_mutated(text, change), code, expected(w))
    assert out.failed == 1


def test_gate_fails_every_check_at_a_mismatched_point(small_report):
    w, text, code = small_report
    doc = json.loads(text)
    row = _first_pass(doc)
    at_point = sum(r["status"] != "not_applicable" for r in doc["results"]
                   if r["manifold"] == row["manifold"]
                   and r["point"] == row["point"])
    doc["summary"]["gate_mismatches"].append(
        {"manifold": row["manifold"], "point": row["point"],
         "problem": "injected"})
    out = reportcheck.check_report(json.dumps(doc), code, expected(w))
    assert out.failed == at_point > 1


def test_gate_fails_the_iteration_on_an_unexplained_exit_code(small_report):
    w, text, _ = small_report
    out = reportcheck.check_report(text, 1, expected(w))
    assert out.failed == out.attempted > 0


def test_workloads_match_benchmark_json_and_registry():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)
    assert set(REFERENCE) == set(WORKLOADS)
    catalog = charts.build_catalog()
    for w in WORKLOADS.values():
        assert set(w.charts) <= set(catalog)
        assert set(w.identities) <= set(REGISTRY)
        statuses = REFERENCE[w.name]["statuses"]
        assert all(set(statuses[m]) == set(w.identities) for m in w.charts)
        # the order set-up warms is the one the run picks
        one = w.shrunk(charts=1, points_per_chart=1, threads=1)
        report = suite.run_suite(one.run_config(suite, 1))
        assert {r.jet_order_used for r in report.results} == \
            {w.jet_order_used}
    assert WORKLOADS["catalog-sweep"].identities == tuple(REGISTRY)
    assert WORKLOADS["catalog-sweep"].charts == tuple(catalog)
    assert WORKLOADS["bochner-stack"].identities == tuple(
        s.id for s in REGISTRY.values() if s.laplacians)
    assert WORKLOADS["bochner-stack"].charts == tuple(
        n for n, c in catalog.items() if c.properties.einstein is not None)
    assert WORKLOADS["algebraic-dense"].identities == tuple(
        s.id for s in REGISTRY.values()
        if s.jet_order <= 3 and not s.laplacians)
    measured = set(units(BENCH["per_layer"])) | set(
        layertrace.Tracer().layer_metrics())
    for p in PREDICTIONS:
        assert set(p["layer_metrics"]) <= measured
        assert set(p["end_to_end"]) <= set(units(BENCH["end_to_end"]))
        assert set(p["moves_on"]) <= set(WORKLOADS)
