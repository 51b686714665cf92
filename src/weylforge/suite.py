"""Batch evaluation of the identity registry over the manifold catalog.

For each requested manifold the runner plans the jet order, derivative depth
and scalar-Laplacian fields needed by the identities that could apply there
(declared chart properties drive the planning; every declared property is
re-verified numerically at each sampled point and a contradiction fails the
whole run).  Each chart's points are evaluated in index order in the calling
thread; the only parallelism is BLAS's own threads inside the jet
contractions.  Every identity at a point goes through one check (gate,
residual, relative residual, status), and the report is assembled in a fixed
(identity, manifold, point-index) order, so output is byte-stable for a
fixed configuration.

On a negative-control chart the identities in CONTROL_EXPECT_FAIL are
evaluated despite their failed hypotheses; each must be violated beyond its
threshold at a 60% majority of points, otherwise the run fails.  Exit codes:
0 all applicable checks pass and all control expectations are met, 1 any
unexpected failure, 2 configuration error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import charts, rng
from .charts import MetricChart, curvature_at, required_jet_order
from .identities import (CONTROL_EXPECT_FAIL, CONTROL_MIN_FRACTION, REGISTRY,
                         IdentitySpec, PointData, gate_satisfied,
                         residual_rel, static_applicable)


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    manifolds: tuple = ("all",)
    identities: tuple = ("all",)
    points_per_manifold: int = 20
    seed: int = 42
    tolerance_overrides: dict = field(default_factory=dict)
    jet_order: str | int = "auto"
    output_format: str = "json"
    output_path: str | None = None
    deterministic: bool = False
    conformal_coeffs: dict | None = None
    # accepted and ignored: points run serially.  perfbench still builds
    # RunConfig(threads=...) and reads it back.
    threads: int | None = None

    def as_dict(self) -> dict:
        return {
            "manifolds": list(self.manifolds),
            "identities": list(self.identities),
            "points_per_manifold": self.points_per_manifold,
            "seed": self.seed,
            "tolerance_overrides": dict(self.tolerance_overrides),
            "jet_order": self.jet_order,
            "output_format": self.output_format,
            "deterministic": self.deterministic,
        }


@dataclass
class IdentityCheckResult:
    identity_id: str
    manifold: str
    point: tuple
    residual_abs: float
    scale: float
    residual_rel: float
    status: str
    jet_order_used: int

    def as_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "manifold": self.manifold,
            "point": list(self.point),
            "residual_abs": self.residual_abs,
            "scale": self.scale,
            "residual_rel": self.residual_rel,
            "status": self.status,
            "jet_order_used": self.jet_order_used,
        }


@dataclass
class SuiteReport:
    config: dict
    environment: dict
    results: list
    summary: dict
    exit_code: int


def resolve_names(kind: str, names, known) -> list:
    """The selected names in the given order; ("all",) selects all of
    `known`.  An empty selection or a name listed twice is a ConfigError."""
    names = list(names)
    if names == ["all"]:
        return list(known)
    if not names:
        raise ConfigError(f"no {kind} selected")
    for n in names:
        if n not in known:
            raise ConfigError(
                f"unknown {kind} {n!r}; valid: {', '.join(sorted(known))}")
        if names.count(n) > 1:
            raise ConfigError(f"{kind} {n!r} is listed more than once")
    return names


def _audit_point(chart: MetricChart, pd: PointData) -> list:
    """Declared chart properties re-derived numerically; returns mismatches."""
    p = chart.properties
    bad = []
    if p.einstein is not None:
        lam = pd.R / 4.0
        if not pd.is_einstein:
            bad.append("declared Einstein but trace-free Ricci is nonzero")
        elif abs(lam - p.einstein) > 1e-6 * max(1.0, abs(p.einstein)):
            bad.append(f"declared Einstein constant {p.einstein} but "
                       f"measured {lam}")
    if p.ricci_flat and not pd.is_ricci_flat:
        bad.append("declared Ricci-flat but Ricci is nonzero")
    if p.harmonic_weyl and not pd.is_harmonic:
        bad.append("declared harmonic Weyl but div W is nonzero")
    if p.parallel_weyl and not pd.is_parallel:
        bad.append("declared parallel Weyl but nabla W is nonzero")
    if p.conformally_flat and not pd.is_conformally_flat:
        bad.append("declared conformally flat but W is nonzero")
    if p.negative_control:
        if pd.is_einstein:
            bad.append("declared negative control but metric measures Einstein")
        if pd.is_harmonic:
            bad.append("declared negative control but div W vanishes")
        if not pd.cotton_nonzero:
            bad.append("declared negative control but Cotton tensor vanishes")
    return bad


def _gate_contradicts_declaration(spec: IdentitySpec, pd: PointData) -> bool:
    if spec.gate == "einstein-parallel-sector":
        # a vanishing sector is not a declaration failure
        return not (pd.is_einstein and pd.is_sector_parallel(spec.sector))
    return True


def _row(sid: str, pd: PointData, status: str, res_abs=0.0, scale=0.0,
         rel=0.0) -> IdentityCheckResult:
    cp = pd.cp
    return IdentityCheckResult(sid, cp.chart.name, tuple(map(float, cp.point)),
                               float(res_abs), float(scale), float(rel),
                               status, cp.jet_order)


def _check(spec: IdentitySpec, pd: PointData, tol: float,
           control: float | None = None) -> IdentityCheckResult:
    """One identity at one point: gate, residual, relative residual, status.

    `control` is the violation threshold of a negative-control identity,
    which is evaluated despite its gate; None for an ordinary check.
    """
    if control is None and not gate_satisfied(spec, pd):
        return _row(spec.id, pd, "not_applicable")
    res_abs, scale = spec.evaluate(pd)
    rel, floor = residual_rel(spec, pd, res_abs, scale)
    if control is None:
        status = "pass" if rel <= tol else "fail"
    else:
        status = "expected-fail" if rel > control else "unexpected-pass"
    return _row(spec.id, pd, status, res_abs, floor, rel)


def _evaluate_point(chart, point, attempted, requested, order, depth, laps,
                    tolerances, control_ids):
    """Rows for every requested identity at one point, and the point's
    declaration mismatches."""
    cp = curvature_at(chart, point, depth=depth, laplacians=laps,
                      jet_order=order)
    pd = PointData(cp)
    where = {"manifold": chart.name, "point": list(map(float, point))}
    mismatches = [{**where, "problem": msg} for msg in _audit_point(chart, pd)]
    attempted_ids = {s.id for s in attempted}
    rows = []
    for sid in requested:
        spec = REGISTRY[sid]
        if sid not in attempted_ids:
            rows.append(_row(sid, pd, "not_applicable"))
            continue
        row = _check(spec, pd, tolerances.get(sid, spec.tol),
                     control_ids.get(sid))
        # an attempted identity off the control list is statically
        # applicable, so a failed gate may contradict the declaration
        if row.status == "not_applicable" and \
                _gate_contradicts_declaration(spec, pd):
            mismatches.append({
                **where, "problem": f"{sid}: declared properties imply gate "
                                    f"'{spec.gate}' but measurement fails it"})
        rows.append(row)
    return rows, mismatches


def _check_tolerance(identity_id: str, tol: float) -> None:
    """A pass threshold must be finite and > 0: nan or <= 0 fails every
    row, inf passes every row."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tolerance override for {identity_id!r} must be "
                          f"finite and > 0, got {tol!r}")


def check_identity(identity_id: str, cp, tol: float | None = None
                   ) -> IdentityCheckResult:
    """Evaluate one registered identity at one CurvaturePoint.

    Applies the measured hypothesis gate; the result status is pass, fail or
    not_applicable.  The point must carry the derivative depth and Laplacian
    fields the identity needs, else CapacityError.
    """
    resolve_names("identity", [identity_id], REGISTRY)
    spec = REGISTRY[identity_id]
    if tol is None:
        tol = spec.tol
    else:
        _check_tolerance(identity_id, tol)
    pd = cp if isinstance(cp, PointData) else PointData(cp)
    return _check(spec, pd, tol)


def run_suite(cfg: RunConfig, catalog: dict | None = None) -> SuiteReport:
    if catalog is None:
        catalog = charts.build_catalog(cfg.conformal_coeffs)
    manifolds = resolve_names("manifold", cfg.manifolds, catalog)
    requested = resolve_names("identity", cfg.identities, REGISTRY)
    if cfg.points_per_manifold < 1:
        raise ConfigError("points_per_manifold must be >= 1")
    for tid, tol in cfg.tolerance_overrides.items():
        if tid not in REGISTRY:
            raise ConfigError(f"tolerance override for unknown identity {tid!r}")
        _check_tolerance(tid, tol)
    fixed_order = None if cfg.jet_order == "auto" else int(cfg.jet_order)
    if fixed_order is not None and not 2 <= fixed_order <= 8:
        raise ConfigError("jet_order must be 'auto' or an integer in 2..8")

    results = []
    mismatches = []
    capacity_skipped = []
    for name in manifolds:
        chart = catalog[name]
        control_ids = dict(CONTROL_EXPECT_FAIL) \
            if chart.properties.negative_control else {}
        attempted = [REGISTRY[sid] for sid in requested
                     if static_applicable(REGISTRY[sid], chart.properties)
                     or sid in control_ids]
        if fixed_order is not None:
            capacity_skipped += [(s.id, name) for s in attempted
                                 if s.jet_order > fixed_order]
            attempted = [s for s in attempted if s.jet_order <= fixed_order]
        depth = max([s.depth for s in attempted] + [1])
        laps = tuple(sorted({f for s in attempted for f in s.laplacians}))
        order = required_jet_order(depth, laps) if fixed_order is None \
            else fixed_order
        depth = min(depth, order - 2)
        for point in rng.sample_box(chart.domain, cfg.points_per_manifold,
                                    cfg.seed, name):
            rows, point_mismatches = _evaluate_point(
                chart, point, attempted, requested, order, depth, laps,
                cfg.tolerance_overrides, control_ids)
            results += rows
            mismatches += point_mismatches

    # stable: within one (identity, manifold) the rows stay in point order
    results.sort(key=lambda r: (r.identity_id, r.manifold))
    summary, exit_code = _summarize(results, mismatches, capacity_skipped,
                                    catalog)
    env = _environment(cfg.deterministic)
    return SuiteReport(config=cfg.as_dict(), environment=env, results=results,
                       summary=summary, exit_code=exit_code)


def _summarize(results, mismatches, capacity_skipped, catalog):
    per_identity: dict[str, dict] = {}
    controls: dict[str, dict] = {}
    nonfinite = []
    for r in results:
        agg = per_identity.setdefault(r.identity_id, {
            "pass": 0, "fail": 0, "not_applicable": 0, "expected_fail": 0,
            "unexpected_pass": 0, "max_residual_rel": 0.0})
        key = r.status.replace("-", "_")
        agg[key] += 1
        if r.status != "not_applicable":
            agg["max_residual_rel"] = max(agg["max_residual_rel"],
                                          r.residual_rel)
        if r.status in ("expected-fail", "unexpected-pass"):
            c = controls.setdefault(r.manifold, {}).setdefault(
                r.identity_id, {"violations": 0, "points": 0})
            c["points"] += 1
            if r.status == "expected-fail":
                c["violations"] += 1
        for v in (r.residual_abs, r.scale, r.residual_rel):
            if not math.isfinite(v):
                nonfinite.append(f"{r.identity_id}@{r.manifold}{r.point}")
    controls_met = True
    for manifold, ids in controls.items():
        for sid, c in ids.items():
            c["fraction"] = c["violations"] / max(c["points"], 1)
            c["met"] = c["fraction"] >= CONTROL_MIN_FRACTION
            controls_met = controls_met and c["met"]
    n_fail = sum(a["fail"] + a["unexpected_pass"]
                 for a in per_identity.values())
    ok = (n_fail == 0 and not mismatches and controls_met and not nonfinite)
    summary = {
        "per_identity": per_identity,
        "gate_mismatches": mismatches,
        "negative_controls": controls,
        "capacity_skipped": [list(t) for t in capacity_skipped],
        "nonfinite": nonfinite,
        "failures": n_fail,
        "all_controls_met": controls_met,
        "ok": ok,
    }
    return summary, (0 if ok else 1)


def _environment(deterministic: bool) -> dict:
    import platform
    import sys
    from . import __version__
    env = {
        "package": f"weylforge {__version__}",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.machine()}",
    }
    if not deterministic:
        import datetime
        env["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    return env


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def render_json(report: SuiteReport) -> str:
    import json
    doc = {
        "config": report.config,
        "environment": report.environment,
        "results": [r.as_dict() for r in report.results],
        "summary": report.summary,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


CSV_COLUMNS = ("identity_id", "manifold", "x1", "x2", "x3", "x4",
               "residual_abs", "scale", "residual_rel", "status", "jet_order")


def render_csv(report: SuiteReport) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in report.results:
        lines.append(",".join([
            r.identity_id, r.manifold,
            *(repr(x) for x in r.point),
            repr(r.residual_abs), repr(r.scale), repr(r.residual_rel),
            r.status, str(r.jet_order_used)]))
    return "\n".join(lines) + "\n"


def render_text(report: SuiteReport) -> str:
    lines = ["identity                               pass  fail  n/a   "
             "exp-fail  max_rel"]
    for sid in sorted(report.summary["per_identity"]):
        a = report.summary["per_identity"][sid]
        lines.append(f"{sid:<38} {a['pass']:>4}  {a['fail']:>4}  "
                     f"{a['not_applicable']:>4}  {a['expected_fail']:>8}  "
                     f"{a['max_residual_rel']:.3e}")
    for m in report.summary["gate_mismatches"]:
        lines.append(f"MISMATCH {m['manifold']} {m['point']}: {m['problem']}")
    for manifold, ids in report.summary["negative_controls"].items():
        for sid, c in ids.items():
            tag = "met" if c["met"] else "NOT MET"
            lines.append(f"control {manifold}/{sid}: {c['violations']}/"
                         f"{c['points']} violated ({tag})")
    lines.append(f"overall: {'ok' if report.summary['ok'] else 'FAILED'}")
    return "\n".join(lines) + "\n"


def render(report: SuiteReport, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    if fmt == "text":
        return render_text(report)
    raise ConfigError(f"unknown output format {fmt!r}")
