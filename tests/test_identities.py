from dataclasses import replace

import numpy as np
import pytest

from weylforge import charts, rng
from weylforge.charts import ChartProperties, MetricChart, curvature_at
from weylforge.identities import (CONTROL_EXPECT_FAIL, OUT_OF_SCOPE, REGISTRY,
                                  PointData, TermList, gate_satisfied,
                                  residual_rel, static_applicable)
from weylforge.suite import RunConfig, run_suite


def test_registry_is_well_formed():
    assert len(REGISTRY) == len({s.id for s in REGISTRY.values()})
    for spec in REGISTRY.values():
        # the plan: nabla^k W at order 2 for each Laplacian field
        assert spec.jet_order == max(
            [spec.depth + 2]
            + [4 + charts._LAP_STACK[f] for f in spec.laplacians])
        assert spec.tol > 0
        assert spec.anchors
        assert callable(spec.evaluate)
    assert set(CONTROL_EXPECT_FAIL) <= set(REGISTRY)
    out_ids = {e.id for e in OUT_OF_SCOPE}
    assert not out_ids & set(REGISTRY)


def test_term_lists_are_well_formed():
    """Term names identify terms; only the delegating checks and the block
    decomposition are hand-written functions."""
    for sid, spec in REGISTRY.items():
        ev = spec.evaluate
        if not isinstance(ev, TermList):
            continue
        assert ev.sign == spec.sector, sid
        names = [t.name for t in ev.terms]
        assert len(names) == len(set(names)), sid
        for t in ev.terms:
            assert "..." not in t.subscripts, (sid, t.name)
        for eq in ev.equations:
            for bound in eq.scale:
                if isinstance(bound, str) and bound != "lhs":
                    assert bound in names, (sid, bound)
    hand_written = {sid.removesuffix("-plus").removesuffix("-minus")
                    for sid, spec in REGISTRY.items()
                    if not isinstance(spec.evaluate, TermList)}
    assert hand_written == {
        "operator.block-decomposition", "algebra.quadratic", "algebra.cubic",
        "algebra.quadratic.sector", "algebra.cubic.sector",
        "algebra.quartic.sector", "algebra.quaternionic",
        "derdzinski.reconstruction", "derder.reconstruction", "derder.norm",
        "derder.cubic", "divz.relations"}


def test_commutation_k3_two_code_paths_agree(cp_sds):
    """The generated k-order commutation at k = 3 matches the explicit
    third-order term list."""
    pd = PointData(cp_sds)
    r1, s1 = REGISTRY["commute3.riemann"].evaluate(pd)
    r2, s2 = REGISTRY["commutek.k3"].evaluate(pd)
    assert r1 == pytest.approx(r2, rel=1e-12, abs=1e-25)
    assert s1 == pytest.approx(s2, rel=1e-12)


@pytest.mark.parametrize("sid", sorted(REGISTRY))
def test_identities_pass_on_sds(sid, catalog):
    """Every identity passes (or is gated N/A) on an Einstein chart point."""
    spec = REGISTRY[sid]
    chart = catalog["schwarzschild-de-sitter"]
    cp = curvature_at(chart, [4.5, 1.1, 0.9, 0.35], depth=max(spec.depth, 1),
                      laplacians=spec.laplacians)
    pd = PointData(cp)
    if not gate_satisfied(spec, pd):
        # only the parallel-sector gap checks and the conformal-flatness
        # control are inapplicable on Schwarzschild-de Sitter
        assert spec.gate in ("einstein-parallel-sector", "conformal")
        return
    res, scale = spec.evaluate(pd)
    rel, _ = residual_rel(spec, pd, res, scale)
    assert rel <= spec.tol, (sid, rel)


def test_harmonic_identities_on_non_einstein_chart(catalog):
    """Harmonic-Weyl formulas survive on the non-Einstein product chart."""
    chart = catalog["s2xs2-unequal"]
    cp = curvature_at(chart, [1.0, 0.8, 1.3, 1.1], depth=3,
                      laplacians=("w", "w_pm"))
    pd = PointData(cp)
    for sid in ("laplacian.harmonic-weyl", "laplacian.4d", "bochner1.general",
                "bochner1.4d", "bochner1.sector-plus", "lem-paolo",
                "key1.full", "gradweyl.harmonic"):
        spec = REGISTRY[sid]
        assert gate_satisfied(spec, pd), sid
        res, scale = spec.evaluate(pd)
        rel, _ = residual_rel(spec, pd, res, scale)
        assert rel <= spec.tol, (sid, rel)


def test_gap_check_not_applicable_on_schwarzschild(cp_schwarzschild):
    pd = PointData(cp_schwarzschild)
    spec = REGISTRY["gap.pointwise-plus"]
    assert not gate_satisfied(spec, pd)     # nabla W != 0 there


def test_gap_check_values(cp_cp2, cp_s2xs2):
    for cp, signs in ((cp_cp2, (1,)), (cp_s2xs2, (1, -1))):
        pd = PointData(cp)
        for sign in signs:
            sid = "gap.pointwise-plus" if sign == 1 else "gap.pointwise-minus"
            spec = REGISTRY[sid]
            assert gate_satisfied(spec, pd)
            res, scale = spec.evaluate(pd)
            rel, _ = residual_rel(spec, pd, res, scale)
            assert rel <= 1e-8
    # the vanishing sector of CP^2 is excluded by the nonzero gate
    pd = PointData(cp_cp2)
    assert not gate_satisfied(REGISTRY["gap.pointwise-minus"], pd)


def test_static_gating_matches_declarations(catalog):
    einstein_spec = REGISTRY["bochner2.teo-sbf"]
    assert static_applicable(einstein_spec,
                             catalog["schwarzschild"].properties)
    assert not static_applicable(einstein_spec,
                                 catalog["s2xs2-unequal"].properties)
    harm = REGISTRY["bochner1.4d"]
    assert static_applicable(harm, catalog["s2xs2-unequal"].properties)
    assert static_applicable(harm, catalog["schwarzschild"].properties)
    assert not static_applicable(harm,
                                 catalog["perturbed-schwarzschild"].properties)


def test_declared_property_mismatch_fails_suite(catalog):
    """A chart claiming Einstein while measuring non-Einstein is a failure."""
    lying = MetricChart(
        name="lying-chart",
        coordinate_names=catalog["perturbed-schwarzschild"].coordinate_names,
        domain=catalog["perturbed-schwarzschild"].domain,
        metric_fn=catalog["perturbed-schwarzschild"].metric_fn,
        properties=ChartProperties(einstein=0.0, harmonic_weyl=True))
    cfg = RunConfig(manifolds=("lying-chart",),
                    identities=("bianchi1.weyl",), points_per_manifold=2,
                    seed=5, deterministic=True)
    report = run_suite(cfg, catalog={"lying-chart": lying})
    assert report.exit_code == 1
    assert report.summary["gate_mismatches"]


def test_negative_control_statuses(catalog):
    cfg = RunConfig(manifolds=("perturbed-schwarzschild",),
                    identities=("bochner2.teo-sbf", "commute2.riemann",
                                "commute2.einstein"),
                    points_per_manifold=3, seed=9, deterministic=True)
    report = run_suite(cfg, catalog=catalog)
    by_id = {}
    for r in report.results:
        by_id.setdefault(r.identity_id, set()).add(r.status)
    assert by_id["bochner2.teo-sbf"] == {"expected-fail"}
    assert by_id["commute2.riemann"] == {"pass"}
    # the uncontracted Einstein form is gated off, not expected to fail
    assert by_id["commute2.einstein"] == {"not_applicable"}
    assert report.exit_code == 0


def test_status_values_are_constrained(catalog):
    cfg = RunConfig(manifolds=("s2xs2-equal",), identities=("all",),
                    points_per_manifold=1, seed=3, deterministic=True)
    report = run_suite(cfg, catalog=catalog)
    allowed = {"pass", "fail", "not_applicable", "expected-fail",
               "unexpected-pass"}
    assert {r.status for r in report.results} <= allowed
    assert report.exit_code == 0


def test_fixed_jet_order_skips_expensive_checks(catalog):
    cfg = RunConfig(manifolds=("s2xs2-equal",), identities=("all",),
                    points_per_manifold=1, seed=3, jet_order=4,
                    deterministic=True)
    report = run_suite(cfg, catalog=catalog)
    skipped = {tuple(t) for t in report.summary["capacity_skipped"]}
    assert ("bochner2.teo-sbf", "s2xs2-equal") in skipped
    for r in report.results:
        if r.identity_id == "bochner2.teo-sbf":
            assert r.status == "not_applicable"


def test_unknown_names_are_config_errors(catalog):
    from weylforge.suite import ConfigError
    with pytest.raises(ConfigError, match="s5"):
        run_suite(RunConfig(manifolds=("s5",)), catalog=catalog)
    with pytest.raises(ConfigError, match="bianchi1.weyl"):
        run_suite(RunConfig(identities=("nope.nope",)), catalog=catalog)
    with pytest.raises(ConfigError):
        run_suite(RunConfig(tolerance_overrides={"nope": 1.0}),
                  catalog=catalog)
    with pytest.raises(ConfigError):
        run_suite(RunConfig(points_per_manifold=0), catalog=catalog)


def test_sector_results_sum_consistently(cp_sds):
    """The covariant derivative decomposes orthogonally across sectors."""
    pd = PointData(cp_sds)
    plus, minus = pd.sector(1), pd.sector(-1)
    for k in (0, 1, 2):
        total = pd.cp.nabla_w[k]
        split = plus.stacks[k] + minus.stacks[k]
        assert np.abs(total - split).max() <= 1e-13 * np.abs(total).max()
        n_sum = (plus.stacks[k] ** 2).sum() + (minus.stacks[k] ** 2).sum()
        assert n_sum == pytest.approx((total ** 2).sum(), rel=1e-12)
    # cubic contractions add over sectors as the key-lemma proofs use
    w3 = np.einsum("ijkl,ijpqt,klpqt->", pd.W, pd.nw(1), pd.nw(1))
    w3_split = sum(np.einsum("ijkl,ijpqt,klpqt->", p.w, p.stacks[1],
                             p.stacks[1]) for p in (plus, minus))
    assert w3 == pytest.approx(w3_split, rel=1e-10)


def test_single_identity_check_api(cp_sds, cp_schwarzschild):
    from weylforge.suite import check_identity
    r = check_identity("bochner2.teo-sbf", cp_sds)
    assert r.status == "pass" and r.residual_rel <= 1e-6
    assert r.jet_order_used == cp_sds.jet_order
    r = check_identity("gap.pointwise-plus", cp_schwarzschild)
    assert r.status == "not_applicable"
    # A tolerance override decides the status: fail below the measured
    # residual, pass at exactly it.  The row must have a nonzero residual.
    rel = check_identity("key2.full", cp_schwarzschild).residual_rel
    assert rel > 0.0
    r = check_identity("key2.full", cp_schwarzschild, tol=rel / 2)
    assert r.status == "fail" and r.residual_rel == rel
    assert check_identity("key2.full", cp_schwarzschild,
                          tol=rel).status == "pass"
    from weylforge.suite import ConfigError
    for bad in (float("nan"), -1.0, 0.0, float("inf")):
        with pytest.raises(ConfigError):
            check_identity("key2.full", cp_schwarzschild, tol=bad)
    with pytest.raises(ConfigError):
        check_identity("bogus", cp_sds)


def test_missing_fields_and_stacks_are_capacity_errors(catalog):
    """A point without a Laplacian field or sector derivative stack that an
    identity needs raises CapacityError naming it, as a missing full
    nabla^k W does."""
    from weylforge.suite import check_identity
    cp = curvature_at(catalog["schwarzschild"], [4.0, 1.2, 0.8, 0.3],
                      depth=1)
    for sid, missing in (("bochner1.4d", "'w'"), ("bochner2.pro-boch", "'dw'"),
                         ("bochner2.pro-boch-plus", "'dw_plus'")):
        with pytest.raises(charts.CapacityError, match=missing):
            check_identity(sid, cp)
    for name in ("nw2", "nw2+", "nw2-"):
        with pytest.raises(charts.CapacityError, match="derivative stack 2"):
            PointData(cp).operand(name)


def test_residual_scale_floor_keeps_trivial_points_passing(catalog):
    """On flat space every residual is 0/floor = 0."""
    cfg = RunConfig(manifolds=("flat-r4",), identities=("all",),
                    points_per_manifold=1, seed=1, deterministic=True)
    report = run_suite(cfg, catalog=catalog)
    for r in report.results:
        assert r.status in ("pass", "not_applicable")
        assert r.residual_rel == 0.0 or r.residual_rel < 1e-12
    assert report.exit_code == 0


def test_point_data_is_freed_by_reference_counting(cp_sds):
    """A point's arrays go when its PointData does, not at the next cycle
    collection: sector packs must hold no reference back to it."""
    import gc
    import weakref
    pd = PointData(cp_sds)
    for sign in (1, -1):
        pd.sector(sign).ed
    ref = weakref.ref(pd)
    gc.disable()
    try:
        del pd
        assert ref() is None
    finally:
        gc.enable()


# Terms whose coefficient, scaled by 1.05, fails no row of the mutation
# sample below.  Each belongs to a pure X = 0 statement whose terms vanish
# identically under its hypothesis (Weyl and Cotton tensors are trace-free,
# W = 0 on a conformally flat chart, div W = div Riem = 0 on an Einstein
# one, and W+ contracts to zero against the quadratic in nabla W- of
# mix.orthogonality), so no chart can show the change.
UNDETECTED_MUTATIONS = {
    *(("weyl.decomposition", f"W_{t}")
      for t in ("iikl", "ijil", "ijki", "ijjl", "ijkj", "ijkk")),
    ("weyl.conformal-flat", "W_ijkl"),
    *(("cotton.traces", f"C_{t}") for t in ("iik", "iji", "ijj")),
    ("harmall.div-free", "div W"),
    ("harmall.div-free", "div Riem"),
    ("mix.orthogonality", "W+ nabla W- nabla W-"),
    ("mix.orthogonality", "W- nabla W+ nabla W+"),
}


@pytest.fixture(scope="module")
def mutation_rows(catalog):
    """(spec, PointData) pairs that are applicable, not negative-control
    evaluations, and pass: 2 points per catalog chart, depth 4, every
    scalar Laplacian field."""
    out = []
    for name, chart in catalog.items():
        for point in rng.sample_box(chart.domain, 2, 42, name):
            pd = PointData(curvature_at(chart, point, depth=4,
                                        laplacians=tuple(charts._LAP_STACK)))
            for spec in REGISTRY.values():
                if not isinstance(spec.evaluate, TermList):
                    continue
                if chart.properties.negative_control and \
                        spec.id in CONTROL_EXPECT_FAIL:
                    continue
                if not (static_applicable(spec, chart.properties)
                        and gate_satisfied(spec, pd)):
                    continue
                rel, _ = residual_rel(spec, pd, *spec.evaluate(pd))
                if rel <= spec.tol:
                    out.append((spec, pd))
    return out


def _scaled(ev: TermList, name: str, factor: float) -> TermList:
    def side(terms):
        return tuple(replace(t, coeff=factor * t.coeff) if t.name == name
                     else t for t in terms)
    return replace(ev, equations=tuple(
        replace(eq, lhs=side(eq.lhs), rhs=side(eq.rhs))
        for eq in ev.equations))


def test_every_term_can_fail(mutation_rows):
    """Scaling one term's coefficient by 1.05 fails at least one passing
    row, for every term of every term-list identity but the listed ones."""
    undetected = set()
    for sid, spec in REGISTRY.items():
        if not isinstance(spec.evaluate, TermList):
            continue
        rows = [pd for s, pd in mutation_rows if s is spec]
        for term in spec.evaluate.terms:
            mutated = _scaled(spec.evaluate, term.name, 1.05)
            if not any(residual_rel(spec, pd, *mutated(pd))[0] > spec.tol
                       for pd in rows):
                undetected.add((sid, term.name))
    assert undetected == UNDETECTED_MUTATIONS
