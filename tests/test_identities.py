from dataclasses import replace

import numpy as np
import pytest

import commutation_reference as ref
from dict_point import DictPoint, evaluate
from weylforge import algebra, charts, rng
from weylforge.charts import ChartProperties, MetricChart, curvature_at
from weylforge.identities import (CONTROL_EXPECT_FAIL, OUT_OF_SCOPE, REGISTRY,
                                  Commutator, PointData, Term, TermList,
                                  _frobenius,
                                  gate_satisfied, residual_rel,
                                  static_applicable)
from weylforge.suite import RunConfig, run_suite

# The data evaluators: term lists and the block-form commutators.
DATA = (TermList, Commutator)


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
    """Term names identify terms, and each output index of a term appears
    exactly once among its inputs; only the seven rows that the identities
    docstring names are hand-written functions."""
    for sid, spec in REGISTRY.items():
        ev = spec.evaluate
        if not isinstance(ev, DATA):
            continue
        names = [t.name for t in ev.terms]
        assert len(names) == len(set(names)), sid
        for t in ev.terms:
            assert "..." not in t.subscripts, (sid, t.name)
            inputs, out = t.subscripts.split("->")
            for index in out:
                assert inputs.count(index) == 1, (sid, t.name, index)
        bounds = ev.scale if isinstance(ev, Commutator) else \
            [b for eq in ev.equations for b in eq.scale]
        for bound in bounds:
            if isinstance(bound, str) and bound != "lhs":
                assert bound in names, (sid, bound)
    hand_written = {sid.removesuffix("-plus").removesuffix("-minus")
                    for sid, spec in REGISTRY.items()
                    if not isinstance(spec.evaluate, DATA)}
    assert hand_written == {
        "algebra.quaternionic", "algebra.quartic.sector",
        "derder.reconstruction", "divz.relations"}


# Each block-form commutator and the full-component term list it replaced.
COMMUTATION_REFERENCE = {
    "commute2.riemann": ref.commutation(2),
    "commutek.k3": ref.commutation(3),
    "commutek.k4": ref.commutation(4),
    "commute2.weyl-ricci": ref.COMMUTE2_WEYL_RICCI,
    "commute2.einstein": ref.COMMUTE2_EINSTEIN,
}


def test_commutation_block_form_equals_the_full_component_reference(
        sample_points):
    """On every catalog chart, 2 points each, the block-form commutators
    give the full-component term lists' residual to 1e-12 of the scale,
    and their scale to 1e-12 relative, for the whole W and each half.
    commute3.riemann is the k = 3 commutator itself."""
    assert REGISTRY["commute3.riemann"].evaluate is \
        REGISTRY["commutek.k3"].evaluate
    for _, pd in sample_points:
        for sid, equations in COMMUTATION_REFERENCE.items():
            for sign in (None, 1, -1):
                r1, s1 = REGISTRY[sid].evaluate(pd.sector(sign))
                r2, s2 = TermList(equations)(pd.sector(sign))
                assert abs(r1 - r2) <= 1e-12 * s2, (sid, sign, r1, r2)
                assert s1 == pytest.approx(s2, rel=1e-12), (sid, sign)


@pytest.mark.parametrize("sid", sorted(REGISTRY))
def test_identities_pass_on_sds(sid, catalog):
    """Every identity passes (or is gated N/A) on an Einstein chart point."""
    spec = REGISTRY[sid]
    chart = catalog["schwarzschild-de-sitter"]
    cp = curvature_at(chart, [4.5, 1.1, 0.9, 0.35], depth=max(spec.depth, 1),
                      laplacians=spec.laplacians)
    pd = PointData(cp)
    if not gate_satisfied(spec, pd.sector(spec.sector)):
        # only the parallel-sector gap checks and the conformal-flatness
        # control are inapplicable on Schwarzschild-de Sitter
        assert spec.gate in ("einstein-parallel-sector", "conformal")
        return
    res, scale = evaluate(spec, pd)
    rel, _ = residual_rel(spec, pd, res, scale)
    assert rel <= spec.tol, (sid, rel)


def test_harmonic_identities_on_non_einstein_chart(catalog):
    """Harmonic-Weyl formulas survive on the non-Einstein product chart."""
    chart = catalog["s2xs2-unequal"]
    cp = curvature_at(chart, [1.0, 0.8, 1.3, 1.1], depth=3,
                      laplacians=("w",))
    pd = PointData(cp)
    for sid in ("laplacian.harmonic-weyl", "laplacian.4d", "bochner1.general",
                "bochner1.4d", "bochner1.sector-plus", "lem-paolo",
                "key1.full", "gradweyl.harmonic"):
        spec = REGISTRY[sid]
        assert gate_satisfied(spec, pd.sector(spec.sector)), sid
        res, scale = evaluate(spec, pd)
        rel, _ = residual_rel(spec, pd, res, scale)
        assert rel <= spec.tol, (sid, rel)


def test_gap_check_not_applicable_on_schwarzschild(cp_schwarzschild):
    pd = PointData(cp_schwarzschild)
    assert not gate_satisfied(REGISTRY["gap.pointwise-plus"],
                              pd.sector(1))     # nabla W != 0 there


def test_gap_check_values(cp_cp2, cp_s2xs2):
    for cp, signs in ((cp_cp2, (1,)), (cp_s2xs2, (1, -1))):
        pd = PointData(cp)
        for sign in signs:
            sid = "gap.pointwise-plus" if sign == 1 else "gap.pointwise-minus"
            spec = REGISTRY[sid]
            assert gate_satisfied(spec, pd.sector(sign))
            res, scale = evaluate(spec, pd)
            rel, _ = residual_rel(spec, pd, res, scale)
            assert rel <= 1e-8
    # the vanishing sector of CP^2 is excluded by the nonzero gate
    pd = PointData(cp_cp2)
    assert not gate_satisfied(REGISTRY["gap.pointwise-minus"], pd.sector(-1))


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
    """The covariant derivative decomposes orthogonally across sectors, and
    the whole tensor is exactly the sum of its halves: the same array as
    expanding both blocks at once."""
    pd = PointData(cp_sds)
    whole, plus, minus = pd.sector(None), pd.sector(1), pd.sector(-1)
    for k in (0, 1, 2):
        total = whole.stack(k)
        assert np.array_equal(total, plus.stack(k) + minus.stack(k))
        assert np.array_equal(total, algebra.from_sector_blocks(
            cp_sds.weyl_blocks[k], cp_sds.forms))
        n_sum = (plus.stack(k) ** 2).sum() + (minus.stack(k) ** 2).sum()
        assert n_sum == pytest.approx((total ** 2).sum(), rel=1e-12)
    # cubic contractions add over sectors as the key-lemma proofs use
    w3 = np.einsum("ijkl,ijpqt,klpqt->", whole.stack(0), whole.stack(1),
                   whole.stack(1))
    w3_split = sum(np.einsum("ijkl,ijpqt,klpqt->", p.stack(0), p.stack(1),
                             p.stack(1)) for p in (plus, minus))
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
    for name, half in (("nw2", ""), ("nw2+", "plus "), ("nw2-", "minus ")):
        with pytest.raises(charts.CapacityError,
                           match=f"^{half}derivative stack 2 not computed"):
            PointData(cp).operand(name)
    # the block-form commutators read the blocks and raise the same error
    cp = curvature_at(catalog["schwarzschild"], [4.0, 1.2, 0.8, 0.3],
                      depth=3)
    with pytest.raises(charts.CapacityError,
                       match="^derivative stack 4 not computed"):
        check_identity("commutek.k4", cp)


def test_half_only_operands_need_a_half(cp_schwarzschild):
    """lam, E and K exist for one half only: with no sign they raise a
    ValueError naming the operand."""
    pd = PointData(cp_schwarzschild)
    for name, shape in (("lam", (3,)), ("E", (3, 4, 4)), ("K", (3, 3, 4))):
        with pytest.raises(ValueError, match=f"operand '{name}'"):
            pd.operand(name)
        assert pd.operand(name + "-").shape == shape
        assert pd.sector(1).operand(name).shape == shape


def test_blocks_are_expanded_on_first_read(catalog, monkeypatch):
    """Only the stacks an identity reads become frame components:
    bianchi1.weyl reads W, one expansion per half, and no nabla^k W."""
    from weylforge.suite import check_identity
    expand = algebra.from_sector_blocks
    degrees = []

    def counting(blocks, forms):
        degrees.append(blocks.ndim - 3)
        return expand(blocks, forms)

    monkeypatch.setattr(algebra, "from_sector_blocks", counting)
    cp = curvature_at(catalog["schwarzschild"], [4.0, 1.2, 0.8, 0.3],
                      depth=4)
    assert check_identity("bianchi1.weyl", cp).status == "pass"
    assert degrees == [0, 0]


def test_commutators_expand_no_derivative_stack(catalog, monkeypatch):
    """The six block-form commutation checks read nabla^k W as blocks:
    at a depth-4 point none of them expands a stack with k >= 1."""
    from weylforge.suite import check_identity
    expand = algebra.from_sector_blocks
    degrees = []

    def counting(blocks, forms):
        degrees.append(blocks.ndim - 3)
        return expand(blocks, forms)

    monkeypatch.setattr(algebra, "from_sector_blocks", counting)
    cp = curvature_at(catalog["schwarzschild-de-sitter"],
                      [4.5, 1.1, 0.9, 0.35], depth=4)
    pd = PointData(cp)
    for sid in ("commute2.riemann", "commute2.weyl-ricci",
                "commute2.einstein", "commute3.riemann", "commutek.k3",
                "commutek.k4"):
        assert isinstance(REGISTRY[sid].evaluate, Commutator), sid
        assert check_identity(sid, pd).status == "pass", sid
    assert degrees and set(degrees) == {0}


# Every term that reads W+- blocks b<k>, by name: its frame-component
# subscripts and operands, and the factor its coefficient carries, 2 per
# contracted pair of two-form slots.
FRAME_TWINS = {
    "|W|^2": ("ijkl,ijkl->", "W W", 4),
    "|W|^2 g_tl": ("pqrs,pqrs,tl->tl", "W W g", 4),
    "R |W|^2": (",ijkl,ijkl->", "R W W", 4),
    "W_ijkl W_ijpq W_klpq": ("ijkl,ijpq,klpq->", "W W W", 8),
    "|nabla W|^2": ("ijklt,ijklt->", "nw1 nw1", 4),
    "R |nabla W|^2": (",ijklt,ijklt->", "R nw1 nw1", 4),
    "W_ijkl nabla W_ijpqt nabla W_klpqt": ("ijkl,ijpqt,klpqt->",
                                           "W nw1 nw1", 8),
    "|nabla^2 W|^2": ("ijklst,ijklst->", "nw2 nw2", 4),
    "<nabla W, nabla Delta W>": ("ijklt,ijklsst->", "nw1 nw3", 4),
    "|nabla^3 W|^2": ("ijklstu,ijklstu->", "nw3 nw3", 4),
    "<nabla^2 W, nabla^2 Delta W>": ("ijklsu,ijklsttu->", "nw2 nw4", 4),
    "R |nabla^2 W|^2": (",ijklst,ijklst->", "R nw2 nw2", 4),
    "nabla^2 W_ijkltr nabla^2 W_ijklps Riem_ptrs": (
        "ijkltr,ijklps,ptrs->", "nw2 nw2 riem", 4),
}


def _block_terms():
    """Every registry term that reads a b<k> operand."""
    return [t for spec in REGISTRY.values() if isinstance(spec.evaluate, DATA)
            for t in spec.evaluate.terms
            if any(n[0] == "b" for n in t.operands.split())]


def _assert_block_terms_equal_their_twins(point):
    """Each block term's value equals its frame twin's, on the whole point
    and on each half, to 1e-13 of the summed sizes of the products."""
    for sign in (None, 1, -1):
        sector = point.sector(sign)
        for term in _block_terms():
            subscripts, operands, factor = FRAME_TWINS[term.name]
            twin = Term(term.name, term.coeff / factor, subscripts, operands)
            ops = [sector.operand(n) for n in operands.split()]
            size = abs(twin.coeff) * np.einsum(subscripts, *map(np.abs, ops))
            got, want = term.value(sector), twin.value(sector)
            assert np.abs(got - want).max() <= 1e-13 * size.max(), \
                (sign, term.name)


def test_block_terms_equal_their_frame_einsum():
    """On random W+- blocks with 0 to 4 derivative slots, expanded to the
    frame components of each half and of their sum, each term that reads
    the blocks equals its frame-component einsum over the DictPoint
    operands, for the whole point and each half.  FRAME_TWINS covers every
    such term of the registry."""
    gen = np.random.default_rng(25)
    forms = algebra.sector_forms()
    ops = {"R": gen.normal(), "riem": gen.normal(size=(4,) * 4)}
    for k in range(5):
        blocks = gen.normal(size=(2, 3, 3) + (4,) * k)
        name = "W" if k == 0 else f"nw{k}"
        plus, minus = (algebra.from_sector_blocks(blocks[s:s + 1],
                                                  forms[s:s + 1])
                       for s in (0, 1))
        ops |= {name: plus + minus, name + "+": plus, name + "-": minus}
    assert {t.name for t in _block_terms()} == set(FRAME_TWINS)
    _assert_block_terms_equal_their_twins(DictPoint(ops))


def test_bochner_rows_expand_no_stack_above_nw2(catalog, monkeypatch):
    """At an Einstein point of depth 4 every applicable row passes and
    none expands nabla^3 W or nabla^4 W to frame components: only the
    terms that contract a two-form slot with another index read W, nabla W
    and nabla^2 W expanded.  On the point's own blocks each block term
    equals its frame twin, for the whole point and each half."""
    from weylforge.suite import check_identity
    expand = algebra.from_sector_blocks
    degrees = set()

    def counting(blocks, forms):
        degrees.add(blocks.ndim - 3)
        return expand(blocks, forms)

    monkeypatch.setattr(algebra, "from_sector_blocks", counting)
    pd = PointData(curvature_at(catalog["schwarzschild-de-sitter"],
                                [4.5, 1.1, 0.9, 0.35], depth=4,
                                laplacians=charts.LAPLACIAN_FIELDS))
    for sid in REGISTRY:
        assert check_identity(sid, pd).status in ("pass", "not_applicable")
    assert check_identity("bochnerk.k2-plus", pd).status == "pass"
    assert degrees == {0, 1, 2}
    _assert_block_terms_equal_their_twins(pd)


def _depth2_point(chart):
    lo, hi = chart.domain[:, 0], chart.domain[:, 1]
    return curvature_at(chart, lo + 0.37 * (hi - lo), depth=2)


@pytest.mark.parametrize("name", sorted(charts.build_catalog()))
def test_block_norms_and_divergence_equal_the_expansion(catalog, name):
    """norm(k) and div, read off the blocks, equal the Frobenius norm and
    the trace of the expanded frame components, for the whole W and each
    half."""
    pd = PointData(_depth2_point(catalog[name]))
    for sign, suffix in ((None, ""), (1, "+"), (-1, "-")):
        pack = pd.sector(sign)
        for k in range(3):
            name = "W" if k == 0 else f"nw{k}"
            want = _frobenius(pack.stack(k))
            assert abs(pack.norm(name) - want) <= 1e-14 * want, (sign, k)
            assert pd.norm(name + suffix) == pack.norm(name)
        trace = np.einsum("tijkt->ijk", pack.stack(1))
        assert np.abs(pack.div - trace).max() <= \
            1e-13 * pack.norm("nw1"), sign


def test_gates_and_audit_expand_nothing(catalog, monkeypatch):
    """The declaration audit and every identity's gate read |W|,
    |nabla^k W| and div W off the blocks: no expansion to frame
    components at a depth-2 point of any catalog chart."""
    from weylforge import suite
    expand = algebra.from_sector_blocks
    calls = []

    def counting(blocks, forms):
        calls.append(blocks.ndim - 3)
        return expand(blocks, forms)

    monkeypatch.setattr(algebra, "from_sector_blocks", counting)
    for name, chart in catalog.items():
        pd = PointData(_depth2_point(chart))
        suite._audit_point(chart, pd)
        for spec in REGISTRY.values():
            gate_satisfied(spec, pd.sector(spec.sector))
        assert calls == [], name


def test_gates_are_measured_once_per_point(catalog, monkeypatch):
    """A second declaration audit and gate pass at a point measures nothing
    again: each gate keeps its answer, or the norms it reads, on the sector
    pack it is read on."""
    from weylforge import identities, suite
    points = [(chart, PointData(_depth2_point(chart)))
              for chart in catalog.values()]

    def audit_and_gates():
        for chart, pd in points:
            suite._audit_point(chart, pd)
            for spec in REGISTRY.values():
                gate_satisfied(spec, pd.sector(spec.sector))

    audit_and_gates()
    frobenius, calls = identities._frobenius, []

    def counting(a):
        calls.append(np.shape(a))
        return frobenius(a)

    monkeypatch.setattr(identities, "_frobenius", counting)
    audit_and_gates()
    assert calls == []


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
        pd.sector(sign).K
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
def sample_points(catalog):
    """(chart, PointData) at 2 points per catalog chart, depth 4, every
    scalar Laplacian field."""
    return [(chart, PointData(curvature_at(
                chart, point, depth=4, laplacians=tuple(charts._LAP_STACK))))
            for name, chart in catalog.items()
            for point in rng.sample_box(chart.domain, 2, 42, name)]


@pytest.fixture(scope="module")
def mutation_rows(sample_points):
    """(spec, PointData) pairs of the data evaluators that are applicable,
    not negative-control evaluations, and pass at the sample points."""
    out = []
    for chart, pd in sample_points:
        for spec in REGISTRY.values():
            if not isinstance(spec.evaluate, DATA):
                continue
            if chart.properties.negative_control and \
                    spec.id in CONTROL_EXPECT_FAIL:
                continue
            if not (static_applicable(spec, chart.properties)
                    and gate_satisfied(spec, pd.sector(spec.sector))):
                continue
            rel, _ = residual_rel(spec, pd, *evaluate(spec, pd))
            if rel <= spec.tol:
                out.append((spec, pd))
    return out


def _scaled(ev, name: str, factor: float):
    def side(terms):
        return tuple(replace(t, coeff=factor * t.coeff) if t.name == name
                     else t for t in terms)
    if isinstance(ev, Commutator):
        return replace(ev, curvature=side(ev.curvature))
    return replace(ev, equations=tuple(
        replace(eq, lhs=side(eq.lhs), rhs=side(eq.rhs))
        for eq in ev.equations))


def test_every_term_can_fail(mutation_rows):
    """Scaling one term's coefficient by 1.05 fails at least one passing
    row, for every term of every term list and every curvature piece of
    every commutator but the listed ones."""
    undetected = set()
    for sid, spec in REGISTRY.items():
        if not isinstance(spec.evaluate, DATA):
            continue
        rows = [pd for s, pd in mutation_rows if s is spec]
        for term in spec.evaluate.terms:
            mutated = _scaled(spec.evaluate, term.name, 1.05)
            if not any(residual_rel(spec, pd, *mutated(
                    pd.sector(spec.sector)))[0] > spec.tol for pd in rows):
                undetected.add((sid, term.name))
    assert undetected == UNDETECTED_MUTATIONS


# One input perturbation per hand-written row (an evaluator that is not
# data), keyed by the row's id without its -plus/-minus suffix.  Each takes
# a PointData and the row's sector and edits the sector pack's cached
# stack(k), its blocks or its frame before the row is evaluated.
def _other_half(k):
    """The other half added to nabla^k W+-: no longer in one sector."""
    def perturb(pd, sign):
        pack = pd.sector(sign)
        pack._stacks[k] = pack.stack(k) + 1e-2 * pd.sector(-sign).stack(k)
    return perturb


def _scaled_form(pd, sign):
    """The first eigen-two-form of both frames read scaled by 1.001."""
    for s in (1, -1):
        pack = pd.sector(s)
        forms = pack.frame.forms.copy()
        forms[0] *= 1.001
        pack.frame = replace(pack.frame, forms=forms)


def _not_div_free(pd, sign):
    """W+- (x) v added to the blocks of nabla W+-, which K reads: still in
    the sector, not div-free."""
    pack = pd.sector(sign)
    v = 1e-2 * pack.norm("nw1") / pack.norm("W") \
        * np.array([1.0, -2.0, 0.5, 3.0])
    pack._blocks[1] = pack.blocks(1) + np.einsum("sxy,t->sxyt",
                                                 pack.blocks(0), v)


HAND_WRITTEN_MUTATIONS = {
    "algebra.quaternionic": _scaled_form,
    "algebra.quartic.sector": _other_half(0),
    "derder.reconstruction": _other_half(1),
    "divz.relations": _not_div_free,
}


def test_every_hand_written_row_can_fail(cp_schwarzschild):
    """Each of the 7 hand-written rows passes at an Einstein point with
    W+, W- and nabla W nonzero, and fails once its inputs are perturbed."""
    rows = {sid: spec for sid, spec in REGISTRY.items()
            if not isinstance(spec.evaluate, DATA)}
    assert len(rows) == 7
    for sid, spec in rows.items():
        pd = PointData(cp_schwarzschild)
        assert gate_satisfied(spec, pd.sector(spec.sector)), sid
        assert residual_rel(spec, pd, *evaluate(spec, pd))[0] <= spec.tol, sid
        pd = PointData(cp_schwarzschild)
        HAND_WRITTEN_MUTATIONS[sid.removesuffix("-plus").removesuffix(
            "-minus")](pd, spec.sector)
        rel, _ = residual_rel(spec, pd, *evaluate(spec, pd))
        assert rel > spec.tol, (sid, rel)


def test_hand_written_rows_read_only_their_operands(cp_schwarzschild):
    """Each hand-written row gives exactly the same (residual, scale) on a
    DictPoint of the point's operands E+-, W+-, nw1+- and K+- as on its
    PointData: it reads nothing of its sector but SectorPack.operand."""
    pd = PointData(cp_schwarzschild)
    point = DictPoint({name + h: pd.sector(sign).operand(name)
                       for name in ("E", "W", "nw1", "K")
                       for h, sign in (("+", 1), ("-", -1))})
    for sid, spec in REGISTRY.items():
        if not isinstance(spec.evaluate, DATA):
            assert evaluate(spec, point) == evaluate(spec, pd), sid


def test_suite_splits_no_riemann_tensor(catalog, monkeypatch):
    """Every W+- block is read off the jets: run_suite over the catalog,
    one point per chart and every identity, calls neither
    algebra.lambda_split nor algebra.pair_matrix."""
    calls = []
    for name in ("lambda_split", "pair_matrix"):
        def counting(*args, _name=name, _fn=getattr(algebra, name),
                     **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(algebra, name, counting)
    cfg = RunConfig(identities=("all",), points_per_manifold=1, seed=42,
                    deterministic=True)
    assert run_suite(cfg, catalog=catalog).exit_code == 0
    assert calls == []
