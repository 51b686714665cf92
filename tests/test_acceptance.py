"""Acceptance criteria, evaluated end to end at their stated tolerances.

One test per criterion; each prints a single PASS/FAIL line.  Criteria 2-7
read from one shared full suite run (every manifold, every identity, 20
seeded points, seed 42) -- the same run a user gets from
`weylforge verify --points 20 --seed 42`.
"""

import json
import time

import numpy as np
import pytest

from dict_point import DictPoint, evaluate
from sector_tensors import random_sector_tensor
from weylforge import algebra as alg
from weylforge import charts, cli
from weylforge.charts import curvature_at
from weylforge.identities import CONTROL_MIN_FRACTION, REGISTRY, \
    OUT_OF_SCOPE, PointData, residual_rel
from weylforge.suite import RunConfig, run_suite

EINSTEIN_ENTRIES = ("flat-r4", "s4-round", "h4-poincare", "cp2-fubini-study",
                    "s2xs2-equal", "schwarzschild", "schwarzschild-de-sitter")

UNIVERSAL_IDS = ("bianchi2.fake-weyl", "gradweyl.general", "commute2.riemann",
                 "commute3.riemann", "commutek.k3", "key2.full",
                 "key2.sector-plus", "key2.sector-minus", "mix.orthogonality",
                 "derder.cubic-plus", "derder.cubic-minus")

HARMONIC_IDS = ("laplacian.harmonic-weyl", "bochner1.general", "laplacian.4d",
                "bochner1.4d", "bochner1.sector-plus", "bochner1.sector-minus",
                "divz.relations-plus", "divz.relations-minus", "key1.full",
                "key1.sector-plus", "key1.sector-minus", "lem-paolo")

EINSTEIN_IDS_J5 = ("commute2.einstein", "commute2.einstein-contracted",
                   "bochner2.pro-boch", "bochner2.pro-boch-weyl",
                   "bochner2.pro-boch-plus", "bochner2.pro-boch-minus",
                   "bochner2.teo-sbf")
EINSTEIN_IDS_J6 = ("bochnerk.k2", "bochnerk.k2-plus", "bochnerk.k2-minus")


@pytest.fixture(scope="module")
def full_run():
    cfg = RunConfig(manifolds=("all",), identities=("all",),
                    points_per_manifold=20, seed=42, deterministic=True)
    return run_suite(cfg)


def rows(report, identity=None, manifold=None):
    out = report.results
    if identity is not None:
        out = [r for r in out if r.identity_id == identity]
    if manifold is not None:
        out = [r for r in out if r.manifold == manifold]
    return out


def announce(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_algebraic_battery(rng):
    t0 = time.time()
    n = 1000
    worst = 0.0
    frames = []
    for i in range(n):
        sign, half = (1, "plus") if i % 2 == 0 else (-1, "minus")
        w, frame, _ = random_sector_tensor(rng, sign)
        frames.append(frame)
        point = DictPoint({"W+" if sign == 1 else "W-": w})
        for name in ("quadratic", "cubic", "quartic"):
            r, s = evaluate(REGISTRY[f"algebra.{name}.sector-{half}"], point)
            worst = max(worst, r / max(s, 1e-30))
    worst_q = max(alg.quaternionic_residual(f.forms) for f in frames)
    elapsed = time.time() - t0
    announce(1, worst <= 1e-12 and worst_q <= 1e-12 and elapsed < 10.0,
             f"1000-tensor battery: worst residual {worst:.2e}, "
             f"quaternionic {worst_q:.2e}, {elapsed:.1f}s")


def test_criterion_2_universal_identities(full_run):
    worst, where = 0.0, ""
    for sid in UNIVERSAL_IDS:
        got = rows(full_run, identity=sid)
        assert len(got) == 20 * 10, sid
        for r in got:
            assert r.status == "pass", (sid, r.manifold, r.status)
            if r.residual_rel > worst:
                worst, where = r.residual_rel, f"{sid}@{r.manifold}"
    announce(2, worst <= 1e-6,
             f"universal identities on all 10 entries x 20 points: "
             f"worst residual_rel {worst:.2e} ({where})")


def test_criterion_3_harmonic_weyl_identities(full_run):
    worst, where = 0.0, ""
    manifolds = EINSTEIN_ENTRIES + ("s2xs2-unequal",)
    for sid in HARMONIC_IDS:
        for m in manifolds:
            for r in rows(full_run, identity=sid, manifold=m):
                assert r.status == "pass", (sid, m, r.status)
                if r.residual_rel > worst:
                    worst, where = r.residual_rel, f"{sid}@{m}"
    announce(3, worst <= 1e-6,
             f"harmonic-Weyl identities on Einstein entries + unequal "
             f"spheres: worst residual_rel {worst:.2e} ({where})")


def test_criterion_4_einstein_identities(full_run, catalog):
    worst5 = worst6 = 0.0
    for m in ("schwarzschild", "schwarzschild-de-sitter"):
        for sid in EINSTEIN_IDS_J5:
            for r in rows(full_run, identity=sid, manifold=m):
                assert r.status == "pass", (sid, m, r.status)
                worst5 = max(worst5, r.residual_rel)
        for sid in EINSTEIN_IDS_J6:
            for r in rows(full_run, identity=sid, manifold=m):
                assert r.status == "pass", (sid, m, r.status)
                worst6 = max(worst6, r.residual_rel)
        # nontriviality gate at test points
        chart = catalog[m]
        for frac in (0.25, 0.5, 0.75):
            pt = chart.domain[:, 0] + frac * (chart.domain[:, 1]
                                              - chart.domain[:, 0])
            # |nabla W|^2 > 1e-6 |W|^2 at unit chart length scale
            whole = PointData(curvature_at(chart, pt, depth=1)).sector(None)
            assert whole.norm("nw1") ** 2 > 1e-6 * whole.norm("W") ** 2, m
    announce(4, worst5 <= 1e-6 and worst6 <= 1e-5,
             f"Einstein-only identities: worst order-5 {worst5:.2e} "
             f"(<=1e-6), worst order-6 {worst6:.2e} (<=1e-5), "
             f"|grad W| nontrivial at test points")


def test_criterion_5_negative_controls(full_run):
    control = "perturbed-schwarzschild"
    checked = []
    for sid in ("bochner2.teo-sbf", "key1.full", "key1.sector-plus",
                "key1.sector-minus", "commute2.einstein-contracted"):
        got = rows(full_run, identity=sid, manifold=control)
        assert len(got) == 20
        violated = sum(1 for r in got
                       if r.status == "expected-fail" and r.residual_rel > 1e-2)
        checked.append((sid, violated))
        assert violated >= 12, (sid, violated)   # >= 60% of 20 points
    for sid in UNIVERSAL_IDS:
        for r in rows(full_run, identity=sid, manifold=control):
            assert r.status == "pass" and r.residual_rel <= 1e-6, sid
    summary = ", ".join(f"{sid}:{v}/20" for sid, v in checked)
    announce(5, True,
             f"hypothesis necessity on the negative control: {summary}; "
             f"universal identities simultaneously pass")


def test_criterion_5_pro_boch_violation_magnitude(catalog):
    """The first rough Bochner formula needs the Einstein hypothesis.

    Without any hypothesis, 1/2 Delta|nabla W|^2 = |nabla^2 W|^2
    + <nabla W, Delta nabla W>.  The Ricci identity for
    Delta nabla W - nabla Delta W and the contracted Bianchi identity turn
    this into the Riemann form of the formula plus the Einstein defect

        D = E(nabla W, nabla W)
            + 4 <nabla_t W_ijkl, W_rjkl (nabla_i Ric_rt - nabla_r Ric_it)>,

    with E = Ric - (R/4) g.  Both terms vanish on Einstein metrics.  On the
    perturbed Schwarzschild control (trace-free Ricci 16.8% of |Riem|) they
    have opposite signs, the nabla Ric term about 1.9 times the E term, and
    |nabla^2 W|^2 sits on both sides and sets the scale, so residual_rel is
    4.0e-4 to 1.8e-3 (Riemann form) and 4.4e-4 to 1.95e-3 (Weyl form) over
    the 20 seeded points.  The test checks the hypothesis-free form, that
    the signed Riemann-form residual is exactly D, and that both forms are
    violated far above their tolerance.
    """
    chart = catalog["perturbed-schwarzschild"]
    from weylforge import rng as wrng
    pts = wrng.sample_box(chart.domain, 20, 42, chart.name)
    spec_r = REGISTRY["bochner2.pro-boch"]
    spec_w = REGISTRY["bochner2.pro-boch-weyl"]
    tol = spec_r.tol
    rels = {spec_r.id: [], spec_w.id: []}
    evaluator_gap = 0.0
    for pt in pts:
        cp = curvature_at(chart, pt, depth=3, laplacians=("dw",))
        pd = PointData(cp)
        s1, s2, s3 = (pd.operand(f"nw{k}")     # last index outermost
                      for k in (1, 2, 3))
        lhs = 0.5 * pd.operand("lap_dw")
        n2 = float((s2 ** 2).sum())
        ndw2 = float((s1 ** 2).sum())
        # (a) hypothesis-free form, with Delta nabla W
        inner_free = float(np.einsum("ijklt,ijkltss->", s1, s3))
        free_rel, _ = residual_rel(spec_r, pd, abs(lhs - n2 - inner_free),
                                   max(abs(lhs), n2, abs(inner_free)))
        assert free_rel <= tol, (pt, free_rel)
        # (b) the signed Riemann-form residual, with nabla Delta W, is D
        inner = float(np.einsum("ijklt,ijklsst->", s1, s3))
        coupling = 8.0 * float(np.einsum("ijkls,rjklt,rist->", s1, s1,
                                         pd.riem))
        signed = lhs - (n2 + inner + (pd.R / 4.0) * ndw2 + coupling)
        e = pd.ric - (pd.R / 4.0) * np.eye(4)
        e_term = float(np.einsum("st,ijkls,ijklt->", e, s1, s1))
        dric = cp.ric_deriv                  # dric[a, b, c] = nabla_c Ric_ab
        curl = np.einsum("rti->irt", dric) - np.einsum("itr->irt", dric)
        dric_term = 4.0 * float(np.einsum("ijklt,rjkl,irt->", s1,
                                          pd.operand("W"), curl))
        res, scale = evaluate(spec_r, pd)
        _, floor = residual_rel(spec_r, pd, res, scale)
        assert abs(signed - (e_term + dric_term)) <= tol * floor, pt
        assert abs(signed - e_term) > tol * floor, pt
        assert abs(signed - dric_term) > tol * floor, pt
        evaluator_gap = max(evaluator_gap, abs(res - abs(signed)) / floor)
        for spec in (spec_r, spec_w):
            res, scale = evaluate(spec, pd)
            rels[spec.id].append(residual_rel(spec, pd, res, scale)[0])
    # (c) both forms are violated far above their tolerance
    violated = {sid: sum(rel > 100.0 * REGISTRY[sid].tol for rel in got)
                for sid, got in rels.items()}
    ok = all(v >= CONTROL_MIN_FRACTION * len(pts) for v in violated.values())
    summary = ", ".join(f"{sid}: {violated[sid]}/{len(pts)} beyond "
                        f"{100.0 * REGISTRY[sid].tol:.0e} "
                        f"(residual_rel {min(got):.2e}"
                        f"..{max(got):.2e})" for sid, got in rels.items())
    announce(5, ok, f"rough Bochner needs Einstein on the control chart, "
                    f"residual = Einstein defect: {summary}")
    # the evaluator's Riemann-form residual is |D| itself
    assert evaluator_gap <= tol, evaluator_gap


def test_criterion_6_pointwise_gap(full_run):
    worst = 0.0
    for r in rows(full_run, identity="gap.pointwise-plus",
                  manifold="cp2-fubini-study"):
        assert r.status == "pass"
        worst = max(worst, r.residual_rel)
    for sid in ("gap.pointwise-plus", "gap.pointwise-minus"):
        for r in rows(full_run, identity=sid, manifold="s2xs2-equal"):
            assert r.status == "pass"
            worst = max(worst, r.residual_rel)
    announce(6, worst <= 1e-8,
             f"6|W+-|^2 = R^2 on CP2 and S2xS2: worst residual {worst:.2e}")


def _fd_gamma(chart, point, h=1e-4):
    """4th-order central differences of the metric feeding the Gamma formula."""
    point = np.asarray(point, dtype=float)

    def g_at(x):
        return chart.metric_jets(x, 0)[..., 0]

    dg = np.empty((4, 4, 4))
    for d in range(4):
        e = np.zeros(4)
        e[d] = h
        dg[..., d] = (-g_at(point + 2 * e) + 8 * g_at(point + e)
                      - 8 * g_at(point - e) + g_at(point - 2 * e)) / (12 * h)
    ginv = np.linalg.inv(g_at(point))
    term = (np.einsum("jli->lij", dg) + np.einsum("ilj->lij", dg)
            - np.einsum("ijl->lij", dg))
    return 0.5 * np.einsum("kl,lij->kij", ginv, term)


def _gamma(chart, point):
    """Gamma^k_ij at a point through the pipeline's stages: metric jets of
    order 2, g^-1 = E E^T at order 1 and christoffel_jets."""
    g = chart.metric_jets(point, 2)
    ginv = charts.inverse_metric_jets(charts.orthonormal_frame(g, 1).e, 1)
    return charts.christoffel_jets(g, ginv, 2)[..., 0]


def test_criterion_7_oracle_cross_checks(full_run, catalog):
    # finite-difference oracle for Christoffels and curvature
    chart = catalog["schwarzschild"]
    point = np.array([5.0, 1.2, 0.8, 0.3])
    gam = _gamma(chart, point)
    fd = _fd_gamma(chart, point)
    gamma_err = np.abs(gam - fd).max() / max(np.abs(fd).max(), 1.0)
    cp = curvature_at(chart, point, depth=0)
    e_inv = np.linalg.inv(cp.frame)
    riem_coord = np.einsum("abcd,ai,bj,ck,dl->ijkl", cp.riem, e_inv, e_inv,
                           e_inv, e_inv)
    h = 1e-4
    dgam = np.empty((4, 4, 4, 4))
    for d in range(4):
        e = np.zeros(4)
        e[d] = h
        dgam[..., d] = (
            -_gamma(chart, point + 2 * e) + 8 * _gamma(chart, point + e)
            - 8 * _gamma(chart, point - e) + _gamma(chart, point - 2 * e)
        ) / (12 * h)
    rup = (np.einsum("mljk->mjkl", dgam) - np.einsum("mkjl->mjkl", dgam)
           + np.einsum("mkn,nlj->mjkl", gam, gam)
           - np.einsum("mln,nkj->mjkl", gam, gam))
    g0 = chart.metric_jets(point, 0)[..., 0]
    riem_fd = np.einsum("im,mjkl->ijkl", g0, rup)
    riem_err = np.abs(riem_coord - riem_fd).max() / max(np.abs(riem_fd).max(),
                                                        1e-3)
    # the two Cotton routes agree on the negative control
    worst_cotton = max(r.residual_rel for r in rows(
        full_run, identity="cotton.defs-agree",
        manifold="perturbed-schwarzschild"))
    announce(7, gamma_err <= 1e-6 and riem_err <= 1e-6
             and worst_cotton <= 1e-8,
             f"FD oracle: Gamma {gamma_err:.2e}, Riemann {riem_err:.2e}; "
             f"Cotton route agreement {worst_cotton:.2e}")


def test_criterion_8_determinism_and_scale_invariance(tmp_path):
    args = ["verify", "--manifolds", "schwarzschild,s2xs2-unequal",
            "--identities", "all", "--points", "3", "--seed", "13",
            "--deterministic", "--format", "json"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(f1)]) == 0
    assert cli.main(args + ["--out", str(f2)]) == 0
    identical = f1.read_bytes() == f2.read_bytes()

    cfg = RunConfig(manifolds=("all",), identities=("all",),
                    points_per_manifold=3, seed=13, deterministic=True)
    base = charts.build_catalog()
    r1 = run_suite(cfg, catalog=base)
    scaled = {}
    for name, ch in base.items():
        sc = ch.scaled(4.0)
        sc.name = name
        scaled[name] = sc
    r2 = run_suite(cfg, catalog=scaled)
    drift = 0.0
    seen = set()
    for a, b in zip(r1.results, r2.results):
        assert (a.identity_id, a.manifold) == (b.identity_id, b.manifold)
        assert a.status == b.status
        drift = max(drift, abs(a.residual_rel - b.residual_rel))
        seen.add(a.identity_id)
    assert seen == set(REGISTRY)
    announce(8, identical and drift <= 1e-9,
             f"byte-identical deterministic reports; residual_rel drift "
             f"under g -> 4g is {drift:.2e} over every identity")


REQUIRED_ANCHORS = (
    "Weyl", "def_cot", "CottonSym", "CottonTraces", "def_Cotton_comp_Weyl",
    "harmall", "RiemannEinstein",
    "fake2ndBianchiWeyl", "lem_GradWeylNorm", "SecondDerivWeylusingRiem",
    "ThirdDerivWeylusingRiem", "lem-comsec", "CommutationWeylKorder",
    "conv", "dec", "eq-derw", "quaternionic-structure", "WeylWeylMetric",
    "WWW", "eq-derder", "eq-nqder", "eq-divz", "lem-key1", "eqrhs", "eq-mix",
    "lem-key2",
    "LaplacianOfHarmonicWeyl", "BWHarmonicWeyl", "eq-bw", "nice", "niceself",
    "pro-boch", "pro-boch-k", "pro-boch-k-pm",
    "teo-sbf", "lem-paolo",
    "lem-quart", "prop1", "thm-intbochintro", "cor-d2", "lem-1",
    "pro-imprhess", "thm-gap", "final-proposition",
)


def test_criterion_9_coverage_audit(capsys):
    implemented = {a for s in REGISTRY.values() for a in s.anchors}
    documented = {a for e in OUT_OF_SCOPE for a in e.anchors}
    missing = [a for a in REQUIRED_ANCHORS
               if a not in implemented | documented]
    assert cli.main(["list", "identities"]) == 0
    listing = capsys.readouterr().out
    for anchor in REQUIRED_ANCHORS:
        assert anchor in listing, anchor
    assert "out-of-scope(global)" in listing
    announce(9, not missing,
             f"registry covers all {len(REQUIRED_ANCHORS)} anchors "
             f"(implemented or out-of-scope); missing: {missing or 'none'}")


def test_full_run_exit_code(full_run):
    assert full_run.exit_code == 0
    assert full_run.summary["ok"]
