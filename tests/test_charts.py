import math
from dataclasses import replace

import numpy as np
import pytest

import coordinate_reference as ref
from weylforge import algebra as alg
from weylforge import charts, jets
from weylforge.charts import (CapacityError, DomainError, MetricChart,
                              curvature_at, scalar_laplacian)
from weylforge.identities import PointData


def _inverse(g, order):
    """g^-1 as curvature_at builds it: E E^T from the frame at `order`."""
    return charts.inverse_metric_jets(charts.orthonormal_frame(g, order).e,
                                      order)


def _nabla_w(cp, k=0):
    """Frame components of nabla^k W at a point (k = 0 is W)."""
    return PointData(cp).sector(None).stack(k)


def _christoffel(chart, point, order):
    """Gamma^k_ij as jets of order `order`-1 at a point, from metric jets
    of order `order`."""
    g = chart.metric_jets(point, order)
    return charts.christoffel_jets(g, _inverse(g, order - 1), order)


def test_flat_chart_is_flat(catalog):
    cp = curvature_at(catalog["flat-r4"], [0.3, -0.2, 0.1, 0.5], depth=2)
    assert np.abs(cp.riem).max() == 0.0
    assert np.abs(_nabla_w(cp, 2)).max() == 0.0
    gam = _christoffel(catalog["flat-r4"], [0.1, 0.2, 0.3, 0.4], 3)
    assert np.abs(gam).max() == 0.0


def test_round_sphere_constant_curvature(catalog):
    cp = curvature_at(catalog["s4-round"], [0.1, -0.15, 0.2, 0.05], depth=1)
    assert cp.scalar == pytest.approx(12.0, rel=1e-12)
    assert np.abs(cp.ric - 3.0 * np.eye(4)).max() < 1e-12
    assert np.abs(_nabla_w(cp)).max() < 1e-13
    assert np.abs(_nabla_w(cp, 1)).max() < 1e-12
    # Riemann equals (R/24) g ^ g with W = 0 in the orthonormal frame, where
    # (g ^ g)_ijkl = 2 (g_ik g_jl - g_il g_jk)
    eye = np.eye(4)
    want = (np.einsum("ik,jl->ijkl", eye, eye)
            - np.einsum("il,jk->ijkl", eye, eye)) * (cp.scalar / 12.0)
    assert np.abs(cp.riem - want).max() < 1e-11


def test_hyperbolic_space(catalog):
    cp = curvature_at(catalog["h4-poincare"], [0.1, -0.1, 0.2, 0.05], depth=1)
    assert cp.scalar == pytest.approx(-12.0, rel=1e-12)
    assert np.abs(_nabla_w(cp)).max() < 1e-13


def test_product_sphere_christoffel_hand_formula(catalog):
    """Gamma^theta_{phi phi} = -sin(theta) cos(theta) on a round 2-sphere."""
    theta = math.pi / 3.0
    gam = _christoffel(catalog["s2xs2-equal"], [theta, 1.0, 1.2, 0.8],
                       3)[..., 0]
    want = -math.sin(theta) * math.cos(theta)
    assert gam[0, 1, 1] == pytest.approx(want, rel=1e-12)
    assert np.abs(gam[0, 0, :]).max() < 1e-14


def test_schwarzschild_ricci_flat(catalog):
    cp = curvature_at(catalog["schwarzschild"], [4.0, 1.2, 0.8, 0.3], depth=1)
    assert np.abs(cp.ric).max() <= 1e-9 * np.linalg.norm(cp.riem)
    assert (_nabla_w(cp, 1) ** 2).sum() > 1e-4


def test_schwarzschild_sector_spectra_match(cp_schwarzschild):
    """Euclidean Schwarzschild: equal eigenvalue triples in both sectors."""
    blocks = alg.lambda_split(cp_schwarzschild.riem,
                              orientation=cp_schwarzschild.orientation)
    ev_p = np.sort(np.linalg.eigvalsh(blocks.w_plus))
    ev_m = np.sort(np.linalg.eigvalsh(blocks.w_minus))
    assert np.abs(ev_p - ev_m).max() <= 1e-10 * np.abs(ev_p).max()
    # type-D spectrum (-phi, -phi, 2 phi) with phi = m / r^3
    phi = 1.0 / 4.0 ** 3
    assert np.abs(ev_p - np.array([-phi, -phi, 2 * phi])).max() < 1e-12


def test_product_spheres_parallel_weyl(catalog):
    cp = curvature_at(catalog["s2xs2-equal"], [0.9, 1.1, 1.3, 0.7], depth=1)
    assert np.abs(cp.ric - np.eye(4)).max() < 1e-12        # Ric = g
    assert np.linalg.norm(_nabla_w(cp, 1)) <= \
        1e-9 * np.linalg.norm(_nabla_w(cp))


def test_unequal_spheres_cotton_vanishes(catalog):
    """Parallel Ricci makes the Cotton tensor vanish without Einstein."""
    cp = curvature_at(catalog["s2xs2-unequal"], [1.0, 0.9, 1.2, 1.4], depth=1)
    assert np.abs(cp.ric_deriv).max() < 1e-13              # parallel Ricci
    assert np.abs(cp.cotton).max() < 1e-13
    ric0 = cp.ric - cp.scalar / 4.0 * np.eye(4)
    assert np.abs(ric0).max() > 0.1                        # not Einstein


def test_cp2_fubini_study(cp_cp2):
    cp = cp_cp2
    assert np.abs(cp.ric - (cp.scalar / 4.0) * np.eye(4)).max() < 1e-10
    blocks = alg.lambda_split(cp.riem, orientation=cp.orientation)
    assert np.abs(blocks.w_minus).max() <= 1e-10
    ev = np.sort(np.linalg.eigvalsh(blocks.w_plus))
    want = np.array([-cp.scalar / 12.0, -cp.scalar / 12.0, cp.scalar / 6.0])
    assert np.abs(ev - want).max() <= 1e-9 * cp.scalar
    assert 6.0 * (_nabla_w(cp) ** 2).sum() == pytest.approx(cp.scalar ** 2,
                                                            rel=1e-10)
    # reversed orientation mirrors the split
    mirrored = alg.lambda_split(cp.riem, orientation=-cp.orientation)
    assert np.abs(mirrored.w_plus).max() <= 1e-10
    assert np.abs(np.sort(np.linalg.eigvalsh(mirrored.w_minus)) - ev).max() \
        <= 1e-10 * cp.scalar


def test_conformally_flat_weyl_vanishes(catalog, rng):
    chart = catalog["conformally-flat"]
    for _ in range(5):
        pt = chart.domain[:, 0] + rng.random(4) * (chart.domain[:, 1]
                                                   - chart.domain[:, 0])
        cp = curvature_at(chart, pt, depth=0)
        assert np.linalg.norm(_nabla_w(cp)) <= 1e-9 * np.linalg.norm(cp.riem)


def test_conformal_family_any_factor():
    custom = {(2, 0, 0, 0): 0.08, (0, 1, 0, 1): -0.06, (0, 0, 3, 0): 0.03}
    cat = charts.build_catalog(conformal_coeffs=custom)
    cp = curvature_at(cat["conformally-flat"], [0.2, 0.1, -0.3, 0.25],
                      depth=0)
    assert np.linalg.norm(_nabla_w(cp)) <= 1e-9 * np.linalg.norm(cp.riem)


# -- finite-difference oracles ------------------------------------------------

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


def test_christoffel_matches_finite_differences(catalog):
    chart = catalog["schwarzschild"]
    point = [5.0, 1.2, 0.8, 0.3]
    gam = _christoffel(chart, point, 2)[..., 0]
    fd = _fd_gamma(chart, point)
    scale = max(np.abs(fd).max(), 1.0)
    assert np.abs(gam - fd).max() <= 1e-6 * scale


def test_riemann_matches_finite_differences(catalog):
    """Curvature from FD-differentiated Christoffels (coordinate components)."""
    chart = catalog["schwarzschild"]
    point = np.array([5.0, 1.2, 0.8, 0.3])
    h = 1e-4
    dgam = np.empty((4, 4, 4, 4))
    for d in range(4):
        e = np.zeros(4)
        e[d] = h
        dgam[..., d] = (
            -_christoffel(chart, point + 2 * e, 2)[..., 0]
            + 8 * _christoffel(chart, point + e, 2)[..., 0]
            - 8 * _christoffel(chart, point - e, 2)[..., 0]
            + _christoffel(chart, point - 2 * e, 2)[..., 0]) / (12 * h)
    gam = _christoffel(chart, point, 2)[..., 0]
    rup = (np.einsum("mljk->mjkl", dgam) - np.einsum("mkjl->mjkl", dgam)
           + np.einsum("mkn,nlj->mjkl", gam, gam)
           - np.einsum("mln,nkj->mjkl", gam, gam))
    g0 = chart.metric_jets(point, 0)[..., 0]
    riem_fd = np.einsum("im,mjkl->ijkl", g0, rup)
    cp = curvature_at(chart, point, depth=0)
    riem_coord = np.einsum("abcd,ai,bj,ck,dl->ijkl", cp.riem,
                           np.linalg.inv(cp.frame), np.linalg.inv(cp.frame),
                           np.linalg.inv(cp.frame), np.linalg.inv(cp.frame))
    scale = max(np.abs(riem_fd).max(), 1e-3)
    assert np.abs(riem_coord - riem_fd).max() <= 1e-6 * scale


# -- jet-level inverse and Riemann on every catalog chart --------------------

CATALOG_POINTS = [(name, t) for name in charts.build_catalog()
                  for t in (0.3, 0.85)]


def _catalog_point(chart, t):
    lo, hi = chart.domain[:, 0], chart.domain[:, 1]
    return lo + t * (hi - lo) + 0.05 * (hi - lo) * np.array([1, -1, 2, -2])


@pytest.mark.parametrize("name,t", CATALOG_POINTS)
def test_inverse_metric_jets_is_the_jet_inverse(catalog, name, t):
    """g g^-1 = 1 as order-6 jets, relative to the sum of the magnitudes of
    the products that cancel."""
    order = 6
    g = catalog[name].metric_jets(_catalog_point(catalog[name], t), order)
    ginv = _inverse(g, order)
    prod = jets.mul_coeffs(g[:, :, None], ginv[None], order, order,
                           order).sum(axis=1)
    scale = jets.mul_coeffs(np.abs(g)[:, :, None], np.abs(ginv)[None],
                            order, order, order).sum(axis=1).max()
    ident = np.zeros_like(prod)
    ident[..., 0] = np.eye(4)
    assert np.abs(prod - ident).max() <= 1e-13 * scale


def _neumann_term_magnitudes(g, order):
    """The Neumann series of ref.inverse_metric_jets with every factor
    replaced by its magnitude: the summed magnitudes of its terms."""
    g0inv = np.abs(np.linalg.inv(g[..., 0]))
    s = np.einsum("ik,kjc->ijc", g0inv, np.abs(g[..., :jets.n_coeffs(order)]))
    s[..., 0] = 0.0
    x = np.zeros_like(s)
    for _ in range(order + 1):
        x = ref._jet_matmul(s, x, order, order, order)
        x[..., 0] += np.eye(4)
    return np.einsum("ikc,kj->ijc", x, g0inv)


@pytest.mark.parametrize("name,t", CATALOG_POINTS)
def test_inverse_metric_jets_matches_the_neumann_series(catalog, name, t):
    """E E^T equals the coordinate Neumann series as order-6 jets, relative
    to the summed magnitudes of the series' terms."""
    order = 6
    g = catalog[name].metric_jets(_catalog_point(catalog[name], t), order)
    want = ref.inverse_metric_jets(g, order)
    scale = _neumann_term_magnitudes(g, order).max()
    assert np.abs(_inverse(g, order) - want).max() <= 1e-14 * scale


@pytest.mark.parametrize("name,t", CATALOG_POINTS)
def test_trimmed_inverse_and_christoffel_are_the_full_order_prefix(catalog,
                                                                   name, t):
    """g^-1 and Gamma at order K-2, as curvature_at builds them, equal the
    degree <= K-2 prefix of the full-order jets (Gamma on all 16 index
    pairs), relative to the summed magnitudes of the terms of E E^T and of
    g^kl Gamma_{l,ij}."""
    order = 6
    n = jets.n_coeffs(order - 2)
    g = catalog[name].metric_jets(_catalog_point(catalog[name], t), order)
    full = _inverse(g, order)
    ginv = _inverse(g, order - 2)
    assert ginv.shape == (4, 4, n)
    e = np.abs(charts.orthonormal_frame(g, order).e)
    scale = jets.mul_coeffs(e[:, :, None], np.swapaxes(e, 0, 1)[None], order,
                            order, order).sum(axis=1).max()
    assert np.abs(ginv - full[..., :n]).max() <= 1e-14 * scale

    full = ref.christoffel_jets(g, full, order)
    gamma = charts.christoffel_jets(g, ginv, order - 1)
    assert gamma.shape == (4, 4, 4, n)
    scale = jets.mul_coeffs(np.abs(ginv)[:, :, None, None],
                            np.abs(charts.first_kind_jets(g, order - 1))[None],
                            order - 2, order - 2, order - 2).sum(axis=1).max()
    assert np.abs(gamma - full[..., :n]).max() <= 1e-14 * scale


def _riemann_mixed_reference(g, gamma, order):
    """R_ijkl = g_im R^m_jkl with
    R^m_jkl = d_k Gamma^m_lj - d_l Gamma^m_kj
              + Gamma^m_kn Gamma^n_lj - Gamma^m_ln Gamma^n_kj,
    and the largest magnitude among its terms."""
    og, oo = order - 1, order - 2
    dgam = np.stack([jets.partial_coeffs(gamma, og, d) for d in range(4)],
                    axis=-2)
    t1 = np.einsum("mljkc->mjklc", dgam)
    t2 = np.einsum("mkjlc->mjklc", dgam)
    q = jets.mul_coeffs(gamma[:, :, :, None, None, :],
                        gamma[None, None, :, :, :, :], og, og, oo).sum(axis=2)
    rup = (t1 - t2 + np.einsum("mkljc->mjklc", q)
           - np.einsum("mlkjc->mjklc", q))
    low = jets.mul_coeffs(g[:, :, None, None, None, :],
                          rup[None], order, oo, oo).sum(axis=1)
    terms = max(np.abs(t1).max(), np.abs(q).max())
    return low, terms * np.abs(g).max()


@pytest.mark.parametrize("name,t", CATALOG_POINTS)
def test_riemann_jets_matches_mixed_index_formula(catalog, name, t):
    """The first-kind form agrees with lowering R^m_jkl, as order-4 jets,
    relative to the largest term of the mixed-index formula: from Gamma at
    order K-1, and at order K-2 as curvature_at builds it."""
    order = 6
    g = catalog[name].metric_jets(_catalog_point(catalog[name], t), order)
    gamma = charts.christoffel_jets(g, _inverse(g, order), order)
    want, scale = _riemann_mixed_reference(g, gamma, order)
    trimmed = charts.christoffel_jets(g, _inverse(g, order - 2), order - 1)
    for gam in (gamma, trimmed):
        riem = charts.riemann_jets(g, gam, order)
        assert riem.shape == want.shape
        assert np.abs(riem - want).max() <= 1e-13 * scale


# Coefficient pairs per point that each coordinate stage of an order-6
# curvature_at multiplies: g^-1 and Gamma at order 4, g^-1 = E E^T on its
# pairs i <= j past E's zero triangle (20 order-4 products), the symmetric
# index pairs of Gamma, Riemann's quadratic terms on the pairs A <= B of symmetric
# pairs (220 order-4 products), the coframe's triangular products, and the
# Weyl stage's 21 compound minors, T = R C past C's zero triangle and R_f on
# a <= b (224 order-4 products).  A stage that widens an order or an index
# set again exceeds its budget.
STAGE_BUDGETS = {"inverse_metric_jets": 9_900, "christoffel_jets": 79_200,
                 "riemann_jets": 108_900, "orthonormal_frame": 81_600,
                 "weyl_jets": 110_880}


def test_coordinate_stage_work_budget(catalog, monkeypatch):
    """Count each jets.mul_coeffs call's coefficient pairs (its elements
    times the summed lengths of its degree-pair tables) toward the stage
    open at the time."""
    counts = dict.fromkeys(STAGE_BUDGETS, 0)
    open_stage = []
    mul = jets.mul_coeffs

    def counting(a, b, order_a, order_b, order_out):
        out = mul(a, b, order_a, order_b, order_out)
        if open_stage:
            table = jets._product_table(order_a, order_b, order_out)
            per_elem = sum(len(ia) for _, _, ia, _, _ in table)
            counts[open_stage[-1]] += out.size // out.shape[-1] * per_elem
        return out

    def staged(name, fn):
        def run(*args, **kwargs):
            open_stage.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                open_stage.pop()
        return run

    monkeypatch.setattr(jets, "mul_coeffs", counting)
    monkeypatch.setattr(charts, "mul_coeffs", counting)
    for name in STAGE_BUDGETS:
        monkeypatch.setattr(charts, name, staged(name, getattr(charts, name)))
    cp = curvature_at(catalog["schwarzschild"], [4.0, 1.2, 0.8, 0.3], depth=2,
                      laplacians=charts.LAPLACIAN_FIELDS)
    assert cp.jet_order == 6
    for name, budget in STAGE_BUDGETS.items():
        assert 0 < counts[name] <= budget, (name, counts[name])


# -- scalar Laplacians ---------------------------------------------------------

def test_laplacian_constant_norm_on_homogeneous_space(catalog):
    lap = scalar_laplacian(catalog["s2xs2-equal"], [0.9, 1.1, 1.3, 0.7],
                           "norm2_w")
    cp = curvature_at(catalog["s2xs2-equal"], [0.9, 1.1, 1.3, 0.7], depth=0)
    w4 = (_nabla_w(cp) ** 2).sum() ** 2
    assert abs(lap) <= 1e-8 * w4


def test_laplacian_product_rule_oracle(catalog):
    """Delta |W|^2 = 2(|nabla W|^2 + W . Delta W) from independent parts."""
    chart = catalog["schwarzschild"]
    point = [3.0, 1.2, 0.8, 0.3]
    lap = scalar_laplacian(chart, point, "norm2_w")
    cp = curvature_at(chart, point, depth=2)
    lap_w = np.einsum("ijklss->ijkl", _nabla_w(cp, 2))
    assembled = 2.0 * ((_nabla_w(cp, 1) ** 2).sum()
                       + np.einsum("ijkl,ijkl->", _nabla_w(cp), lap_w))
    assert lap == pytest.approx(assembled, rel=1e-8)


def test_scalar_laplacian_validates_field_name(catalog):
    with pytest.raises(ValueError):
        scalar_laplacian(catalog["flat-r4"], [0, 0, 0, 0], "norm2_w3")


# -- invariants and error paths ------------------------------------------------

def test_second_bianchi_riemann_on_einstein_entries(catalog):
    for name in ("s4-round", "schwarzschild", "schwarzschild-de-sitter"):
        chart = catalog[name]
        pt = chart.domain.mean(axis=1)
        cp = curvature_at(chart, pt, depth=1)
        div_riem = np.einsum("tijkt->ijk", cp.nabla_riem)
        scale = max(np.linalg.norm(cp.nabla_riem),
                    np.linalg.norm(cp.riem) ** 1.5)
        assert np.linalg.norm(div_riem) <= 1e-9 * scale


def test_scalar_hessian_symmetry(catalog):
    """Covariant Hessian of a scalar jet field is symmetric."""
    chart = catalog["schwarzschild"]
    g = chart.metric_jets([4.0, 1.2, 0.8, 0.3], 4)
    ginv = _inverse(g, 4)
    gamma = charts.christoffel_jets(g, ginv, 4)
    riem = charts.riemann_jets(g, gamma, 4)
    weyl = charts.weyl_jets(riem, charts.orthonormal_frame(g, 2), 2)
    f = charts.norm_sq_field(weyl, 2)
    grad = [jets.partial_coeffs(f, 2, p) for p in range(4)]
    hess = np.empty((4, 4))
    for p in range(4):
        for q in range(4):
            hess[p, q] = jets.partial_coeffs(grad[p], 1, q)[0] \
                - np.einsum("r,r->", gamma[:, p, q, 0], [g[0] for g in grad])
    assert np.abs(hess - hess.T).max() <= 1e-11 * max(np.abs(hess).max(), 1.0)


@pytest.mark.parametrize("order_f", [2, 3])
def test_scalar_laplacian_reads_the_partial_derivatives(rng, order_f):
    """d_p f and d_p d_q f read off the degree-1 and degree-2 coefficients
    give the Laplacian of the partial-derivative form bit for bit."""
    f = rng.normal(size=jets.n_coeffs(order_f))
    x = rng.normal(size=(4, 4))
    ginv0 = x @ x.T + 4.0 * np.eye(4)
    gamma0 = rng.normal(size=(4, 4, 4))
    firsts = [jets.partial_coeffs(f, order_f, p) for p in range(4)]
    grad = np.array([d[0] for d in firsts])
    hess = np.array([[jets.partial_coeffs(d, order_f - 1, q)[0]
                      for q in range(4)] for d in firsts])
    corr = np.einsum("rpq,r->pq", gamma0, grad)
    want = float(np.einsum("pq,pq->", ginv0, hess - corr))
    assert charts.scalar_jet_laplacian(f, order_f, ginv0, gamma0) == want


def test_frame_invariance_of_norms(cp_schwarzschild, rng):
    """|W|^2, |nabla W|^2, |nabla^2 W|^2 agree across orthonormal frames."""
    cp = cp_schwarzschild
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    for arr in (_nabla_w(cp), _nabla_w(cp, 1), _nabla_w(cp, 2)):
        rot = charts.to_frame(arr, q)  # refine the frame by a rotation
        n1, n2 = (arr ** 2).sum(), (rot ** 2).sum()
        assert abs(n1 - n2) <= 1e-11 * max(n1, 1e-30)


def test_curvature_point_invariants(cp_sds):
    cp = cp_sds
    assert np.abs(cp.frame.T @ cp.chart.metric_jets(cp.point, 0)[..., 0]
                  @ cp.frame - np.eye(4)).max() < 1e-12
    assert alg.riemann_symmetry_violation(cp.riem) \
        <= 1e-10 * np.abs(cp.riem).max()
    assert cp.scalar == pytest.approx(np.trace(cp.ric), rel=1e-10)


def test_jet_order_auto_selection():
    assert charts.required_jet_order(2) == 4
    assert charts.required_jet_order(0, ("w",)) == 4
    assert charts.required_jet_order(1, ("dw",)) == 5
    assert charts.required_jet_order(4, ("d2w",)) == 6



# -- the jet-order plan and the duality field ---------------------------------

def _weyl_stack(chart, point, order=6):
    """g, g^-1, Gamma, Riemann, Ricci, the coordinate stack [W, nabla W] and
    the W+- blocks [W, nabla W] from metric jets."""
    g, ginv, gamma, riem, coord = ref.weyl_stack(chart, point, order, 1)
    ric, _ = charts.ricci_jets(riem, ginv, order - 2)
    cof = charts.orthonormal_frame(g, order - 2, chart.orientation)
    weyl = charts.weyl_jets(riem, cof, order - 2)
    dweyl = charts.covariant_derivative(
        weyl, order - 2, cof.e, cof.conn,
        (None, cof.sector_map, cof.sector_map))
    return g, ginv, gamma, riem, ric, coord, [weyl, dweyl]


def _duality_cross_reference(t, g, ginv, order, orientation):
    """<T, *T> with the full jet-valued eps_ijkl, contracted as a product."""
    rank = t.ndim - 1
    nc = jets.n_coeffs(order)
    eps = np.multiply.outer(ref._PERM4,
                            charts.epsilon_jets(g, order, orientation))
    up = charts.raise_all_indices(t, ginv, order)
    t2 = t[..., :nc]
    op = jets.mul_operator(ginv[..., :nc], order, order, order)
    for a in range(2):
        t2 = jets.contract_slot(t2, op, a)
    eps_w = eps.reshape((4, 4, 4, 4) + (1,) * (rank - 2) + (nc,))
    star = 0.5 * jets.mul_coeffs(eps_w, t2[None, None], order, order,
                                 order).sum(axis=(2, 3))
    cross = jets.mul_coeffs(up, star, order, order, order)
    return cross.sum(axis=tuple(range(rank)))


PLAN_POINTS = [("generic", [0.2, -0.1, 0.3, 0.15]),
               ("schwarzschild", [4.0, 1.2, 0.8, 0.3])]


@pytest.mark.parametrize("name,point", PLAN_POINTS)
def test_laplacian_fields_at_order_2_are_the_full_order_prefix(catalog, name,
                                                              point):
    """Degree <= 2 of a product needs only degree <= 2 of its factors."""
    chart = ref.GENERIC if name == "generic" else catalog[name]
    *_, stack = _weyl_stack(chart, point)
    nc2 = jets.n_coeffs(2)
    for k, t in enumerate(stack):
        full = 4 - k
        pairs = [(charts.norm_sq_field(t, 2), charts.norm_sq_field(t, full)),
                 (charts.duality_cross_field(t, 2),
                  charts.duality_cross_field(t, full))]
        for low, high in pairs:
            assert low.shape == (nc2,)
            assert np.abs(low - high[:nc2]).max() \
                <= 1e-14 * np.abs(high[:nc2]).max()


@pytest.mark.parametrize("orientation", [1, -1])
def test_duality_cross_matches_full_epsilon_jets(orientation):
    """The block form |T+|^2 - |T-|^2 against the coordinate <T, *T> with
    the full jet-valued eps_ijkl, at every order the stack has."""
    chart = replace(ref.GENERIC, orientation=orientation)
    g, ginv, _, _, _, coord, stack = _weyl_stack(chart,
                                                 [0.2, -0.1, 0.3, 0.15])
    for k, (t, c) in enumerate(zip(stack, coord)):
        order = 4 - k
        got = charts.duality_cross_field(t, order)
        want = _duality_cross_reference(c, g, ginv, order, orientation)
        norm = ref.norm_sq_field(c, ginv, order)
        assert abs(want[0]) > 1e-3 * norm[0]     # W+ and W- differ here
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_epsilon_jets_is_the_signed_root_of_det_g(catalog):
    chart = catalog["cp2-fubini-study"]
    g = chart.metric_jets([0.2, -0.1, 0.15, 0.3], 3)
    eps = charts.epsilon_jets(g, 3, -1)
    assert eps.shape == (jets.n_coeffs(3),)
    assert eps[0] == pytest.approx(-math.sqrt(np.linalg.det(g[..., 0])),
                                   rel=1e-14)


@pytest.mark.parametrize("name,point", PLAN_POINTS)
def test_nabla_riem_ric_at_degree_0_match_full_order(catalog, name, point):
    """An order-0 Gamma and order-1 inputs give the same degree-0 values."""
    chart = ref.GENERIC if name == "generic" else catalog[name]
    _, _, gamma, riem, ric, _, _ = _weyl_stack(chart, point)
    lin = jets.n_coeffs(1)
    conn = np.swapaxes(gamma, 1, 2).reshape(16, 4, -1)  # Gamma^m_ci
    coords = np.zeros((4, 4, jets.n_coeffs(3)))
    coords[..., 0] = np.eye(4)
    for t in (riem, ric):
        slots = (charts._COORDINATE_MAP,) * (t.ndim - 1)
        low = charts.covariant_derivative(t[..., :lin], 1, coords,
                                          conn[..., :1], slots)
        high = charts.covariant_derivative(t, 4, coords, conn, slots)
        assert low.shape[-1] == 1
        assert np.array_equal(low[..., 0], high[..., 0])


def test_capacity_errors(catalog):
    chart = catalog["flat-r4"]
    with pytest.raises(CapacityError):
        curvature_at(chart, [0, 0, 0, 0], depth=3, jet_order=4)
    with pytest.raises(CapacityError):
        curvature_at(chart, [0, 0, 0, 0], depth=0, laplacians=("d2w",))
    with pytest.raises(CapacityError):
        curvature_at(chart, [0, 0, 0, 0], depth=7)


def test_domain_errors(catalog):
    with pytest.raises(DomainError):
        curvature_at(catalog["schwarzschild"], [2.0, 1.0, 1.0, 0.5], depth=0)
    indefinite = MetricChart(
        name="bad", coordinate_names=("a", "b", "c", "d"),
        domain=np.array([[-1.0, 1.0]] * 4),
        metric_fn=lambda p, order: charts._diag_metric(
            [jets.Jet.constant(v, order) for v in (1.0, -1.0, 1.0, 1.0)]))
    with pytest.raises(DomainError):
        curvature_at(indefinite, [0, 0, 0, 0], depth=0)

    # g = diag(1, x1^2, 1, 1) is singular at x1 = 0, and flat elsewhere
    # (polar coordinates on a plane, times a plane)
    def degenerate(p, order):
        x1 = jets.Jet.variable(1, p[0], order)
        one = jets.Jet.constant(1.0, order)
        return charts._diag_metric([one, x1 * x1, one, one])

    singular = replace(indefinite, name="singular", metric_fn=degenerate)
    with pytest.raises(DomainError, match="metric not positive definite"):
        curvature_at(singular, [0.0, 0.2, 0.3, 0.4], depth=1)
    cp = curvature_at(singular, [0.5, 0.2, 0.3, 0.4], depth=1)
    assert np.abs(cp.riem).max() < 1e-12


def test_scaled_chart_properties(catalog):
    scaled = catalog["s4-round"].scaled(4.0)
    cp = curvature_at(scaled, [0.1, -0.15, 0.2, 0.05], depth=0)
    assert cp.scalar == pytest.approx(3.0, rel=1e-12)   # R scales as 1/c^2
    assert scaled.properties.einstein == pytest.approx(0.75)
