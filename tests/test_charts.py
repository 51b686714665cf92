import math

import numpy as np
import pytest

from weylforge import algebra as alg
from weylforge import charts, jets
from weylforge.charts import (CapacityError, DomainError, MetricChart,
                              christoffel, curvature_at, scalar_laplacian)
from weylforge.tensors import DenseTensor, kulkarni_nomizu


def test_flat_chart_is_flat(catalog):
    cp = curvature_at(catalog["flat-r4"], [0.3, -0.2, 0.1, 0.5], depth=2)
    assert np.abs(cp.riem).max() == 0.0
    assert np.abs(cp.nabla_w[2]).max() == 0.0
    gam = christoffel(catalog["flat-r4"], [0.1, 0.2, 0.3, 0.4], 3)
    assert np.abs(gam.data).max() == 0.0


def test_round_sphere_constant_curvature(catalog):
    cp = curvature_at(catalog["s4-round"], [0.1, -0.15, 0.2, 0.05], depth=1)
    assert cp.scalar == pytest.approx(12.0, rel=1e-12)
    assert np.abs(cp.ric - 3.0 * np.eye(4)).max() < 1e-12
    assert np.abs(cp.weyl).max() < 1e-13
    assert np.abs(cp.nabla_w[1]).max() < 1e-12
    # Riemann equals (R/24) g ^ g with W = 0 in the orthonormal frame
    want = kulkarni_nomizu(DenseTensor.delta(), DenseTensor.delta()).data \
        * (cp.scalar / 24.0)
    assert np.abs(cp.riem - want).max() < 1e-11


def test_hyperbolic_space(catalog):
    cp = curvature_at(catalog["h4-poincare"], [0.1, -0.1, 0.2, 0.05], depth=1)
    assert cp.scalar == pytest.approx(-12.0, rel=1e-12)
    assert np.abs(cp.weyl).max() < 1e-13


def test_product_sphere_christoffel_hand_formula(catalog):
    """Gamma^theta_{phi phi} = -sin(theta) cos(theta) on a round 2-sphere."""
    theta = math.pi / 3.0
    gam = christoffel(catalog["s2xs2-equal"], [theta, 1.0, 1.2, 0.8], 3)
    want = -math.sin(theta) * math.cos(theta)
    assert gam.values()[0, 1, 1] == pytest.approx(want, rel=1e-12)
    assert np.abs(gam.values()[0, 0, :]).max() < 1e-14


def test_schwarzschild_ricci_flat(catalog):
    cp = curvature_at(catalog["schwarzschild"], [4.0, 1.2, 0.8, 0.3], depth=1)
    assert np.abs(cp.ric).max() <= 1e-9 * np.linalg.norm(cp.riem)
    assert (cp.nabla_w[1] ** 2).sum() > 1e-4


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
    assert np.linalg.norm(cp.nabla_w[1]) <= 1e-9 * np.linalg.norm(cp.weyl)


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
    assert 6.0 * (cp.weyl ** 2).sum() == pytest.approx(cp.scalar ** 2,
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
        assert np.linalg.norm(cp.weyl) <= 1e-9 * np.linalg.norm(cp.riem)


def test_conformal_family_any_factor():
    custom = {(2, 0, 0, 0): 0.08, (0, 1, 0, 1): -0.06, (0, 0, 3, 0): 0.03}
    cat = charts.build_catalog(conformal_coeffs=custom)
    cp = curvature_at(cat["conformally-flat"], [0.2, 0.1, -0.3, 0.25],
                      depth=0)
    assert np.linalg.norm(cp.weyl) <= 1e-9 * np.linalg.norm(cp.riem)


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
    gam = christoffel(chart, point, 2).values()
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
            -christoffel(chart, point + 2 * e, 2).values()
            + 8 * christoffel(chart, point + e, 2).values()
            - 8 * christoffel(chart, point - e, 2).values()
            + christoffel(chart, point - 2 * e, 2).values()) / (12 * h)
    gam = christoffel(chart, point, 2).values()
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


# -- scalar Laplacians ---------------------------------------------------------

def test_laplacian_constant_norm_on_homogeneous_space(catalog):
    lap = scalar_laplacian(catalog["s2xs2-equal"], [0.9, 1.1, 1.3, 0.7],
                           "norm2_w")
    cp = curvature_at(catalog["s2xs2-equal"], [0.9, 1.1, 1.3, 0.7], depth=0)
    w4 = (cp.weyl ** 2).sum() ** 2
    assert abs(lap) <= 1e-8 * w4


def test_laplacian_product_rule_oracle(catalog):
    """Delta |W|^2 = 2(|nabla W|^2 + W . Delta W) from independent parts."""
    chart = catalog["schwarzschild"]
    point = [3.0, 1.2, 0.8, 0.3]
    lap = scalar_laplacian(chart, point, "norm2_w")
    cp = curvature_at(chart, point, depth=2)
    lap_w = np.einsum("ijklss->ijkl", cp.nabla_w[2])
    assembled = 2.0 * ((cp.nabla_w[1] ** 2).sum()
                       + np.einsum("ijkl,ijkl->", cp.weyl, lap_w))
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
    ginv = charts.inverse_metric_jets(g, 4)
    gamma = charts.christoffel_jets(g, ginv, 4)
    riem = charts.riemann_jets(g, gamma, 4)
    ric, rs = charts.ricci_jets(riem, ginv, 2)
    weyl = charts.weyl_jets(riem, ric, rs, g, 2)
    f = charts.norm_sq_field(weyl, ginv, 2)
    grad = [jets.partial_coeffs(f, 2, p) for p in range(4)]
    hess = np.empty((4, 4))
    for p in range(4):
        for q in range(4):
            hess[p, q] = jets.partial_coeffs(grad[p], 1, q)[0] \
                - np.einsum("r,r->", gamma[:, p, q, 0], [g[0] for g in grad])
    assert np.abs(hess - hess.T).max() <= 1e-11 * max(np.abs(hess).max(), 1.0)


def test_frame_invariance_of_norms(cp_schwarzschild, rng):
    """|W|^2, |nabla W|^2, |nabla^2 W|^2 agree across orthonormal frames."""
    cp = cp_schwarzschild
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    for arr in (cp.weyl, cp.nabla_w[1], cp.nabla_w[2]):
        rot = charts.to_frame(arr, q)  # refine the frame by a rotation
        n1, n2 = (arr ** 2).sum(), (rot ** 2).sum()
        assert abs(n1 - n2) <= 1e-11 * max(n1, 1e-30)


def test_curvature_point_invariants(cp_sds):
    cp = cp_sds
    assert np.abs(cp.frame.T @ cp.chart.metric_jets(cp.point, 0)[..., 0]
                  @ cp.frame - np.eye(4)).max() < 1e-12
    assert DenseTensor(cp.riem, "dddd").riemann_symmetry_violation() \
        <= 1e-10 * np.abs(cp.riem).max()
    assert cp.scalar == pytest.approx(np.trace(cp.ric), rel=1e-10)


def test_jet_order_auto_selection():
    assert charts.required_jet_order(2) == 4
    assert charts.required_jet_order(0, ("w",)) == 4
    assert charts.required_jet_order(1, ("dw",)) == 5
    assert charts.required_jet_order(4, ("d2w_pm",)) == 6



# -- the jet-order plan and the constant-symbol duality field -----------------

def _weyl_stack(chart, point, order=6):
    """g, g^-1, Gamma, Riemann, Ricci and [W, nabla W] from metric jets."""
    g = chart.metric_jets(point, order)
    ginv = charts.inverse_metric_jets(g, order)
    gamma = charts.christoffel_jets(g, ginv, order)
    riem = charts.riemann_jets(g, gamma, order)
    ric, rs = charts.ricci_jets(riem, ginv, order - 2)
    weyl = charts.weyl_jets(riem, ric, rs, g, order - 2)
    dweyl = charts.covariant_derivative(weyl, order - 2, gamma, order - 1)
    return g, ginv, gamma, riem, ric, [weyl, dweyl]


def _duality_cross_reference(t, g, ginv, order, orientation):
    """<T, *T> with the full jet-valued eps_ijkl, contracted as a product."""
    rank = t.ndim - 1
    nc = jets.n_coeffs(order)
    eps = np.multiply.outer(charts._PERM4,
                            charts.epsilon_jets(g, order, orientation))
    up = charts.raise_all_indices(t, ginv, order)
    t2 = t[..., :nc]
    for a in range(2):
        t2 = jets.contract_slot(t2, ginv[..., :nc], a, order, order, order)
    eps_w = eps.reshape((4, 4, 4, 4) + (1,) * (rank - 2) + (nc,))
    star = 0.5 * jets.mul_coeffs(eps_w, t2[None, None], order, order,
                                 order).sum(axis=(2, 3))
    cross = jets.mul_coeffs(up, star, order, order, order)
    return cross.sum(axis=tuple(range(rank)))


def _generic_metric_fn(point, order):
    """delta + quadratic and linear terms: no symmetry, W+ and W- unequal."""
    x = [jets.Jet.variable(i + 1, point[i], order) for i in range(4)]
    g = np.zeros((4, 4, jets.n_coeffs(order)))
    for i in range(4):
        for j in range(i, 4):
            e = (x[i] * x[j] * (0.1 / (1 + i + j))
                 + x[(i + j) % 4] * (0.05 * (i - j)))
            if i == j:
                e = e + 1.0
            g[i, j] = g[j, i] = e.coeffs
    return g


GENERIC = MetricChart(name="generic",
                      coordinate_names=("x1", "x2", "x3", "x4"),
                      domain=np.array([[-0.5, 0.5]] * 4),
                      metric_fn=_generic_metric_fn)

PLAN_POINTS = [("generic", [0.2, -0.1, 0.3, 0.15]),
               ("schwarzschild", [4.0, 1.2, 0.8, 0.3])]


@pytest.mark.parametrize("name,point", PLAN_POINTS)
def test_laplacian_fields_at_order_2_are_the_full_order_prefix(catalog, name,
                                                              point):
    """Degree <= 2 of a product needs only degree <= 2 of its factors."""
    chart = GENERIC if name == "generic" else catalog[name]
    g, ginv, _, _, _, stack = _weyl_stack(chart, point)
    nc2 = jets.n_coeffs(2)
    for k, t in enumerate(stack):
        full = 4 - k
        pairs = [(charts.norm_sq_field(t, ginv, 2),
                  charts.norm_sq_field(t, ginv, full)),
                 (charts.duality_cross_field(t, g, ginv, 2, chart.orientation),
                  charts.duality_cross_field(t, g, ginv, full,
                                             chart.orientation))]
        for low, high in pairs:
            assert low.shape == (nc2,)
            assert np.abs(low - high[:nc2]).max() \
                <= 1e-14 * np.abs(high[:nc2]).max()


@pytest.mark.parametrize("orientation", [1, -1])
def test_duality_cross_matches_full_epsilon_jets(orientation):
    g, ginv, _, _, _, stack = _weyl_stack(GENERIC, [0.2, -0.1, 0.3, 0.15])
    for k, t in enumerate(stack):
        order = 4 - k
        got = charts.duality_cross_field(t, g, ginv, order, orientation)
        ref = _duality_cross_reference(t, g, ginv, order, orientation)
        norm = charts.norm_sq_field(t, ginv, order)
        assert abs(ref[0]) > 1e-3 * norm[0]     # W+ and W- differ here
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


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
    chart = GENERIC if name == "generic" else catalog[name]
    _, _, gamma, riem, ric, _ = _weyl_stack(chart, point)
    lin = jets.n_coeffs(1)
    for t in (riem, ric):
        low = charts.covariant_derivative(t[..., :lin], 1, gamma[..., :1], 0)
        high = charts.covariant_derivative(t, 4, gamma, 5)
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


def test_scaled_chart_properties(catalog):
    scaled = catalog["s4-round"].scaled(4.0)
    cp = curvature_at(scaled, [0.1, -0.15, 0.2, 0.05], depth=0)
    assert cp.scalar == pytest.approx(3.0, rel=1e-12)   # R scales as 1/c^2
    assert scaled.properties.einstein == pytest.approx(0.75)
