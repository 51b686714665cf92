"""The orthonormal jet coframe and the W+- block stacks built on it.

The stack and the Laplacian fields are checked against the coordinate path
of coordinate_reference.py (Gamma covariant derivatives, g^-1 raises, the
eps jet) on two points of every catalog chart.  Where a stack vanishes (a
parallel Weyl tensor) both paths give round-off, so sizes are floored at
the curvature scale |Riem|^(h/2) of the quantity's homogeneity weight h.
"""

from dataclasses import replace

import numpy as np
import pytest

import coordinate_reference as ref
from weylforge import charts, jets
from weylforge.identities import PointData

CATALOG = charts.build_catalog()
POINTS = [(name, t) for name in CATALOG for t in (0.3, 0.85)]
ORDER = 6
DEPTH = ORDER - 2
RTOL = 1e-12


def _point(chart, t):
    lo, hi = chart.domain[:, 0], chart.domain[:, 1]
    return lo + t * (hi - lo) + 0.05 * (hi - lo) * np.array([1, -1, 2, -2])


def _block_stack(g, riem, orientation, depth):
    """W+- blocks [W, nabla W, ..] as the pipeline builds them."""
    o_r = ORDER - 2
    cof = charts.orthonormal_frame(g, o_r, orientation)
    stack = [charts.weyl_jets(riem, cof, o_r)]
    for k in range(1, depth + 1):
        slots = (None, cof.sector_map, cof.sector_map) \
            + (cof.vector_map,) * (k - 1)
        stack.append(charts.covariant_derivative(stack[-1], o_r - k + 1,
                                                 cof.e, cof.conn, slots))
    return stack


@pytest.mark.parametrize("name,t", POINTS)
def test_stack_and_fields_match_the_coordinate_path(name, t):
    chart = CATALOG[name]
    point = _point(chart, t)
    g, ginv, _, riem, coord = ref.weyl_stack(chart, point, ORDER, DEPTH)
    cp = charts.curvature_at(chart, point, depth=DEPTH, jet_order=ORDER)
    riem_norm = np.linalg.norm(cp.riem)
    whole = PointData(cp).sector(None)
    for k in range(DEPTH + 1):
        want = charts.to_frame(coord[k][..., 0], cp.frame)
        size = max(np.linalg.norm(want), riem_norm ** (1 + k / 2), 1e-300)
        assert np.abs(whole.stack(k) - want).max() <= RTOL * size, k

    blocks = _block_stack(g, riem, chart.orientation, 2)
    nc = jets.n_coeffs(2)
    for k in range(3):
        t2 = np.abs(blocks[k][..., :nc])
        terms = 4.0 * jets.mul_coeffs(t2, t2, 2, 2, 2).reshape(-1, nc).sum(0)
        size = max(terms.max(), riem_norm ** (2 + k), 1e-300)
        pairs = ((charts.norm_sq_field(blocks[k], 2),
                  ref.norm_sq_field(coord[k], ginv, 2)),
                 (charts.duality_cross_field(blocks[k], 2),
                  ref.duality_cross_field(coord[k], g, ginv, 2,
                                          chart.orientation)))
        for got, want in pairs:
            assert got.shape == (nc,)
            assert np.abs(got - want).max() <= RTOL * size, k


@pytest.mark.parametrize("name,t", POINTS)
def test_coframe_is_orthonormal_and_its_connection_antisymmetric(name, t):
    chart = CATALOG[name]
    order = 4
    g = chart.metric_jets(_point(chart, t), order + 2)
    cof = charts.orthonormal_frame(g, order, chart.orientation)
    e, gt = cof.e, g[..., :jets.n_coeffs(order)]

    def product(a, b, c):
        ab = jets.mul_coeffs(a[:, :, None], b[None], order, order,
                             order).sum(axis=1)
        return jets.mul_coeffs(ab[:, :, None], c[None], order, order,
                               order).sum(axis=1)

    et = np.swapaxes(e, 0, 1)
    got = product(et, gt, e)
    ident = np.zeros_like(got)
    ident[..., 0] = np.eye(4)
    scale = product(np.abs(et), np.abs(gt), np.abs(e)).max()
    assert np.abs(got - ident).max() <= 1e-14 * scale
    g0 = g[..., 0]
    assert np.array_equal(e[..., 0], np.linalg.inv(np.linalg.cholesky(g0)).T)
    assert np.all(np.diag(e[..., 0]) > 0)
    assert np.all(np.tril(np.ones((4, 4)), -1)[..., None] * e == 0.0)

    # omega_k = E^T g d_k E + E^T Gamma_k E: the symmetric parts of the two
    # terms are -+(1/2) E^T d_k g E and cancel.  The coframe forms omega on
    # m < a only, so the antisymmetry is checked on the full products of
    # the reference, and the coframe's E and conn against them.
    oc = order - 1
    nc = jets.n_coeffs(oc)
    dg = np.stack([jets.partial_coeffs(gt, order, k) for k in range(4)],
                  axis=-2)
    half = jets.mul_coeffs(et[:, :, None, None, :nc], dg[:, None], oc, oc,
                           oc).sum(axis=0)              # (E^T d_k g)[m, l, k]
    half = 0.5 * jets.mul_coeffs(half[:, :, None], e[None, :, :, None, :nc],
                                 oc, oc, oc).sum(axis=1)
    ref_e, ref_omega, ref_conn = ref.coframe(g, order, chart.orientation)
    size = max(np.abs(ref_omega).max(), np.abs(half).max())
    assert np.abs(ref_omega + np.swapaxes(ref_omega, 0, 1)).max() <= \
        1e-13 * size
    assert np.abs(e - ref_e).max() <= 1e-14 * np.abs(ref_e).max()
    # conn holds omega along the frame vectors e_c = E^k_c d_k
    along = jets.mul_coeffs(ref_omega[:, :, :, None],
                            e[None, None, :, :, :nc], oc, oc, oc).sum(axis=2)
    terms = jets.mul_coeffs(np.abs(ref_omega)[:, :, :, None],
                            np.abs(e)[None, None, :, :, :nc], oc, oc,
                            oc).sum(axis=2).max()
    rebuilt = np.einsum("maG,Gcn->macn", cof.vector_map, cof.conn)
    assert np.abs(rebuilt - along).max() <= 1e-13 * np.abs(along).max()
    assert np.abs(cof.conn - ref_conn).max() <= 1e-13 * terms


def test_reversed_orientation_swaps_the_sectors():
    point = [0.2, -0.1, 0.3, 0.15]
    fields = ("w", "dw", "d2w")
    cp = charts.curvature_at(ref.GENERIC, point, depth=2, laplacians=fields)
    mirror = charts.curvature_at(replace(ref.GENERIC, orientation=-1), point,
                                 depth=2, laplacians=fields)
    for key in ("w", "dw", "d2w"):
        plus, minus = cp.laplacians[key + "_plus"], cp.laplacians[key +
                                                                  "_minus"]
        assert abs(plus - minus) > 1e-3 * abs(cp.laplacians[key])
        assert mirror.laplacians[key + "_plus"] == pytest.approx(minus,
                                                                 rel=1e-12)
        assert mirror.laplacians[key + "_minus"] == pytest.approx(plus,
                                                                  rel=1e-12)
    pd, pd_mirror = PointData(cp), PointData(mirror)
    for sign, mirrored in ((1, -1), (-1, 1), (None, None)):
        for k in range(3):
            got = pd_mirror.sector(mirrored).stack(k)
            want = pd.sector(sign).stack(k)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
