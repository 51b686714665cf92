"""Reference copy of the coordinate W-stack path, for equivalence tests.

The pipeline carries W and nabla^k W as W+- blocks on an orthonormal jet
frame (charts.orthonormal_frame, charts.weyl_jets).  This module keeps the
coordinate formulation it replaced, as an independent check:

- W from the Riemann decomposition with jet products against g;
- nabla^k W as all-lower coordinate tensors through Gamma^k_ij;
- |T|^2 with every index raised through g^-1 (charts.raise_all_indices);
- <T, *T> with the star as eps = orientation sqrt(det g) (charts.epsilon_jets)
  times the constant symbol [ijab] on the leading index pair.

It also keeps the coordinate stages in forms independent of the pipeline's:
g^-1 as a Neumann series in g0^-1 (g - g0), where the pipeline forms E E^T
from its orthonormal frame, and full products over every index combination,
where the pipeline forms only the independent components: Gamma^k_ij on all
(i, j), and the coframe solve and its connection with every entry of V, y
and omega.
"""

from __future__ import annotations

import numpy as np

from weylforge import algebra, charts, jets
from weylforge.jets import contract_slot, mul_coeffs, mul_operator, n_coeffs

_PERM4 = np.zeros((4, 4, 4, 4))
_PERM4[tuple(charts._PERM_INDEX.T)] = charts._PERM_SIGN


def inverse_metric_jets(g, order):
    """Neumann-series inverse of a jet-valued symmetric matrix, as jets of
    order `order`; g's coefficients above `order` are not read.

    g = g0 (1 - s) with s = -g0^-1 (g - g0), so g^-1 = (sum_k s^k) g0^-1.
    s has no constant term, so x_k = 1 + s x_{k-1} is final through degree
    k, and iterate k reads x_{k-1} to order k-1 and writes order k only.
    """
    nc = n_coeffs(order)
    g0inv = np.linalg.inv(g[..., 0])
    delta = g[..., :nc].copy()
    delta[:, :, 0] = 0.0
    s = -np.einsum("ik,kjc->ijc", g0inv, delta)
    x = np.zeros((4, 4, nc))
    x[:, :, 0] = np.eye(4)
    for k in range(1, order + 1):
        x[..., :n_coeffs(k)] = _jet_matmul(s, x, order, k - 1, k)
        x[..., 0] += np.eye(4)
    return np.einsum("ikc,kj->ijc", x, g0inv)


def weyl_jets(riem, ric, rs, g, order):
    """Weyl jets in dimension 4 from the decomposition of the Riemann tensor."""
    gt = g[..., :n_coeffs(order)]
    p1 = mul_coeffs(ric[:, None, :, None, :], gt[None, :, None, :, :], order,
                    order, order)  # p1[i,j,k,l] = Ric_ik g_jl
    gg = mul_coeffs(gt[:, None, :, None, :], gt[None, :, None, :, :], order,
                    order, order)  # gg[i,j,k,l] = g_ik g_jl
    ricterm = (p1 - np.einsum("ijlkc->ijklc", p1)
               + np.einsum("jilkc->ijklc", p1) - np.einsum("jiklc->ijklc", p1))
    ggdiff = gg - np.einsum("ijlkc->ijklc", gg)
    rterm = mul_coeffs(rs, ggdiff, order, order, order)
    return riem - 0.5 * ricterm + rterm / 6.0


def covariant_derivative(t, order_t, gamma, order_gamma):
    """(nabla T)_{i1..ir, s} = d_s T - sum_a Gamma^m_{s i_a} T_{..m..}."""
    oo = order_t - 1
    out = np.stack([jets.partial_coeffs(t, order_t, s) for s in range(4)],
                   axis=-2)
    gam = np.swapaxes(gamma, 1, 2)  # gam[m, i_a, s] = Gamma^m_{s i_a}
    op = mul_operator(gam, order_gamma, order_t, oo)
    for a in range(t.ndim - 1):
        out = out - contract_slot(t, op, a)
    return out


def norm_sq_field(t, ginv, order):
    """|T|^2 as a scalar jet field (all indices paired through g^-1)."""
    up = charts.raise_all_indices(t, ginv, order)
    sq = mul_coeffs(up, t[..., :n_coeffs(order)], order, order, order)
    return sq.sum(axis=tuple(range(t.ndim - 1)))


def duality_cross_field(t, g, ginv, order, orientation):
    """<T, *T> as a scalar jet field, star acting on the leading index pair:
    (*T)_{ij rest} = 1/2 eps [ijab] T^{ab}_{rest}."""
    rank = t.ndim - 1
    up = charts.raise_all_indices(t, ginv, order)
    op = mul_operator(ginv[..., :n_coeffs(order)], order, order, order)
    t2 = t
    for a in range(2):  # T2 = T with the first two indices raised
        t2 = contract_slot(t2, op, a)
    star_sym = np.tensordot(_PERM4, t2, axes=([2, 3], [0, 1]))
    cross = mul_coeffs(up, star_sym, order, order, order)
    cross = cross.sum(axis=tuple(range(rank)))
    eps = charts.epsilon_jets(g, order, orientation)
    return 0.5 * mul_coeffs(eps, cross, order, order, order)


def christoffel_jets(g, ginv, order):
    """Gamma^k_ij = g^kl Gamma_{l,ij} of order order-1, on all 16 (i, j)."""
    og = order - 1
    prod = mul_coeffs(ginv[:, :, None, None, :n_coeffs(og)],
                      charts.first_kind_jets(g, order)[None], og, og, og)
    return prod.sum(axis=1)


def _jet_matmul(a, b, order_a, order_b, order_out):
    return mul_coeffs(a[:, :, None], b[None], order_a, order_b,
                      order_out).sum(axis=1)


def coframe(g, order, orientation):
    """(E, omega, conn) of charts.orthonormal_frame from full 4x4 products:
    V_d from all of V^T S V, y = S d_k V + E0^T Gamma_k E0 V and
    omega = V^T y on every (m, a)."""
    e0 = charts._cholesky_frame(g[..., 0])
    nc = n_coeffs(order)
    s = np.einsum("ia,ijc,jb->abc", e0, g[..., :nc], e0)
    v = np.zeros((4, 4, nc))
    v[..., 0] = np.eye(4)
    upper = np.triu(np.ones((4, 4)), 1) + 0.5 * np.eye(4)
    for d in range(1, order + 1):
        sv = _jet_matmul(s, v, order, d - 1, d)
        q = _jet_matmul(np.swapaxes(v, 0, 1), sv, d - 1, d, d)
        lo, hi = n_coeffs(d - 1), n_coeffs(d)
        v[..., lo:hi] = -upper[..., None] * q[..., lo:hi]
    e = np.einsum("ij,jbc->ibc", e0, v)

    oc = order - 1
    n = n_coeffs(oc)
    dv = np.stack([jets.partial_coeffs(v, order, k) for k in range(4)],
                  axis=-2)                             # dv[l, a, k]
    rot = np.einsum("jm,jkic,ia->mkac", e0,
                    charts.first_kind_jets(g, order)[..., :n], e0)
    y = mul_coeffs(s[:, :, None, None, :n], dv[None], oc, oc,
                   oc).sum(axis=1)                     # y[m, a, k]
    y += np.swapaxes(mul_coeffs(rot[:, :, :, None], v[None, None, :, :, :n],
                                oc, oc, oc).sum(axis=2), 1, 2)
    omega = mul_coeffs(v[:, :, None, None, :n], y[:, None], oc, oc,
                       oc).sum(axis=0)                 # omega[m, a, k]

    basis = algebra.sector_forms(orientation).reshape(6, 4, 4)
    along_k = 0.5 * np.einsum("Gma,makn->Gkn", basis, omega)
    conn = mul_coeffs(along_k[:, :, None], e[None, :, :, :n], oc, oc,
                      oc).sum(axis=1)
    return e, omega, conn


def weyl_stack(chart, point, order, depth):
    """Metric jets, g^-1, Gamma, Riemann and the coordinate stack
    [W, nabla W, .., nabla^depth W] (nabla^k W of order order-2-k)."""
    g = chart.metric_jets(point, order)
    ginv = inverse_metric_jets(g, order)
    gamma = christoffel_jets(g, ginv, order)
    riem = charts.riemann_jets(g, gamma, order)
    o_r = order - 2
    ric, rs = charts.ricci_jets(riem, ginv, o_r)
    stack = [weyl_jets(riem, ric, rs, g, o_r)]
    for k in range(1, depth + 1):
        stack.append(covariant_derivative(stack[-1], o_r - k + 1, gamma,
                                          order - 1))
    return g, ginv, gamma, riem, stack


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


GENERIC = charts.MetricChart(name="generic",
                             coordinate_names=("x1", "x2", "x3", "x4"),
                             domain=np.array([[-0.5, 0.5]] * 4),
                             metric_fn=_generic_metric_fn)
