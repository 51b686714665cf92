"""From a metric chart to pointwise curvature data via jet arithmetic.

Each catalog chart produces its metric components as jets at a point; from
those, Christoffel symbols, the Riemann tensor, Ricci, scalar curvature, Weyl
and covariant derivative stacks nabla^k W are computed as jet fields in
coordinates, then evaluated and transformed into a pointwise orthonormal
frame (Cholesky of g, orientation-corrected).  Scalar Laplacians of |W|^2,
|nabla W|^2 and |nabla^2 W|^2 (and their duality-sector halves) come from
differentiating the jet-valued scalar fields directly, which keeps the left
sides of the Bochner checks independent of the component-assembled right
sides.

The inverse metric is a Neumann series whose k-th iterate is computed to
order k only.  Christoffel symbols of the first kind, Gamma_{l,ij}, are
formed once from metric derivatives; raised with g^-1 they give Gamma^k_ij,
and with Gamma^k_ij they give the all-lower Riemann tensor directly, so no
jet product lowers an index of R.

Jet-order budget: the Weyl tensor consumes two metric orders and each
covariant derivative one more, so depth-d derivative data needs metric jets
of order d+2.  Each quantity is computed only to the degree its reader uses:
the Laplacian fields at order 2, so the Laplacian of |nabla^k W|^2 needs
order k+4, and nabla Riem / nabla Ric at degree 0.  `required_jet_order`
states this plan; `IdentitySpec.jet_order` is derived from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import jets
from .jets import (Jet, contract_slot, mul_coeffs, mul_operator, n_coeffs,
                   partial_coeffs)
from .tensors import DenseTensor, perm_sign

DIM = 4


_PERM_INDEX = np.array(list(itertools.permutations(range(4))))
_PERM_SIGN = np.array([perm_sign(p) for p in _PERM_INDEX])
_PERM4 = np.zeros((4, 4, 4, 4))
_PERM4[tuple(_PERM_INDEX.T)] = _PERM_SIGN


class DomainError(ValueError):
    """Point outside a chart's domain or metric not positive definite there."""


class CapacityError(RuntimeError):
    """Requested derivative depth or Laplacian exceeds the jet budget."""


@dataclass
class ChartProperties:
    """Declared properties of a catalog metric; the suite re-verifies them."""

    einstein: float | None = None      # Einstein constant lambda, if claimed
    ricci_flat: bool = False
    harmonic_weyl: bool = False
    parallel_weyl: bool = False
    conformally_flat: bool = False
    negative_control: bool = False


@dataclass
class MetricChart:
    """A coordinate chart with a jet-producing metric function."""

    name: str
    coordinate_names: tuple
    domain: np.ndarray                  # (4, 2) lo/hi box
    metric_fn: Callable                 # (point, order) -> (4, 4, nc) coeffs
    orientation: int = 1
    properties: ChartProperties = field(default_factory=ChartProperties)

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.domain[:, 0]) and np.all(p <= self.domain[:, 1]))

    def metric_jets(self, point, order: int) -> np.ndarray:
        if not self.contains(point):
            raise DomainError(f"point {list(point)} outside domain of {self.name}")
        g = self.metric_fn(np.asarray(point, dtype=float), order)
        sym = np.abs(g - np.swapaxes(g, 0, 1)).max()
        if sym > 1e-12 * max(1.0, np.abs(g).max()):
            raise ValueError(f"metric of {self.name} not symmetric: {sym:.3e}")
        return g

    def scaled(self, factor: float) -> "MetricChart":
        """Chart with metric multiplied by a constant (g -> factor * g)."""
        base_fn = self.metric_fn
        props = replace(self.properties)
        if props.einstein is not None:
            props.einstein = props.einstein / factor
        return MetricChart(
            name=f"{self.name}*{factor:g}",
            coordinate_names=self.coordinate_names,
            domain=self.domain,
            metric_fn=lambda point, order: base_fn(point, order) * factor,
            orientation=self.orientation,
            properties=props,
        )


# ---------------------------------------------------------------------------
# Jet-tensor kernels
# ---------------------------------------------------------------------------

def _jet_matmul(a, b, order_a, order_b, order_out):
    prod = mul_coeffs(a[:, :, None, :], b[None, :, :, :], order_a, order_b,
                      order_out)
    return prod.sum(axis=1)


def inverse_metric_jets(g: np.ndarray, order: int) -> np.ndarray:
    """Neumann-series inverse of a jet-valued symmetric matrix.

    g = g0 (1 - s) with s = -g0^-1 (g - g0), so g^-1 = (sum_k s^k) g0^-1.
    s has no constant term, so x_k = 1 + s x_{k-1} is final through degree
    k, and iterate k reads x_{k-1} to order k-1 and writes order k only.
    """
    g0 = g[..., 0]
    g0inv = np.linalg.inv(g0)
    delta = g.copy()
    delta[:, :, 0] = 0.0
    s = -np.einsum("ik,kjc->ijc", g0inv, delta)
    x = np.zeros_like(g)
    x[:, :, 0] = np.eye(DIM)
    for k in range(1, order + 1):
        x[..., :n_coeffs(k)] = _jet_matmul(s, x, order, k - 1, k)
        for i in range(DIM):
            x[i, i, 0] += 1.0
    return np.einsum("ikc,kj->ijc", x, g0inv)


def first_kind_jets(g: np.ndarray, order: int) -> np.ndarray:
    """Christoffel symbols of the first kind, Gamma_{l,ij}, at order-1.

    Gamma_{l,ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2, indexed [l, i, j].
    """
    dg = np.stack([partial_coeffs(g, order, d) for d in range(DIM)], axis=-2)
    # dg[a, b, d] = d_d g_ab
    return 0.5 * (np.einsum("jlic->lijc", dg) + np.einsum("iljc->lijc", dg)
                  - np.einsum("ijlc->lijc", dg))


def christoffel_jets(g: np.ndarray, ginv: np.ndarray, order: int) -> np.ndarray:
    """Gamma^k_ij = g^kl Gamma_{l,ij} as jets of order `order`-1."""
    og = order - 1
    prod = mul_coeffs(ginv[:, :, None, None, :n_coeffs(og)],
                      first_kind_jets(g, order)[None], og, og, og)
    return prod.sum(axis=1)


def riemann_jets(g: np.ndarray, gamma: np.ndarray, order: int) -> np.ndarray:
    """All-lower Riemann tensor jets of order `order`-2.

    From the first-kind symbols Gamma_{i,lj} and Gamma^m_kj = gamma[m, k, j]:
    R_ijkl = d_k Gamma_{i,lj} - d_l Gamma_{i,kj}
             + Gamma_{m,li} Gamma^m_kj - Gamma_{m,ki} Gamma^m_lj,
    which is g_im R^m_jkl with g_im d_k Gamma^m_lj expanded through
    d_k g_im = Gamma_{i,km} + Gamma_{m,ki}.  The quadratic terms are one jet
    product set, and no product with g lowers the result.
    """
    og = order - 1
    oo = order - 2
    low = first_kind_jets(g, order)
    dlow = np.stack([partial_coeffs(low, og, d) for d in range(DIM)], axis=-2)
    # dlow[i, l, j, k] = d_k Gamma_{i,lj}
    t1 = np.einsum("iljkc->ijklc", dlow)
    t2 = np.einsum("ikjlc->ijklc", dlow)
    prod = mul_coeffs(low[:, :, :, None, None, :],
                      gamma[:, None, None, :, :, :], og, og, oo)
    q = prod.sum(axis=0)  # q[l, i, k, j] = Gamma_{m,li} Gamma^m_kj
    return (t1 - t2 + np.einsum("likjc->ijklc", q)
            - np.einsum("kiljc->ijklc", q))


def ricci_jets(riem: np.ndarray, ginv: np.ndarray, order: int):
    """(Ricci, scalar) jets from all-lower Riemann: Ric_ik = g^jl R_ijkl."""
    prod = mul_coeffs(ginv[None, :, None, :, :n_coeffs(order)], riem, order,
                      order, order)
    ric = prod.sum(axis=(1, 3))
    rs = mul_coeffs(ginv[:, :, :n_coeffs(order)], ric, order, order,
                    order).sum(axis=(0, 1))
    return ric, rs


def weyl_jets(riem, ric, rs, g, order: int) -> np.ndarray:
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


def covariant_derivative(t: np.ndarray, order_t: int, gamma: np.ndarray,
                         order_gamma: int) -> np.ndarray:
    """Covariant derivative of an all-lower jet tensor; new slot appended last.

    (nabla T)_{i1..ir, s} = d_s T - sum_a Gamma^m_{s i_a} T_{..m..}.
    """
    oo = order_t - 1
    out = np.stack([partial_coeffs(t, order_t, s) for s in range(DIM)], axis=-2)
    gam = np.swapaxes(gamma, 1, 2)  # gam[m, i_a, s] = Gamma^m_{s i_a}
    op = mul_operator(gam, order_gamma, order_t, oo)
    for a in range(t.ndim - 1):
        out = out - contract_slot(t, op, a)
    return out


def raise_all_indices(t: np.ndarray, ginv: np.ndarray, order: int) -> np.ndarray:
    """Raise every tensor index of an all-lower jet tensor."""
    op = mul_operator(ginv[..., :n_coeffs(order)], order, order, order)
    out = t
    for a in range(t.ndim - 1):
        out = contract_slot(out, op, a)
    return out


def norm_sq_field(t: np.ndarray, ginv: np.ndarray, order: int) -> np.ndarray:
    """|T|^2 as a scalar jet field (all indices paired through g^-1)."""
    rank = t.ndim - 1
    up = raise_all_indices(t, ginv, order)
    sq = mul_coeffs(up, t[..., :n_coeffs(order)], order, order, order)
    return sq.sum(axis=tuple(range(rank)))


def epsilon_jets(g: np.ndarray, order: int, orientation: int) -> np.ndarray:
    """Scalar jet orientation * sqrt(det g); eps_ijkl is it times [ijkl]."""
    gt = g[..., :n_coeffs(order)]
    # Leibniz expansion over the 24 permutations of columns
    term = gt[0, _PERM_INDEX[:, 0]]
    for r in range(1, DIM):
        term = mul_coeffs(term, gt[r, _PERM_INDEX[:, r]], order, order, order)
    det = (_PERM_SIGN[:, None] * term).sum(axis=0)
    return orientation * jets.sqrt(Jet(order, det)).coeffs


def duality_cross_field(t: np.ndarray, g: np.ndarray, ginv: np.ndarray,
                        order: int, orientation: int) -> np.ndarray:
    """<T, *T> as a scalar jet field, star acting on the leading index pair.

    With |T^+|^2 - |T^-|^2 = <T, *T> this yields the sector halves of |T|^2
    for Weyl-type stacks: |T^pm|^2 = (|T|^2 pm <T, *T>) / 2.  The symbol
    [ijab] is constant, so (*T)_{ij rest} = 1/2 eps [ijab] T^{ab}_{rest} is
    contracted coefficient by coefficient and the scalar jet eps multiplies
    the summed field once.
    """
    rank = t.ndim - 1
    up = raise_all_indices(t, ginv, order)
    op = mul_operator(ginv[..., :n_coeffs(order)], order, order, order)
    t2 = t
    for a in range(2):  # T2 = T with the first two indices raised
        t2 = contract_slot(t2, op, a)
    star_sym = np.tensordot(_PERM4, t2, axes=([2, 3], [0, 1]))
    cross = mul_coeffs(up, star_sym, order, order, order)
    cross = cross.sum(axis=tuple(range(rank)))
    eps = epsilon_jets(g, order, orientation)
    return 0.5 * mul_coeffs(eps, cross, order, order, order)


def scalar_jet_laplacian(f: np.ndarray, order_f: int, ginv0: np.ndarray,
                         gamma0: np.ndarray) -> float:
    """Rough Laplacian of a scalar jet at the expansion point.

    Delta f = g^pq (d_p d_q f - Gamma^r_pq d_r f), evaluated from the jet's
    first and second partial derivative coefficients.
    """
    if order_f < 2:
        raise CapacityError("scalar Laplacian needs a jet of order >= 2")
    grad = np.empty(DIM)
    hess = np.empty((DIM, DIM))
    firsts = [partial_coeffs(f, order_f, p) for p in range(DIM)]
    for p in range(DIM):
        grad[p] = firsts[p][..., 0]
        for q in range(DIM):
            hess[p, q] = partial_coeffs(firsts[p], order_f - 1, q)[..., 0]
    corr = np.einsum("rpq,r->pq", gamma0, grad)
    return float(np.einsum("pq,pq->", ginv0, hess - corr))


# ---------------------------------------------------------------------------
# Orthonormal frames
# ---------------------------------------------------------------------------

def orthonormal_frame(g0: np.ndarray) -> np.ndarray:
    """Frame matrix E with E^T g0 E = I and det E > 0 (Cholesky transpose)."""
    try:
        chol = np.linalg.cholesky(g0)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"metric not positive definite: {exc}") from exc
    return np.linalg.inv(chol).T


def to_frame(t: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Transform all-lower coordinate components into the orthonormal frame."""
    out = t
    for _ in range(t.ndim):
        out = np.tensordot(out, frame, axes=([0], [0]))
    return out


# ---------------------------------------------------------------------------
# Curvature evaluation at a point
# ---------------------------------------------------------------------------

LAPLACIAN_FIELDS = ("w", "dw", "d2w", "w_pm", "dw_pm", "d2w_pm")

_LAP_STACK = {"w": 0, "dw": 1, "d2w": 2, "w_pm": 0, "dw_pm": 1, "d2w_pm": 2}

# Jet order of the scalar Laplacian fields: the highest Taylor degree
# scalar_jet_laplacian reads.
_FIELD_ORDER = 2


def required_jet_order(depth: int, laplacians=()) -> int:
    """Metric jet order needed for `depth` and the named Laplacian fields.

    This is the one jet-order plan of `curvature_at`.  Metric jets of order
    K give Gamma at order K-1, Riemann, Ricci and W at K-2, and nabla^k W at
    K-2-k, so depth d needs K >= d+2.  The fields |nabla^k W|^2 and
    <nabla^k W, *nabla^k W> are built at order 2, the highest degree
    `scalar_jet_laplacian` reads, so their Laplacians need K >= k+4.
    nabla Riem and nabla Ric are read only at degree 0; they are computed at
    order 0 from order-1 truncations and an order-0 Gamma and need no more.
    `IdentitySpec.jet_order` is this function of a check's depth and fields.
    """
    order = depth + 2
    for f in laplacians:
        if f not in _LAP_STACK:
            raise ValueError(f"unknown laplacian field {f!r}")
        order = max(order, _LAP_STACK[f] + 2 + _FIELD_ORDER)
    return order


@dataclass
class CurvaturePoint:
    """All pointwise curvature data in an orthonormal frame."""

    chart: MetricChart
    point: np.ndarray
    frame: np.ndarray
    orientation: int
    jet_order: int
    depth: int
    riem: np.ndarray
    ric: np.ndarray
    scalar: float
    weyl: np.ndarray
    nabla_w: dict            # k -> frame components of nabla^k W, k = 0..depth
    nabla_riem: np.ndarray | None
    ric_deriv: np.ndarray | None
    d_scalar: np.ndarray | None
    cotton: np.ndarray | None
    cotton_div: np.ndarray | None
    laplacians: dict


def christoffel(chart: MetricChart, point, jet_order: int) -> DenseTensor:
    """Jet-valued Christoffel symbols of order jet_order - 1 at a point."""
    if jet_order < 1:
        raise CapacityError("christoffel needs jet order >= 1")
    g = chart.metric_jets(point, jet_order)
    orthonormal_frame(g[..., 0])  # positive-definiteness check
    ginv = inverse_metric_jets(g, jet_order)
    return DenseTensor(christoffel_jets(g, ginv, jet_order), "udd",
                       jet_order - 1)


def curvature_at(chart: MetricChart, point, depth: int = 2, laplacians=(),
                 jet_order: int | None = None) -> CurvaturePoint:
    """Evaluate curvature and derivative stacks at a chart point.

    `depth` is the highest covariant derivative of W to compute; `laplacians`
    names scalar Laplacian fields from LAPLACIAN_FIELDS.  The metric jet order
    is auto-selected unless given, and validated against the budget.
    """
    laplacians = tuple(laplacians)
    need = required_jet_order(depth, laplacians)
    order = need if jet_order is None else int(jet_order)
    if order < need:
        raise CapacityError(
            f"jet order {order} cannot support depth {depth} and "
            f"laplacians {laplacians} (needs {need})")
    if order > jets.MAX_ORDER:
        raise CapacityError(f"jet order {order} exceeds the cap {jets.MAX_ORDER}")
    if depth < 0 or depth > order - 2:
        raise CapacityError(f"depth {depth} exceeds jet budget at order {order}")

    point = np.asarray(point, dtype=float)
    g = chart.metric_jets(point, order)
    frame = orthonormal_frame(g[..., 0])
    ginv = inverse_metric_jets(g, order)
    gamma = christoffel_jets(g, ginv, order)
    riem = riemann_jets(g, gamma, order)
    o_r = order - 2
    ric, rs = ricci_jets(riem, ginv, o_r)
    weyl = weyl_jets(riem, ric, rs, g, o_r)

    stacks = {0: weyl}
    for k in range(1, depth + 1):
        stacks[k] = covariant_derivative(stacks[k - 1], o_r - k + 1, gamma,
                                         order - 1)

    nabla_w = {k: to_frame(stacks[k][..., 0], frame) for k in stacks}
    riem_f = to_frame(riem[..., 0], frame)
    ric_f = to_frame(ric[..., 0], frame)
    weyl_f = nabla_w[0]
    scalar = float(rs[0])

    nabla_riem_f = ric_deriv_f = d_scalar_f = cotton = cotton_div = None
    if depth >= 1:
        # read at degree 0 only: order-1 inputs against the constant Gamma
        lin, gamma_c = n_coeffs(1), gamma[..., :1]
        nabla_riem = covariant_derivative(riem[..., :lin], 1, gamma_c, 0)
        nabla_riem_f = to_frame(nabla_riem[..., 0], frame)
        ric_deriv = covariant_derivative(ric[..., :lin], 1, gamma_c, 0)
        ric_deriv_f = to_frame(ric_deriv[..., 0], frame)
        d_scalar_f = frame.T @ np.array(
            [partial_coeffs(rs, o_r, d)[0] for d in range(DIM)])
        from . import algebra
        cotton = algebra.cotton_from_ricci(ric_deriv_f, d_scalar_f)
        cotton_div = algebra.cotton_from_weyl_divergence(nabla_w[1])

    lap = {}
    if laplacians:
        ginv0 = ginv[..., 0]
        gamma0 = gamma[..., 0]
        wants: dict[int, bool] = {}
        for name in laplacians:
            k = _LAP_STACK[name]
            wants[k] = wants.get(k, False) or name.endswith("_pm")
        for k, want_pm in sorted(wants.items()):
            if k > depth:
                raise CapacityError(
                    f"laplacian of |nabla^{k} W|^2 needs depth >= {k}")
            key = {0: "w", 1: "dw", 2: "d2w"}[k]
            base = norm_sq_field(stacks[k], ginv, _FIELD_ORDER)
            lap[key] = scalar_jet_laplacian(base, _FIELD_ORDER, ginv0, gamma0)
            if want_pm:
                cross = duality_cross_field(stacks[k], g, ginv, _FIELD_ORDER,
                                            chart.orientation)
                lap_cross = scalar_jet_laplacian(cross, _FIELD_ORDER, ginv0,
                                                 gamma0)
                lap[key + "_plus"] = 0.5 * (lap[key] + lap_cross)
                lap[key + "_minus"] = 0.5 * (lap[key] - lap_cross)

    return CurvaturePoint(
        chart=chart, point=point, frame=frame, orientation=chart.orientation,
        jet_order=order, depth=depth, riem=riem_f, ric=ric_f, scalar=scalar,
        weyl=weyl_f, nabla_w=nabla_w, nabla_riem=nabla_riem_f,
        ric_deriv=ric_deriv_f, d_scalar=d_scalar_f, cotton=cotton,
        cotton_div=cotton_div, laplacians=lap)


def scalar_laplacian(chart: MetricChart, point, fld: str) -> float:
    """Laplacian of |W|^2, |nabla W|^2 or |nabla^2 W|^2 at a point.

    `fld` is one of 'norm2_w', 'norm2_dw', 'norm2_d2w'.
    """
    key = {"norm2_w": "w", "norm2_dw": "dw", "norm2_d2w": "d2w"}.get(fld)
    if key is None:
        raise ValueError(f"unknown scalar field {fld!r}")
    cp = curvature_at(chart, point, depth=_LAP_STACK[key], laplacians=(key,))
    return cp.laplacians[key]


# ---------------------------------------------------------------------------
# Metric catalog
# ---------------------------------------------------------------------------

def _vars_at(point, order):
    return [Jet.variable(i + 1, point[i], order) for i in range(DIM)]


def _diag_metric(entries) -> np.ndarray:
    order = entries[0].order
    g = np.zeros((DIM, DIM, n_coeffs(order)))
    for i, e in enumerate(entries):
        g[i, i] = e.coeffs
    return g


def _flat_fn(point, order):
    one = Jet.constant(1.0, order)
    return _diag_metric([one, one, one, one])


def _conformal_factor_fn(coeffs: dict):
    """Metric e^{2 phi} delta for a polynomial phi given by monomial coeffs."""
    terms = [(tuple(exp), float(c)) for exp, c in coeffs.items()]

    def fn(point, order):
        x = _vars_at(point, order)
        phi = Jet.constant(0.0, order)
        for exp, c in terms:
            mono = Jet.constant(c, order)
            for i, e in enumerate(exp):
                for _ in range(e):
                    mono = mono * x[i]
            phi = phi + mono
        f = jets.exp(phi * 2.0)
        return _diag_metric([f, f, f, f])

    return fn


def _round_sphere_fn(point, order):
    x = _vars_at(point, order)
    u = 1.0 + x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3]
    f = 4.0 * jets.power(u, -2.0)
    return _diag_metric([f, f, f, f])


def _hyperbolic_fn(point, order):
    x = _vars_at(point, order)
    u = 1.0 - (x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3])
    f = 4.0 * jets.power(u, -2.0)
    return _diag_metric([f, f, f, f])


def _fubini_study_fn(point, order):
    """Fubini-Study metric on the affine chart of CP^2, real coordinates.

    z1 = x1 + i x2, z2 = x3 + i x4; Hermitian components h_11 = (1+|z2|^2)/u^2,
    h_22 = (1+|z1|^2)/u^2, h_12 = -conj(z1) z2 / u^2 with u = 1 + |z|^2; the
    real metric carries Re/Im of h_12 into the off-diagonal blocks.
    """
    x = _vars_at(point, order)
    z1sq = x[0] * x[0] + x[1] * x[1]
    z2sq = x[2] * x[2] + x[3] * x[3]
    u = 1.0 + z1sq + z2sq
    iu2 = jets.power(u, -2.0)
    p = (1.0 + z2sq) * iu2
    q = (1.0 + z1sq) * iu2
    a = -(x[0] * x[2] + x[1] * x[3]) * iu2   # Re h_12
    b = -(x[0] * x[3] - x[1] * x[2]) * iu2   # Im h_12
    g = np.zeros((DIM, DIM, n_coeffs(order)))
    g[0, 0] = p.coeffs
    g[1, 1] = p.coeffs
    g[2, 2] = q.coeffs
    g[3, 3] = q.coeffs
    g[0, 2] = g[2, 0] = a.coeffs
    g[1, 3] = g[3, 1] = a.coeffs
    g[0, 3] = g[3, 0] = b.coeffs
    g[1, 2] = g[2, 1] = (-b).coeffs
    return g


def _product_spheres_fn(radius2: float):
    def fn(point, order):
        th1 = Jet.variable(1, point[0], order)
        th2 = Jet.variable(3, point[2], order)
        s1 = jets.sin(th1)
        s2 = jets.sin(th2)
        a2 = radius2 ** 2
        return _diag_metric([Jet.constant(1.0, order), s1 * s1,
                             Jet.constant(a2, order), (s2 * s2) * a2])
    return fn


def _spherical_static_fn(f_of_r):
    """diag(1/f, r^2, r^2 sin^2 theta, f) in coordinates (r, theta, phi, tau)."""
    def fn(point, order):
        r = Jet.variable(1, point[0], order)
        th = Jet.variable(2, point[1], order)
        f = f_of_r(r)
        s = jets.sin(th)
        r2 = r * r
        return _diag_metric([jets.recip(f), r2, r2 * (s * s), f])
    return fn


_M = 1.0          # Schwarzschild mass parameter
_LAMBDA = 0.03    # cosmological constant for Schwarzschild-de Sitter

DEFAULT_CONFORMAL_COEFFS = {
    (1, 0, 0, 0): 0.12,
    (0, 1, 0, 0): -0.08,
    (1, 0, 1, 0): 0.05,
    (0, 0, 0, 2): 0.06,
    (0, 1, 1, 1): -0.04,
}


def build_catalog(conformal_coeffs: dict | None = None) -> dict:
    """The fixed manifold catalog, keyed by chart name."""
    ang = (0.2, math.pi - 0.2)
    charts = [
        MetricChart(
            name="flat-r4", coordinate_names=("x1", "x2", "x3", "x4"),
            domain=np.array([[-1.0, 1.0]] * 4), metric_fn=_flat_fn,
            properties=ChartProperties(einstein=0.0, ricci_flat=True,
                                       harmonic_weyl=True, parallel_weyl=True,
                                       conformally_flat=True)),
        MetricChart(
            name="s4-round", coordinate_names=("x1", "x2", "x3", "x4"),
            domain=np.array([[-0.4, 0.4]] * 4), metric_fn=_round_sphere_fn,
            properties=ChartProperties(einstein=3.0, harmonic_weyl=True,
                                       parallel_weyl=True,
                                       conformally_flat=True)),
        MetricChart(
            name="h4-poincare", coordinate_names=("x1", "x2", "x3", "x4"),
            domain=np.array([[-0.35, 0.35]] * 4), metric_fn=_hyperbolic_fn,
            properties=ChartProperties(einstein=-3.0, harmonic_weyl=True,
                                       parallel_weyl=True,
                                       conformally_flat=True)),
        MetricChart(
            name="cp2-fubini-study",
            coordinate_names=("x1", "x2", "x3", "x4"),
            domain=np.array([[-0.5, 0.5]] * 4), metric_fn=_fubini_study_fn,
            properties=ChartProperties(einstein=6.0, harmonic_weyl=True,
                                       parallel_weyl=True)),
        MetricChart(
            name="s2xs2-equal",
            coordinate_names=("theta1", "phi1", "theta2", "phi2"),
            domain=np.array([ang, ang, ang, ang]),
            metric_fn=_product_spheres_fn(1.0),
            properties=ChartProperties(einstein=1.0, harmonic_weyl=True,
                                       parallel_weyl=True)),
        MetricChart(
            name="s2xs2-unequal",
            coordinate_names=("theta1", "phi1", "theta2", "phi2"),
            domain=np.array([ang, ang, ang, ang]),
            metric_fn=_product_spheres_fn(2.0),
            properties=ChartProperties(harmonic_weyl=True,
                                       parallel_weyl=True)),
        MetricChart(
            name="schwarzschild",
            coordinate_names=("r", "theta", "phi", "tau"),
            domain=np.array([[3.0 * _M, 8.0 * _M], ang, ang, [0.0, 1.0]]),
            metric_fn=_spherical_static_fn(
                lambda r: 1.0 - (2.0 * _M) * jets.recip(r)),
            properties=ChartProperties(einstein=0.0, ricci_flat=True,
                                       harmonic_weyl=True)),
        MetricChart(
            name="schwarzschild-de-sitter",
            coordinate_names=("r", "theta", "phi", "tau"),
            domain=np.array([[3.0 * _M, 8.0 * _M], ang, ang, [0.0, 1.0]]),
            metric_fn=_spherical_static_fn(
                lambda r: 1.0 - (2.0 * _M) * jets.recip(r)
                - (_LAMBDA / 3.0) * (r * r)),
            properties=ChartProperties(einstein=_LAMBDA, harmonic_weyl=True)),
        MetricChart(
            name="perturbed-schwarzschild",
            coordinate_names=("r", "theta", "phi", "tau"),
            domain=np.array([[3.0 * _M, 8.0 * _M], ang, ang, [0.0, 1.0]]),
            metric_fn=_spherical_static_fn(
                lambda r: 1.0 - (2.0 * _M) * jets.power(r, -1.5)),
            properties=ChartProperties(negative_control=True)),
        MetricChart(
            name="conformally-flat",
            coordinate_names=("x1", "x2", "x3", "x4"),
            domain=np.array([[-0.5, 0.5]] * 4),
            metric_fn=_conformal_factor_fn(
                conformal_coeffs or DEFAULT_CONFORMAL_COEFFS),
            properties=ChartProperties(harmonic_weyl=True, parallel_weyl=True,
                                       conformally_flat=True)),
    ]
    return {c.name: c for c in charts}
