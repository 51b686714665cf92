"""From a metric chart to pointwise curvature data via jet arithmetic.

Each catalog chart produces its metric components as jets at a point.  From
those come, as jet fields in coordinates, the orthonormal frame E below, the
inverse metric g^-1 = E E^T, the Christoffel symbols and the all-lower
Riemann tensor (from the first-kind symbols Gamma_{l,ij}, so no jet product
lowers an index of R).

The Weyl tensor and its derivatives live on Lambda^2 = Lambda+ + Lambda-.
An orthonormal frame E is built once per point as jets (`orthonormal_frame`:
a jet Cholesky of g, E^T g E = I), with its connection one-forms omega from
Gamma and dE.  In the orthonormal basis two-forms of Lambda+ and Lambda-
(algebra.sector_seed(+-1, orientation) / sqrt 2), W is two trace-free
symmetric 3x3 blocks W+ and W- (`weyl_jets`: the diagonal blocks of the
frame curvature operator C^T R C, C = Lambda^2 E, trace removed), and so is
every nabla^k W, with k frame derivative slots after the blocks: a W-blocks
stack of shape (2, 3, 3, 4, .., 4, nc).  `covariant_derivative` is E^j_c
d_j, minus omega's action on the two block slots (the 3x3 matrices A+- of
the self-dual and anti-self-dual parts of omega) and minus omega on each
derivative slot.  A+- are algebra.sector_action(forms), the action of a
two-form on the sector bases, applied to omega; the same map carries the
curvature's action on the block slots in identities.Commutator.  The frame
components of a full Weyl-type tensor square-sum to four times its blocks',
and the Hodge star on its first pair is +1 on the plus block and -1 on the
minus block, so |T|^2 and <T, *T> are fixed multiples of the two halves'
sums of squares.  A CurvaturePoint carries W and nabla^k W as these blocks
at degree 0 (`weyl_blocks`, with their basis two-forms `forms`);
identities.SectorPack expands them to frame components when an identity
first reads them; the gates, the scale bounds and the commutation checks
read the blocks themselves.
Scalar Laplacians of |W|^2, |nabla W|^2 and |nabla^2 W|^2 come from
differentiating these jet-valued scalar fields directly, which keeps the
left sides of the Bochner checks independent of the component-assembled
right sides.  A requested field always carries its two duality halves,
from the Laplacian of <T, *T> beside that of |T|^2.  nabla Riem and
nabla Ric are coordinate covariant derivatives at degree 0, taken to the
frame.

Jet-order budget: from metric jets of order K, Riemann, E and W have order
K-2; omega has order K-3, and nabla^k W order K-2-k, so depth-d derivative
data needs K >= d+2.  Each quantity is computed only to the degree its
reader uses: g^-1 = E E^T and Gamma at order K-2 (Riemann's quadratic
terms read no more, and its derivative terms come from the first-kind
symbols, which need no g^-1), Ricci and R at order 1, the Laplacian fields
at order 2, so the Laplacian of |nabla^k W|^2 needs order k+4, and
nabla Riem / nabla Ric at degree 0.  `required_jet_order` states this
plan; `IdentitySpec.jet_order` is derived from it.  Each stage also forms
only the independent components its readers use: g^-1 and Gamma^k_ij on
symmetric index pairs, Riemann's quadratic terms on one triangle of the
pairs of such pairs, the coframe on the triangles of E and omega, and the
frame curvature operator on the upper triangles of the compound C and of
the symmetric C^T R C.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import algebra, jets
from .jets import (Jet, contract_slot, gradient_coeffs, mul_coeffs,
                   mul_operator, n_coeffs)

DIM = 4


_PERM_INDEX = np.array(list(itertools.permutations(range(4))))
_PERM_SIGN = np.rint(np.linalg.det(np.eye(DIM)[_PERM_INDEX]))
# index pairs i < j of the two-form pair basis
_PAIR_I, _PAIR_J = np.array(algebra.PAIRS).T


def _symmetric_pairs(n: int):
    """Index pairs i <= j of two symmetric slots of size n, and the n x n
    matrix whose entries (i, j) and (j, i) hold the number of that pair."""
    i, j = np.triu_indices(n)
    pair = np.empty((n, n), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(len(i))
    return i, j, pair


# pairs of two symmetric vector slots (10), of two such pairs (55), and of
# two two-form slots (21)
_SYM_I, _SYM_J, _SYM = _symmetric_pairs(DIM)
_SYM2_I, _SYM2_J, _SYM2 = _symmetric_pairs(len(_SYM_I))
_SYM6_I, _SYM6_J, _SYM6 = _symmetric_pairs(len(algebra.PAIRS))
# masks of a full 6 x 4 (or 4 x 4) and an upper triangular 4 x 4 factor
_FULL = np.ones((6, DIM), dtype=bool)
_UPPER = np.triu(_FULL[:DIM])


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

def _matmul_terms(wanted, a_nonzero, b_nonzero):
    """The terms A[r, j] B[j, c] of the entries (r, c) in `wanted` of a
    product C = A B, with the entries of A and B known to be zero left out:
    a_nonzero and b_nonzero are boolean masks of A's and B's shapes.

    Returns the index triples (r, j, c), grouped by entry in the order of
    `wanted`, and the reduceat start of each entry's group.
    """
    terms, starts = [], []
    for r, c in wanted:
        starts.append(len(terms))
        terms += [(r, j, c) for j in range(a_nonzero.shape[1])
                  if a_nonzero[r, j] and b_nonzero[j, c]]
    r, j, c = np.array(terms).T
    return r, j, c, np.array(starts)


def _pruned_matmul(a, b, terms, order_a, order_b, order_out):
    """The wanted entries of the jet matrix product a b, from a table of
    `_matmul_terms`: shape (len(wanted),) + trailing axes + (nc,).  Axes of
    a and b after the first two broadcast."""
    r, j, c, starts = terms
    prod = mul_coeffs(a[r, j], b[j, c], order_a, order_b, order_out)
    return np.add.reduceat(prod, starts, axis=0)


# g^-1 = E E^T on its pairs i <= j; E is upper triangular, so entry (i, j)
# reads E[i, a] E[j, a] for a >= j only.
_EET_TERMS = _matmul_terms(zip(_SYM_I, _SYM_J), _UPPER, _UPPER.T)


def inverse_metric_jets(e: np.ndarray, order: int) -> np.ndarray:
    """The inverse metric g^-1 = E E^T as jets of order `order`, from the
    upper triangular orthonormal frame E of `orthonormal_frame` (E^T g E = I,
    so g = E^-T E^-1); E's coefficients above `order` are not read.  The
    product is formed on the ten pairs i <= j, past E's zero lower triangle,
    and gathered whole.
    """
    et = np.swapaxes(e, 0, 1)
    return _pruned_matmul(e, et, _EET_TERMS, order, order, order)[_SYM]


def first_kind_jets(g: np.ndarray, order: int) -> np.ndarray:
    """Christoffel symbols of the first kind, Gamma_{l,ij}, at order-1.

    Gamma_{l,ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2, indexed [l, i, j].
    """
    dg = gradient_coeffs(g, order)
    # dg[a, b, d] = d_d g_ab
    return 0.5 * (np.einsum("jlic->lijc", dg) + np.einsum("iljc->lijc", dg)
                  - np.einsum("ijlc->lijc", dg))


# Gamma^k_ij = g^kl Gamma_{l,ij} on the pairs i <= j: every (k, pair).
_GAMMA_TERMS = _matmul_terms(np.ndindex(DIM, len(_SYM_I)), _FULL[:DIM],
                             np.ones((DIM, len(_SYM_I)), dtype=bool))


def christoffel_jets(g: np.ndarray, ginv: np.ndarray, order: int) -> np.ndarray:
    """Gamma^k_ij = g^kl Gamma_{l,ij} as jets of order `order`-1.

    g is read to order `order` and ginv to order-1.  Gamma is symmetric in
    (i, j), so the products are formed on the ten pairs i <= j and gathered
    to the (4, 4, 4, nc) layout.
    """
    og = order - 1
    low = first_kind_jets(g, order)[:, _SYM_I, _SYM_J]
    prod = _pruned_matmul(ginv[..., :n_coeffs(og)], low, _GAMMA_TERMS, og, og,
                          og)
    return prod.reshape(DIM, len(_SYM_I), -1)[:, _SYM]


# Riemann's quadratic terms on the pairs A <= B of symmetric index pairs.
_QUAD_TERMS = _matmul_terms(zip(_SYM2_I, _SYM2_J),
                            np.ones((len(_SYM_I), DIM), dtype=bool),
                            np.ones((DIM, len(_SYM_I)), dtype=bool))


def riemann_jets(g: np.ndarray, gamma: np.ndarray, order: int) -> np.ndarray:
    """All-lower Riemann tensor jets of order `order`-2.

    From the first-kind symbols Gamma_{i,lj} and Gamma^m_kj = gamma[m, k, j]:
    R_ijkl = d_k Gamma_{i,lj} - d_l Gamma_{i,kj}
             + Gamma_{m,li} Gamma^m_kj - Gamma_{m,ki} Gamma^m_lj,
    which is g_im R^m_jkl with g_im d_k Gamma^m_lj expanded through
    d_k g_im = Gamma_{i,km} + Gamma_{m,ki}.  g is read to order `order` and
    gamma to order-2, which is all the quadratic terms reach.  Those are one
    jet product set: sum_m Gamma_{m,A} Gamma^m_B over the symmetric index
    pairs A = (l, i), l <= i, and B = (k, j), k <= j, and, as it is
    symmetric in A and B (both are Gamma_{m,A} g^mn Gamma_{n,B}), only on
    the 55 pairs A <= B; one gather fills all (l, i, k, j).  No product with
    g lowers the result.
    """
    og = order - 1
    oo = order - 2
    n = n_coeffs(oo)
    low = first_kind_jets(g, order)
    dlow = gradient_coeffs(low, og)
    # dlow[i, l, j, k] = d_k Gamma_{i,lj}
    t1 = np.einsum("iljkc->ijklc", dlow)
    t2 = np.einsum("ikjlc->ijklc", dlow)
    pairs = _pruned_matmul(np.swapaxes(low[:, _SYM_I, _SYM_J, :n], 0, 1),
                           gamma[:, _SYM_I, _SYM_J, :n], _QUAD_TERMS, oo, oo,
                           oo)
    q = pairs[_SYM2[_SYM[:, :, None, None], _SYM]]  # q[l, i, k, j]
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


# Lambda^2 E of an upper triangular E is upper triangular in algebra.PAIRS
# order: its nonzero entries, T = R C, and R_f = C^T T on its pairs a <= b.
_COMPOUND = np.triu(np.ones((6, 6), dtype=bool))
_COMPOUND_ROW, _COMPOUND_COL = np.nonzero(_COMPOUND)
_RC_TERMS = _matmul_terms(np.ndindex(6, 6), np.ones((6, 6), dtype=bool),
                          _COMPOUND)
_CTRC_TERMS = _matmul_terms(zip(_SYM6_I, _SYM6_J), _COMPOUND.T,
                            np.ones((6, 6), dtype=bool))


def weyl_jets(riem: np.ndarray, frame: Coframe, order: int) -> np.ndarray:
    """W+ and W- as jets of order `order`: (2, 3, 3, nc), plus block first.

    In frame.forms' basis the curvature operator's diagonal blocks are
    W+ + (R/12) 1 and W- + (R/12) 1, and W+- are trace free, so each is its
    block with the trace taken out.  The blocks are constant projections
    B R_f B^T of the frame curvature operator R_f = C^T R C, with R_AB the
    coordinate operator on the pairs A, B of algebra.PAIRS and C = Lambda^2 E,
    whose entries are the 2x2 minors E_ia E_jb - E_ja E_ib of the frame E.
    E is upper triangular, so C is too in PAIRS order: its 21 minors are
    formed, T = R C skips C's zero triangle, and R_f, symmetric, is formed
    on its pairs a <= b from C^T T and gathered whole.
    """
    nc = n_coeffs(order)
    e = frame.e[..., :nc]
    i, j = _PAIR_I[_COMPOUND_ROW], _PAIR_J[_COMPOUND_ROW]
    a, b = _PAIR_I[_COMPOUND_COL], _PAIR_J[_COMPOUND_COL]
    minors = mul_coeffs(np.stack([e[i, a], e[j, a]]),
                        np.stack([e[j, b], e[i, b]]), order, order, order)
    c = np.zeros((6, 6, nc))
    c[_COMPOUND_ROW, _COMPOUND_COL] = minors[0] - minors[1]
    r6 = riem[_PAIR_I[:, None], _PAIR_J[:, None], _PAIR_I, _PAIR_J, :nc]
    t = _pruned_matmul(r6, c, _RC_TERMS, order, order, order)
    rf = _pruned_matmul(np.swapaxes(c, 0, 1), t.reshape(6, 6, nc),
                        _CTRC_TERMS, order, order, order)[_SYM6]
    basis = frame.forms[:, :, _PAIR_I, _PAIR_J]         # (2, 3, 6)
    m = np.einsum("sxa,abc,syb->sxyc", basis, rf, basis)
    trace = np.einsum("sxxc->sc", m) / 3.0
    return m - np.einsum("xy,sc->sxyc", np.eye(3), trace)


def covariant_derivative(t: np.ndarray, order_t: int, frame: np.ndarray,
                         conn: np.ndarray, slots) -> np.ndarray:
    """Covariant derivative of a jet tensor in a frame; new slot appended last.

    (nabla T)_{i1..ir, c} = frame[j, c] d_j T_{i1..ir}
                            - sum_a (slots[a] . conn)[m, i_a, c] T_{..m..}.
    `frame` holds the frame vectors e_c = frame[j, c] d_j as jets (the
    identity for coordinate components).  conn[G, c] are the connection's
    independent components as jets, and slots[a] is a constant map
    (.., m, i, G) from them to the connection matrix acting on slot a, or
    None for a slot it does not act on; leading axes that slots[a] has
    beyond (m, i, G) run along t's leading axes.  A W-blocks stack takes a
    Coframe's conn with (None, sector_map, sector_map, vector_map, ..);
    coordinate tensors take Gamma^m_ci as conn[(m, i), c] with the identity
    map on every slot.  The result has order order_t - 1, and frame and
    conn are read to that order.  Each term is one contraction against a
    multiplication operator: frame's, and the maps applied to conn's.
    """
    oo = order_t - 1
    n = n_coeffs(oo)
    d = gradient_coeffs(t, order_t)
    out = contract_slot(d, mul_operator(frame[..., :n], oo, oo, oo),
                        d.ndim - 2)
    conn_op = mul_operator(conn[..., :n], oo, oo, oo)
    tt = t[..., :n]
    ops = {}
    for a, slot_map in enumerate(slots):
        if slot_map is None:
            continue
        if id(slot_map) not in ops:
            ops[id(slot_map)] = np.tensordot(slot_map, conn_op, axes=1)
        lead = slot_map.ndim - 3
        for idx in np.ndindex(slot_map.shape[:lead]):
            out[idx] -= contract_slot(tt[idx], ops[id(slot_map)][idx],
                                      a - lead)
    return out


def raise_all_indices(t: np.ndarray, ginv: np.ndarray, order: int) -> np.ndarray:
    """Raise every tensor index of an all-lower jet tensor.

    The frame pipeline raises no index; the coordinate path that the tests
    compare it against does."""
    op = mul_operator(ginv[..., :n_coeffs(order)], order, order, order)
    out = t
    for a in range(t.ndim - 1):
        out = contract_slot(out, op, a)
    return out


def _sector_squares(t: np.ndarray, order: int) -> np.ndarray:
    """Sum of squares of each sector block of a W-blocks stack: (2, nc)."""
    tt = t[..., :n_coeffs(order)]
    sq = mul_coeffs(tt, tt, order, order, order)
    return sq.reshape(2, -1, sq.shape[-1]).sum(axis=1)


def norm_sq_field(t: np.ndarray, order: int) -> np.ndarray:
    """|T|^2 of a W-blocks stack as a scalar jet field.

    Each sector basis two-form has two nonzero frame components per pair
    and unit norm, so the full frame components of T square-sum to four
    times its blocks'.
    """
    return 4.0 * _sector_squares(t, order).sum(axis=0)


def epsilon_jets(g: np.ndarray, order: int, orientation: int) -> np.ndarray:
    """Scalar jet orientation * sqrt(det g); eps_ijkl is it times [ijkl].

    The frame pipeline takes the star from the sector blocks; the coordinate
    path that the tests compare it against uses this."""
    gt = g[..., :n_coeffs(order)]
    # Leibniz expansion over the 24 permutations of columns
    term = gt[0, _PERM_INDEX[:, 0]]
    for r in range(1, DIM):
        term = mul_coeffs(term, gt[r, _PERM_INDEX[:, r]], order, order, order)
    det = (_PERM_SIGN[:, None] * term).sum(axis=0)
    return orientation * jets.sqrt(Jet(order, det)).coeffs


def duality_cross_field(t: np.ndarray, order: int) -> np.ndarray:
    """<T, *T> of a W-blocks stack as a scalar jet field, star acting on the
    leading index pair.

    The Hodge star is +1 on the plus block and -1 on the minus block, so
    <T, *T> = |T^+|^2 - |T^-|^2 = 4 (|T_+ blocks|^2 - |T_- blocks|^2), and
    the sector halves of |T|^2 are |T^pm|^2 = (|T|^2 pm <T, *T>) / 2.
    """
    sq = _sector_squares(t, order)
    return 4.0 * (sq[0] - sq[1])


# Where d_p f and d_p d_q f sit at the expansion point among f's jet
# coefficients: at x_p, and at x_p x_q times d_p d_q (x_p x_q), which is 2
# on the diagonal.
_UNIT = np.eye(DIM, dtype=int)
_GRAD_INDEX = np.array([jets.MONO_INDEX[tuple(e)] for e in _UNIT])
_HESS_INDEX = np.array([[jets.MONO_INDEX[tuple(p + q)] for q in _UNIT]
                        for p in _UNIT])
_HESS_FACTOR = 1.0 + np.eye(DIM)


def scalar_jet_laplacian(f: np.ndarray, order_f: int, ginv0: np.ndarray,
                         gamma0: np.ndarray) -> float:
    """Rough Laplacian of a scalar jet at the expansion point.

    Delta f = g^pq (d_p d_q f - Gamma^r_pq d_r f), with d_p f and
    d_p d_q f read off the jet's degree-1 and degree-2 coefficients.
    """
    if order_f < 2:
        raise CapacityError("scalar Laplacian needs a jet of order >= 2")
    grad = f[..., _GRAD_INDEX]
    hess = f[..., _HESS_INDEX] * _HESS_FACTOR
    corr = np.einsum("rpq,r->pq", gamma0, grad)
    return float(np.einsum("pq,pq->", ginv0, hess - corr))


# ---------------------------------------------------------------------------
# Orthonormal frames
# ---------------------------------------------------------------------------

def _cholesky_frame(g0: np.ndarray) -> np.ndarray:
    """E0 with E0^T g0 E0 = I and det E0 > 0 (inverse Cholesky transpose)."""
    try:
        chol = np.linalg.cholesky(g0)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"metric not positive definite: {exc}") from exc
    return np.linalg.inv(chol).T


@dataclass(frozen=True)
class Coframe:
    """An orthonormal frame of a metric as jets, with its connection.

    e[j, a] = E^j_a, the frame vectors e_a = E^j_a d_j.
    forms[s, x] are the orthonormal basis two-forms
    sector_seed(+-1, orientation) / sqrt 2 of Lambda+ (s = 0) and Lambda-
    (s = 1) as 4x4 matrices, B_G for G = (s, x) in (6,).  With the two-form
    inner product <X, Y> = (1/2) X_ij Y_ij:

    - conn[G, c] = <B_G, Omega_c>, Omega_c[m, a] = <nabla_{e_c} e_a, e_m>:
      the six so(4) components of the connection along each frame vector,
      so Omega = vector_map . conn with vector_map[m, a, G] = B_G[m, a];
    - sector_map = algebra.sector_action(forms), [s, y, x, G] =
      <B_sy, [B_G, B_sx]>: sector_map . conn is the connection's action on
      the Lambda+- basis (A+ and A-), zero across sectors.
    """

    e: np.ndarray
    conn: np.ndarray
    forms: np.ndarray
    vector_map: np.ndarray
    sector_map: np.ndarray


# Term tables of the coframe's jet products.  V, its derivatives and E are
# upper triangular, so a product skips their lower triangles; V^T S V = 1 is
# symmetric and V_d is read off its upper triangle, and omega is
# antisymmetric and formed on its pairs m < a.
_SV_TERMS = _matmul_terms(np.ndindex(DIM, DIM), _FULL, _UPPER)    # S V
_Q_TERMS = _matmul_terms(zip(_SYM_I, _SYM_J), _UPPER.T, _FULL)    # V^T (S V)
_Y_TERMS = _matmul_terms(algebra.PAIRS, _FULL, _UPPER)            # y, l < a
_OMEGA_TERMS = _matmul_terms(algebra.PAIRS, _UPPER.T,             # V^T y
                             np.triu(_UPPER, 1))
_CONN_TERMS = _matmul_terms(np.ndindex(6, DIM), _FULL, _UPPER)    # omega E


def orthonormal_frame(g: np.ndarray, order: int,
                      orientation: int = 1) -> Coframe:
    """The orthonormal frame E of the metric jets g, as order-`order` jets.

    E^T g E = I with E upper triangular and of positive diagonal: the
    inverse transpose of the Cholesky factor of g, so det E > 0.  Its
    constant term E0 comes from the Cholesky factor of g0.  With
    S = E0^T g E0 and E = E0 V, V = 1 + V_1 + V_2 + .. upper triangular,
    degree d of V^T S V = 1 reads V_d + V_d^T + Q_d = 0, where Q_d is degree
    d of V^T S V with V taken through degree d-1.  So V_d is the upper
    triangle of -Q_d with half its diagonal: per degree one product S V
    and the upper triangle of V^T (S V), each skipping V's zero lower
    triangle.

    The connection, to order-1, comes from Gamma and dE:
    omega[m, a, k] = (E^T (g d_k E + Gamma_{.,k.} E))_ma with the
    first-kind symbols Gamma_{l,ki}, antisymmetric in (m, a) and so formed
    on its six components m < a, and conn from omega along e_c = E^k_c d_k;
    order must be >= 1.
    """
    if order < 1:
        raise CapacityError("the coframe needs jet order >= 1")
    e0 = _cholesky_frame(g[..., 0])
    nc = n_coeffs(order)
    s = np.einsum("ia,ijc,jb->abc", e0, g[..., :nc], e0)
    v = np.zeros((DIM, DIM, nc))
    v[..., 0] = np.eye(DIM)
    half = np.where(_SYM_I == _SYM_J, 0.5, 1.0)[:, None]
    vt = np.swapaxes(v, 0, 1)
    for d in range(1, order + 1):
        sv = _pruned_matmul(s, v, _SV_TERMS, order, d - 1, d)
        q = _pruned_matmul(vt, sv.reshape(DIM, DIM, -1), _Q_TERMS, d - 1, d,
                           d)
        lo, hi = n_coeffs(d - 1), n_coeffs(d)
        v[_SYM_I, _SYM_J, lo:hi] = -half * q[:, lo:hi]
    e = np.einsum("ij,jbc->ibc", e0, v)

    # E^T g d_k E + E^T Gamma_{.,k.} E = V^T (S d_k V + E0^T Gamma_{.,k.} E0 V)
    # = V^T y: omega on its pairs m < a reads y on the pairs l < a only
    oc = order - 1
    n = n_coeffs(oc)
    dv = gradient_coeffs(v, order)                     # dv[l, a, k]
    rot = np.einsum("jm,jkxc,xi->mikc", e0,
                    first_kind_jets(g, order)[..., :n], e0)  # E0^T Gamma_k E0
    y = np.zeros((DIM, DIM, DIM, n))                    # y[l, a, k]
    y[_PAIR_I, _PAIR_J] = (
        _pruned_matmul(s[:, :, None, :n], dv, _Y_TERMS, oc, oc, oc)
        + _pruned_matmul(rot, v[:, :, None, :n], _Y_TERMS, oc, oc, oc))
    pairs = _pruned_matmul(vt[:, :, None, :n], y, _OMEGA_TERMS, oc, oc, oc)

    forms = algebra.sector_forms(orientation)
    basis = forms.reshape(6, DIM, DIM)
    along_k = np.einsum("Gp,pkn->Gkn", basis[:, _PAIR_I, _PAIR_J], pairs)
    conn = _pruned_matmul(along_k, e[..., :n], _CONN_TERMS, oc, oc,
                          oc).reshape(6, DIM, n)
    return Coframe(e=e, conn=conn, forms=forms,
                   vector_map=np.moveaxis(basis, 0, -1),
                   sector_map=algebra.sector_action(forms))


def to_frame(t: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Transform all-lower coordinate components into the orthonormal frame."""
    out = t
    for _ in range(t.ndim):
        out = np.tensordot(out, frame, axes=([0], [0]))
    return out


# ---------------------------------------------------------------------------
# Curvature evaluation at a point
# ---------------------------------------------------------------------------

# The coordinate frame d_j as an order-0 jet frame, and the map that takes
# Gamma^m_ci as conn[(m, i), c] to the connection of one coordinate slot.
_COORDINATES = np.eye(DIM)[..., None]
_COORDINATE_MAP = np.eye(DIM * DIM).reshape(DIM, DIM, DIM * DIM)

# The fields |nabla^k W|^2, k = 0, 1, 2; each carries its two duality halves.
LAPLACIAN_FIELDS = ("w", "dw", "d2w")

_LAP_STACK = {key: k for k, key in enumerate(LAPLACIAN_FIELDS)}

# Jet order of the scalar Laplacian fields: the highest Taylor degree
# scalar_jet_laplacian reads.
_FIELD_ORDER = 2


def required_jet_order(depth: int, laplacians=()) -> int:
    """Metric jet order needed for `depth` and the named Laplacian fields.

    This is the one jet-order plan of `curvature_at`.  Metric jets of order
    K give Riemann, the frame E and W at K-2, the connection at K-3 and
    nabla^k W at K-2-k, so depth d needs K >= d+2.  g^-1 = E E^T and Gamma
    are built to order K-2 only, all that Riemann's quadratic terms read.
    The fields |nabla^k W|^2 and <nabla^k W, *nabla^k W> are built at
    order 2, the highest degree `scalar_jet_laplacian` reads, so their
    Laplacians need K >= k+4.
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
    riem: np.ndarray
    ric: np.ndarray
    scalar: float
    weyl_blocks: dict        # k -> W+- blocks of nabla^k W: (2, 3, 3, 4, ..)
    forms: np.ndarray        # the blocks' basis two-forms, Coframe.forms
    nabla_riem: np.ndarray | None
    ric_deriv: np.ndarray | None
    cotton: np.ndarray | None
    laplacians: dict


def curvature_at(chart: MetricChart, point, depth: int = 2, laplacians=(),
                 jet_order: int | None = None) -> CurvaturePoint:
    """Evaluate curvature and derivative stacks at a chart point.

    `depth` is the highest covariant derivative of W to compute; each field
    `key` of LAPLACIAN_FIELDS in `laplacians` fills laplacians[key], [key +
    "_plus"] and [key + "_minus"].  The metric jet order is auto-selected
    unless given, and validated against the budget.
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
    o_r = order - 2
    # the connection has order one less than E; order 2 (depth 0) needs no
    # connection but builds E to order 1 all the same
    cof = orthonormal_frame(g, max(o_r, 1), chart.orientation)
    frame = cof.e[..., 0]
    # g^-1 and Gamma at order K-2: Riemann's quadratic terms read no more
    ginv = inverse_metric_jets(cof.e, o_r)
    gamma = christoffel_jets(g, ginv, order - 1)
    riem = riemann_jets(g, gamma, order)
    # Ricci and R are read at degree <= 1 only: their values, nabla Ric at
    # degree 0 and dR
    ric, rs = ricci_jets(riem, ginv, min(o_r, 1))
    weyl = weyl_jets(riem, cof, o_r)

    stacks = {0: weyl}
    for k in range(1, depth + 1):
        slots = (None, cof.sector_map, cof.sector_map) \
            + (cof.vector_map,) * (k - 1)
        stacks[k] = covariant_derivative(stacks[k - 1], o_r - k + 1, cof.e,
                                         cof.conn, slots)

    blocks = {k: stacks[k][..., 0] for k in stacks}
    riem_f = to_frame(riem[..., 0], frame)
    ric_f = to_frame(ric[..., 0], frame)
    scalar = float(rs[0])

    nabla_riem_f = ric_deriv_f = cotton = None
    if depth >= 1:
        # read at degree 0 only: order-1 coordinate components against the
        # constant Gamma, in the coordinate frame
        lin = n_coeffs(1)
        gam = np.swapaxes(gamma[..., :1], 1, 2).reshape(DIM * DIM, DIM, 1)
        nabla_riem = covariant_derivative(riem[..., :lin], 1, _COORDINATES,
                                          gam, (_COORDINATE_MAP,) * 4)
        nabla_riem_f = to_frame(nabla_riem[..., 0], frame)
        ric_deriv = covariant_derivative(ric[..., :lin], 1, _COORDINATES,
                                         gam, (_COORDINATE_MAP,) * 2)
        ric_deriv_f = to_frame(ric_deriv[..., 0], frame)
        d_scalar_f = frame.T @ gradient_coeffs(rs, 1)[:, 0]
        cotton = algebra.cotton_from_ricci(ric_deriv_f, d_scalar_f)

    lap = {}
    for k, key in enumerate(LAPLACIAN_FIELDS):
        if key not in laplacians:
            continue
        if k > depth:
            raise CapacityError(
                f"laplacian of |nabla^{k} W|^2 needs depth >= {k}")
        whole, cross = (
            scalar_jet_laplacian(fn(stacks[k], _FIELD_ORDER), _FIELD_ORDER,
                                 ginv[..., 0], gamma[..., 0])
            for fn in (norm_sq_field, duality_cross_field))
        lap[key] = whole
        lap[key + "_plus"] = 0.5 * (whole + cross)
        lap[key + "_minus"] = 0.5 * (whole - cross)

    return CurvaturePoint(
        chart=chart, point=point, frame=frame, orientation=chart.orientation,
        jet_order=order, riem=riem_f, ric=ric_f, scalar=scalar,
        weyl_blocks=blocks, forms=cof.forms, nabla_riem=nabla_riem_f,
        ric_deriv=ric_deriv_f, cotton=cotton, laplacians=lap)


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
