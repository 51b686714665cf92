"""Registry of pointwise curvature identities as residual checks.

Every check consumes a CurvaturePoint (plus duality-sector data where needed)
and returns a pair (residual_abs, scale): the residual is the norm of the
difference between the two sides, the scale the norm of the largest additive
term.  The suite divides by max(scale, |Riem|^(h/2), 1e-30) where h is the
identity's homogeneity weight (frame components of every term scale as c^-h
under g -> c^2 g), so relative residuals are scale invariant and "0 = 0"
points pass no matter how the round-off noise falls.

Identities carry a hypothesis gate (any metric / harmonic Weyl / Einstein /
Einstein with parallel sector), re-verified numerically at each point before
a check is marked applicable.  On the negative-control chart a designated set
of hypothesis-dependent identities is evaluated anyway and expected to be
violated; that expectation is part of the suite's pass criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import algebra, framecalc
from .charts import CurvaturePoint, required_jet_order

ein = np.einsum
DIM = 4

FLOOR = 1e-30

# Measured-gate thresholds (relative to curvature-scale floors).
EINSTEIN_GATE_RTOL = 1e-9
HARMONIC_GATE_RTOL = 1e-9
PARALLEL_GATE_RTOL = 1e-9
CONFORMAL_GATE_RTOL = 1e-9
SECTOR_NONZERO_RTOL = 1e-6
COTTON_NONZERO_RTOL = 1e-3


def _frobenius(a) -> float:
    """Frobenius norm by a plain sum of squares.

    np.linalg.norm calls BLAS ddot, whose partial sums, and so the last bit
    of the norm of a large residual, change with the BLAS thread count.
    """
    a = np.asarray(a)
    return float(np.sqrt((a * a).sum()))


class SectorPack:
    """Cached duality-sector data at a point."""

    def __init__(self, pd: "PointData", sign: int):
        cp = pd.cp
        self.sign = sign
        self.name = "plus" if sign == 1 else "minus"
        o = cp.orientation
        self.stacks = {k: algebra.project_sector(cp.nabla_w[k], sign, o)
                       for k in cp.nabla_w}
        self.w = self.stacks[0]
        self.w_norm = _frobenius(self.w)
        self.dw_norm = (_frobenius(self.stacks[1])
                        if 1 in self.stacks else 0.0)
        self.div_norm = (_frobenius(ein("tijkt->ijk", self.stacks[1]))
                         if 1 in self.stacks else 0.0)
        self.frame = algebra.derdzinski_frame(pd.blocks, self.name)
        self._ed = None
        # a scalar, not pd: a back-reference would make every point's arrays
        # a reference cycle that only the cyclic collector frees
        self._trivial_scale = pd.riem_norm ** 1.5

    @property
    def ed(self) -> framecalc.EigenframeDerivatives:
        if self._ed is None:
            self._ed = framecalc.extract_frame_derivatives(
                self.stacks[1], self.frame,
                trivial_scale=self._trivial_scale)
        return self._ed


class PointData:
    """A CurvaturePoint with cached norms, gates and sector packs."""

    def __init__(self, cp: CurvaturePoint):
        self.cp = cp
        self.W = cp.weyl
        self.ric = cp.ric
        self.R = cp.scalar
        self.riem = cp.riem
        self.riem_norm = _frobenius(cp.riem)
        self.w_norm = _frobenius(cp.weyl)
        self._sectors: dict[int, SectorPack] = {}
        self._blocks = None

    def nw(self, k: int) -> np.ndarray:
        try:
            return self.cp.nabla_w[k]
        except KeyError:
            from .charts import CapacityError
            raise CapacityError(
                f"derivative stack {k} not computed at this point") from None

    def lap(self, key: str) -> float:
        return self.cp.laplacians[key]

    @property
    def blocks(self) -> algebra.CurvatureOperatorBlocks:
        if self._blocks is None:
            self._blocks = algebra.lambda_split(
                self.riem, orientation=self.cp.orientation)
        return self._blocks

    def sector(self, sign: int) -> SectorPack:
        if sign not in self._sectors:
            self._sectors[sign] = SectorPack(self, sign)
        return self._sectors[sign]

    def floor(self, h: int) -> float:
        return max(self.riem_norm, 0.0) ** (h / 2.0)

    # -- measured hypothesis gates ------------------------------------------

    @property
    def dw_norm(self) -> float:
        return _frobenius(self.nw(1))

    @property
    def div_w_norm(self) -> float:
        return _frobenius(ein("tijkt->ijk", self.nw(1)))

    @property
    def is_einstein(self) -> bool:
        ric0 = self.ric - (self.R / 4.0) * np.eye(DIM)
        return _frobenius(ric0) <= \
            EINSTEIN_GATE_RTOL * max(self.riem_norm, FLOOR)

    @property
    def is_harmonic(self) -> bool:
        scale = max(self.dw_norm, self.riem_norm ** 1.5, FLOOR)
        return self.div_w_norm <= HARMONIC_GATE_RTOL * scale

    def is_sector_harmonic(self, sign: int) -> bool:
        pack = self.sector(sign)
        scale = max(pack.dw_norm, self.riem_norm ** 1.5, FLOOR)
        return pack.div_norm <= HARMONIC_GATE_RTOL * scale

    @property
    def is_parallel(self) -> bool:
        return self.dw_norm <= PARALLEL_GATE_RTOL * \
            max(self.riem_norm ** 1.5, FLOOR)

    def is_sector_parallel(self, sign: int) -> bool:
        return self.sector(sign).dw_norm <= PARALLEL_GATE_RTOL * \
            max(self.riem_norm ** 1.5, FLOOR)

    def sector_nonzero(self, sign: int) -> bool:
        return self.sector(sign).w_norm > \
            SECTOR_NONZERO_RTOL * max(self.riem_norm, FLOOR)

    @property
    def is_conformally_flat(self) -> bool:
        return self.w_norm <= CONFORMAL_GATE_RTOL * max(self.riem_norm, FLOOR)

    @property
    def is_ricci_flat(self) -> bool:
        return _frobenius(self.ric) <= \
            EINSTEIN_GATE_RTOL * max(self.riem_norm, FLOOR)

    @property
    def cotton_nonzero(self) -> bool:
        return _frobenius(self.cp.cotton) > \
            COTTON_NONZERO_RTOL * max(self.riem_norm ** 1.5, FLOOR)

    @property
    def gradw_nontrivial(self) -> bool:
        """|nabla W|^2 > 1e-6 |W|^2 at unit chart length scale."""
        return self.dw_norm ** 2 > 1e-6 * self.w_norm ** 2


# ---------------------------------------------------------------------------
# Evaluators: each returns (residual_abs, scale)
# ---------------------------------------------------------------------------

def _norms(*arrays) -> float:
    return max(_frobenius(a) for a in arrays)


def ev_weyl_decomposition(pd: PointData):
    w = pd.W
    traces = max(np.abs(ein("iikl->kl", w)).max(),
                 np.abs(ein("ijil->jl", w)).max(),
                 np.abs(ein("ijki->jk", w)).max(),
                 np.abs(ein("ijjl->il", w)).max(),
                 np.abs(ein("ijkj->ik", w)).max(),
                 np.abs(ein("ijkk->ij", w)).max())
    sym = max(np.abs(w + ein("jikl->ijkl", w)).max(),
              np.abs(w + ein("ijlk->ijkl", w)).max(),
              np.abs(w - ein("klij->ijkl", w)).max())
    return max(traces, sym), pd.riem_norm


def ev_conformal_flat(pd: PointData):
    return pd.w_norm, pd.riem_norm


def ev_riemann_einstein_form(pd: PointData):
    d = np.eye(DIM)
    rhs = pd.W + (pd.R / 12.0) * (ein("ik,jt->ijkt", d, d)
                                  - ein("it,jk->ijkt", d, d))
    return _norms(pd.riem - rhs), _norms(pd.riem, rhs)


def ev_block_decomposition(pd: PointData):
    d = np.eye(DIM)
    ric0 = pd.ric - (pd.R / 4.0) * d
    kn_ric = (ein("ik,jl->ijkl", ric0, d) - ein("il,jk->ijkl", ric0, d)
              + ein("ik,jl->ijkl", d, ric0) - ein("il,jk->ijkl", d, ric0))
    kn_gg = 2.0 * (ein("ik,jl->ijkl", d, d) - ein("il,jk->ijkl", d, d))
    rebuilt = pd.W + 0.5 * kn_ric + (pd.R / 24.0) * kn_gg
    m_direct = algebra.pair_matrix(pd.riem)
    m_rebuilt = algebra.pair_matrix(rebuilt)
    res = np.abs(m_direct - m_rebuilt).max()
    blocks = pd.blocks
    res = max(res, abs(np.trace(blocks.w_plus)), abs(np.trace(blocks.w_minus)),
              np.abs(blocks.reassemble() - m_direct).max())
    return float(res), float(np.abs(m_direct).max())


def ev_bianchi1(pd: PointData):
    w = pd.W
    res = w + ein("itjk->ijkt", w) + ein("iktj->ijkt", w)
    return np.abs(res).max(), np.abs(w).max()


def ev_cotton_symmetries(pd: PointData):
    c = pd.cp.cotton
    res = max(np.abs(c + ein("ikj->ijk", c)).max(),
              np.abs(c + ein("jki->ijk", c) + ein("kij->ijk", c)).max())
    return float(res), float(np.abs(c).max())


def ev_cotton_traces(pd: PointData):
    c = pd.cp.cotton
    res = max(np.abs(ein("iik->k", c)).max(), np.abs(ein("iji->j", c)).max(),
              np.abs(ein("ijj->i", c)).max())
    return float(res), float(np.abs(c).max())


def ev_cotton_defs_agree(pd: PointData):
    c1, c2 = pd.cp.cotton, pd.cp.cotton_div
    return _norms(c1 - c2), _norms(c1, c2)


def ev_harmall(pd: PointData):
    div_w = ein("tijkt->ijk", pd.nw(1))
    div_riem = ein("tijkt->ijk", pd.cp.nabla_riem)
    res = _norms(div_w, div_riem)
    return res, _norms(pd.nw(1), pd.cp.nabla_riem)


def ev_fake_second_bianchi(pd: PointData):
    nw, c, d = pd.nw(1), pd.cp.cotton, np.eye(DIM)
    lhs = nw + ein("ijlkt->ijktl", nw) + ein("ijtlk->ijktl", nw)
    rhs = 0.5 * (ein("itl,jk->ijktl", c, d) + ein("ilk,jt->ijktl", c, d)
                 + ein("ikt,jl->ijktl", c, d) - ein("jtl,ik->ijktl", c, d)
                 - ein("jlk,it->ijktl", c, d) - ein("jkt,il->ijktl", c, d))
    return _norms(lhs - rhs), max(_norms(nw), _norms(c))


def ev_gradweyl_general(pd: PointData):
    nw = pd.nw(1)
    lhs = float(ein("ijklt,ijktl->", nw, nw))
    ndw2 = float((nw ** 2).sum())
    div2 = float((ein("tijkt->ijk", nw) ** 2).sum())
    rhs = 0.5 * ndw2 - div2
    return abs(lhs - rhs), max(abs(lhs), 0.5 * ndw2, div2)


def ev_gradweyl_harmonic(pd: PointData):
    nw = pd.nw(1)
    lhs = float(ein("ijklt,ijktl->", nw, nw))
    rhs = 0.5 * float((nw ** 2).sum())
    return abs(lhs - rhs), max(abs(lhs), rhs)


def _commutator2(pd: PointData):
    nw2 = pd.nw(2)
    return nw2 - ein("ijklts->ijklst", nw2)


def ev_commute2_riemann(pd: PointData):
    w, riem = pd.W, pd.riem
    lhs = _commutator2(pd)
    rhs = (ein("rjkl,rist->ijklst", w, riem) + ein("irkl,rjst->ijklst", w, riem)
           + ein("ijrl,rkst->ijklst", w, riem)
           + ein("ijkr,rlst->ijklst", w, riem))
    return _norms(lhs - rhs), max(_norms(lhs), pd.w_norm * pd.riem_norm)


def _ric_coupling(w, ric, d, wstr, x):
    return (ein(f"{wstr},rs,{x}t->ijklst", w, ric, d)
            - ein(f"{wstr},rt,{x}s->ijklst", w, ric, d)
            + ein(f"{wstr},{x}t,rs->ijklst", w, ric, d)
            - ein(f"{wstr},{x}s,rt->ijklst", w, ric, d))


def ev_commute2_weyl_ricci(pd: PointData):
    w, ric, rs, d = pd.W, pd.ric, pd.R, np.eye(DIM)
    lhs = _commutator2(pd)
    ww = (ein("rjkl,rist->ijklst", w, w) + ein("irkl,rjst->ijklst", w, w)
          + ein("ijrl,rkst->ijklst", w, w) + ein("ijkr,rlst->ijklst", w, w))
    ric_part = 0.5 * (_ric_coupling(w, ric, d, "rjkl", "i")
                      + _ric_coupling(w, ric, d, "irkl", "j")
                      + _ric_coupling(w, ric, d, "ijrl", "k")
                      + _ric_coupling(w, ric, d, "ijkr", "l"))

    def r_term(wstr, x):
        return (ein(f"{wstr},rs,{x}t->ijklst", w, d, d)
                - ein(f"{wstr},rt,{x}s->ijklst", w, d, d))

    r_part = (rs / 6.0) * (r_term("rjkl", "i") + r_term("irkl", "j")
                           + r_term("ijrl", "k") + r_term("ijkr", "l"))
    rhs = ww + ric_part - r_part
    scale = max(_norms(lhs), pd.w_norm ** 2,
                pd.w_norm * _frobenius(ric))
    return _norms(lhs - rhs), scale


def _einstein_commutator_rhs(pd: PointData):
    w, rs, d = pd.W, pd.R, np.eye(DIM)
    return (ein("rjkl,rist->ijklst", w, w) + ein("irkl,rjst->ijklst", w, w)
            + ein("ijrl,rkst->ijklst", w, w) + ein("ijkr,rlst->ijklst", w, w)
            + (rs / 12.0) * (
                ein("sjkl,it->ijklst", w, d) - ein("tjkl,is->ijklst", w, d)
                + ein("iskl,jt->ijklst", w, d) - ein("itkl,js->ijklst", w, d)
                + ein("ijsl,kt->ijklst", w, d) - ein("ijtl,ks->ijklst", w, d)
                + ein("ijks,lt->ijklst", w, d) - ein("ijkt,ls->ijklst", w, d)))


def ev_commute2_einstein(pd: PointData):
    lhs = _commutator2(pd)
    rhs = _einstein_commutator_rhs(pd)
    scale = max(_norms(lhs), pd.w_norm ** 2, abs(pd.R) * pd.w_norm / 12.0)
    return _norms(lhs - rhs), scale


def ev_commute2_einstein_contracted(pd: PointData):
    w, rs = pd.W, pd.R
    lhs = ein("ijklsi->jkls", pd.nw(2))
    rhs = (ein("irkl,rjsi->jkls", w, w) + ein("ijrl,rksi->jkls", w, w)
           + ein("ijkr,rlsi->jkls", w, w) + (rs / 4.0) * ein("sjkl->jkls", w))
    scale = max(_norms(lhs), pd.w_norm ** 2, abs(rs) * pd.w_norm / 4.0)
    return _norms(lhs - rhs), scale


def ev_commute3_direct(pd: PointData):
    nw, nw3, riem = pd.nw(1), pd.nw(3), pd.riem
    lhs = nw3 - ein("ijkltsr->ijkltrs", nw3)
    rhs = (ein("vjklt,virs->ijkltrs", nw, riem)
           + ein("ivklt,vjrs->ijkltrs", nw, riem)
           + ein("ijvlt,vkrs->ijkltrs", nw, riem)
           + ein("ijkvt,vlrs->ijkltrs", nw, riem)
           + ein("ijklv,vtrs->ijkltrs", nw, riem))
    scale = max(_norms(lhs), _norms(nw) * pd.riem_norm)
    return _norms(lhs - rhs), scale


def commutation_k_residual(pd: PointData, k: int):
    """General k-th order commutation: swap the last two derivative slots.

    Right side: four Weyl-slot couplings of nabla^(k-2) W with Riemann plus
    one coupling per surviving derivative slot.
    """
    if k < 3:
        raise ValueError("commutation_k applies to k >= 3")
    base = pd.nw(k - 2)
    top = pd.nw(k)
    riem = pd.riem
    rank = 4 + k
    letters = "abcdefghijkl"[:rank]
    swapped = letters[:-2] + letters[-1] + letters[-2]
    lhs = top - ein(f"{swapped}->{letters}", top)
    i1, i2 = letters[-2], letters[-1]
    rhs = np.zeros_like(top)
    for slot in range(4 + (k - 2)):
        src = letters[:4 + (k - 2)]
        repl = src[:slot] + "p" + src[slot + 1:]
        rhs = rhs + ein(f"{repl},p{src[slot]}{i1}{i2}->{letters}", base, riem,
                        optimize=True)
    scale = max(_norms(lhs), _norms(base) * pd.riem_norm)
    return _norms(lhs - rhs), scale


def ev_algebra_quadratic(pd: PointData, sign: int | None = None):
    w = pd.W if sign is None else pd.sector(sign).w
    res, scale = algebra.quadratic_identity_residual(w)
    return float(res), float(scale)


def ev_algebra_cubic(pd: PointData, sign: int | None = None):
    w = pd.W if sign is None else pd.sector(sign).w
    res, scale = algebra.cubic_identity_residual(w)
    return float(res), float(scale)


def ev_algebra_quartic(pd: PointData, sign: int):
    res, scale = algebra.quartic_identity_residual(pd.sector(sign).w)
    return float(res), float(scale)


def ev_algebra_quaternionic(pd: PointData):
    res = max(algebra.quaternionic_residual(pd.sector(1).frame),
              algebra.quaternionic_residual(pd.sector(-1).frame))
    return res, 1.0


def ev_derdzinski_reconstruction(pd: PointData):
    res = 0.0
    for sign in (1, -1):
        pack = pd.sector(sign)
        res = max(res, _norms(pack.frame.reconstruct() - pack.w))
    return res, pd.w_norm


def ev_derder_reconstruction(pd: PointData, sign: int):
    pack = pd.sector(sign)
    ed = pack.ed
    return max(ed.recon_residual, ed.consistency_gap), \
        float(np.abs(pack.stacks[1]).max()) if 1 in pack.stacks else 0.0


def ev_derder_norm(pd: PointData, sign: int):
    pack = pd.sector(sign)
    return framecalc.norm_expansion_residual(pack.ed, pack.stacks[1])


def ev_derder_cubic(pd: PointData, sign: int):
    pack = pd.sector(sign)
    return framecalc.cubic_contraction_residual(pack.w, pack.stacks[1],
                                                pack.frame, pack.ed)


def ev_divz_relations(pd: PointData, sign: int):
    pack = pd.sector(sign)
    return framecalc.div_free_relations_residual(pack.ed, pack.frame)


def _key1_terms(w, nw):
    lhs = float(ein("ijkl,jpqtk,ipqtl->", w, nw, nw, optimize=True))
    rhs = -0.5 * float(ein("ijkl,ijpqt,klpqt->", w, nw, nw, optimize=True))
    return lhs, rhs


def ev_key1(pd: PointData, sign: int | None = None):
    if sign is None:
        w, nw = pd.W, pd.nw(1)
    else:
        pack = pd.sector(sign)
        w, nw = pack.w, pack.stacks[1]
    lhs, rhs = _key1_terms(w, nw)
    return abs(lhs - rhs), max(abs(lhs), abs(rhs))


def ev_key2(pd: PointData, sign: int | None = None):
    if sign is None:
        w, nw = pd.W, pd.nw(1)
    else:
        pack = pd.sector(sign)
        w, nw = pack.w, pack.stacks[1]
    lhs = float(ein("ijkl,ipkqt,jplqt->", w, nw, nw, optimize=True))
    rhs = 0.5 * float(ein("ijkl,ijpqt,klpqt->", w, nw, nw, optimize=True))
    return abs(lhs - rhs), max(abs(lhs), abs(rhs))


def ev_mix_orthogonality(pd: PointData):
    plus, minus = pd.sector(1), pd.sector(-1)
    m1 = float(ein("ijkl,jpqtk,ipqtl->", plus.w, minus.stacks[1],
                   minus.stacks[1], optimize=True))
    m2 = float(ein("ijkl,jpqtk,ipqtl->", minus.w, plus.stacks[1],
                   plus.stacks[1], optimize=True))
    scale = max(plus.w_norm * _norms(minus.stacks[1]) ** 2,
                minus.w_norm * _norms(plus.stacks[1]) ** 2)
    return max(abs(m1), abs(m2)), scale


def _delta_w(pd: PointData):
    return ein("ijklss->ijkl", pd.nw(2))


def ev_laplacian_harmonic_weyl(pd: PointData):
    """General-dimension Laplacian of a divergence-free Weyl tensor at n = 4."""
    w, ric, d = pd.W, pd.ric, np.eye(DIM)
    lhs = _delta_w(pd)
    rhs = (ein("ip,pjkl->ijkl", ric, w) - ein("jp,pikl->ijkl", ric, w)
           - 2.0 * (ein("ipjq,pqkl->ijkl", w, w)
                    - ein("ipql,jpqk->ijkl", w, w)
                    + ein("ipqk,jpql->ijkl", w, w))
           + 0.5 * (ein("jp,pikl->ijkl", ric, w) - ein("ip,pjkl->ijkl", ric, w)
                    + ein("lp,pjki->ijkl", ric, w)
                    - ein("lp,pikj->ijkl", ric, w)
                    - ein("kp,pjli->ijkl", ric, w)
                    + ein("kp,pilj->ijkl", ric, w))
           + 0.5 * (ein("pq,piql,kj->ijkl", ric, w, d)
                    - ein("pq,pjql,ki->ijkl", ric, w, d)
                    + ein("pq,pikq,lj->ijkl", ric, w, d)
                    - ein("pq,pjkq,li->ijkl", ric, w, d)))
    scale = max(_norms(lhs), pd.w_norm ** 2,
                pd.w_norm * _frobenius(ric))
    return _norms(lhs - rhs), scale


def ev_laplacian_4d(pd: PointData):
    """Four-dimensional harmonic-Weyl Laplacian: Delta W = R/2 W - 2(...)."""
    w = pd.W
    lhs = _delta_w(pd)
    rhs = (pd.R / 2.0) * w - 2.0 * (ein("ipjq,pqkl->ijkl", w, w)
                                    - ein("ipql,jpqk->ijkl", w, w)
                                    + ein("ipqk,jpql->ijkl", w, w))
    scale = max(_norms(lhs), abs(pd.R) * pd.w_norm / 2.0, pd.w_norm ** 2)
    return _norms(lhs - rhs), scale


def _w3_pair(w):
    return float(ein("ijkl,ijpq,klpq->", w, w, w, optimize=True))


def ev_bochner1_general(pd: PointData):
    w, ric = pd.W, pd.ric
    lhs = 0.5 * pd.lap("w")
    ndw2 = float((pd.nw(1) ** 2).sum())
    ricterm = 2.0 * float(ein("pq,pikl,qikl->", ric, w, w, optimize=True))
    w3c = float(ein("ijkl,ipkq,jplq->", w, w, w, optimize=True))
    rhs = ndw2 + ricterm - 2.0 * (2.0 * w3c + 0.5 * _w3_pair(w))
    scale = max(abs(lhs), ndw2, abs(ricterm), 4.0 * abs(w3c),
                abs(_w3_pair(w)))
    return abs(lhs - rhs), scale


def ev_bochner1_4d(pd: PointData):
    w = pd.W
    lhs = 0.5 * pd.lap("w")
    ndw2 = float((pd.nw(1) ** 2).sum())
    w3 = _w3_pair(w)
    rhs = ndw2 + (pd.R / 2.0) * pd.w_norm ** 2 - 3.0 * w3
    scale = max(abs(lhs), ndw2, abs(pd.R) * pd.w_norm ** 2 / 2.0,
                3.0 * abs(w3))
    return abs(lhs - rhs), scale


def ev_bochner1_sector(pd: PointData, sign: int):
    pack = pd.sector(sign)
    lhs = 0.5 * pd.lap("w_" + pack.name)
    ndw2 = float((pack.stacks[1] ** 2).sum())
    w3 = _w3_pair(pack.w)
    rhs = ndw2 + (pd.R / 2.0) * pack.w_norm ** 2 - 3.0 * w3
    scale = max(abs(lhs), ndw2, abs(pd.R) * pack.w_norm ** 2 / 2.0,
                3.0 * abs(w3))
    return abs(lhs - rhs), scale


def _rough_bochner1(pd: PointData, lap_value, w4, s1, s2, s3, riemann_form):
    """Common core of the first rough Bochner formula.

    lap_value = Delta |nabla W_s|^2; s1..s3 are the (possibly projected)
    derivative stacks; `w4` is the full Weyl tensor for the Weyl-form terms.
    """
    lhs = 0.5 * lap_value
    n2 = float((s2 ** 2).sum())
    ndw2 = float((s1 ** 2).sum())
    inner = float(ein("ijklt,ijklsst->", s1, s3, optimize=True))
    if riemann_form:
        coupling = 8.0 * float(ein("ijkls,rjklt,rist->", s1, s1, pd.riem,
                                   optimize=True))
        rhs = n2 + inner + (pd.R / 4.0) * ndw2 + coupling
    else:
        coupling = 8.0 * float(ein("ijkls,rjklt,rist->", s1, s1, w4,
                                   optimize=True))
        grad_contr = float(ein("ijkls,sjkli->", s1, s1))
        rhs = n2 + inner + (pd.R / 4.0) * ndw2 + coupling \
            + (2.0 / 3.0) * pd.R * grad_contr
    scale = max(abs(lhs), n2, abs(inner), abs(pd.R) * ndw2 / 4.0,
                abs(coupling))
    return abs(lhs - rhs), scale


def ev_bochner2_pro_boch(pd: PointData):
    return _rough_bochner1(pd, pd.lap("dw"), pd.W, pd.nw(1), pd.nw(2),
                           pd.nw(3), riemann_form=True)


def ev_bochner2_pro_boch_weyl(pd: PointData):
    return _rough_bochner1(pd, pd.lap("dw"), pd.W, pd.nw(1), pd.nw(2),
                           pd.nw(3), riemann_form=False)


def ev_bochner2_sector(pd: PointData, sign: int):
    pack = pd.sector(sign)
    return _rough_bochner1(pd, pd.lap("dw_" + pack.name), pd.W,
                           pack.stacks[1], pack.stacks[2], pack.stacks[3],
                           riemann_form=True)


def ev_bochner2_teo_sbf(pd: PointData):
    w, nw = pd.W, pd.nw(1)
    lhs = 0.5 * pd.lap("dw")
    n2 = float((pd.nw(2) ** 2).sum())
    ndw2 = float((nw ** 2).sum())
    w3t = float(ein("ijkl,ijpqt,klpqt->", w, nw, nw, optimize=True))
    rhs = n2 + (13.0 / 12.0) * pd.R * ndw2 - 10.0 * w3t
    scale = max(abs(lhs), n2, abs(pd.R) * ndw2 * 13.0 / 12.0, 10.0 * abs(w3t))
    return abs(lhs - rhs), scale


def ev_lem_paolo(pd: PointData):
    w, nw = pd.W, pd.nw(1)
    lhs = float(ein("ijklt,ijklsst->", nw, pd.nw(3), optimize=True))
    ndw2 = float((nw ** 2).sum())
    w3t = float(ein("ijkl,ijpqt,klpqt->", w, nw, nw, optimize=True))
    rhs = 0.5 * pd.R * ndw2 - 6.0 * w3t
    scale = max(abs(lhs), abs(pd.R) * ndw2 / 2.0, 6.0 * abs(w3t))
    return abs(lhs - rhs), scale


def _rough_bochner2(pd: PointData, lap_value, s2, s3, s4):
    lhs = 0.5 * lap_value
    n3 = float((s3 ** 2).sum())
    n2 = float((s2 ** 2).sum())
    inner = float(ein("ijklsu,ijklsttu->", s2, s4, optimize=True))
    c8 = 8.0 * float(ein("ijkltr,pjklts,pirs->", s2, s2, pd.riem,
                         optimize=True))
    c2 = 2.0 * float(ein("ijkltr,ijklps,ptrs->", s2, s2, pd.riem,
                         optimize=True))
    rhs = n3 + inner + (pd.R / 4.0) * n2 + c8 + c2
    scale = max(abs(lhs), n3, abs(inner), abs(pd.R) * n2 / 4.0, abs(c8),
                abs(c2))
    return abs(lhs - rhs), scale


def ev_bochnerk_k2(pd: PointData):
    return _rough_bochner2(pd, pd.lap("d2w"), pd.nw(2), pd.nw(3), pd.nw(4))


def ev_bochnerk_k2_sector(pd: PointData, sign: int):
    pack = pd.sector(sign)
    return _rough_bochner2(pd, pd.lap("d2w_" + pack.name), pack.stacks[2],
                           pack.stacks[3], pack.stacks[4])


def ev_gap_pointwise(pd: PointData, sign: int):
    n2 = pd.sector(sign).w_norm ** 2
    lhs = 6.0 * n2
    rhs = pd.R ** 2
    return abs(lhs - rhs), max(lhs, abs(rhs))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentitySpec:
    """One registered residual check."""

    id: str
    anchors: tuple
    gate: str                 # hypothesis gate name
    depth: int                # covariant-derivative depth required
    laplacians: tuple         # scalar Laplacian fields required
    homogeneity: int          # weight h: terms scale as c^-h under g -> c^2 g
    tol: float                # default pass threshold on residual_rel
    evaluate: Callable
    sector: int | None = None

    @property
    def jet_order(self) -> int:
        """Metric jet order required, from the one plan in charts."""
        return required_jet_order(self.depth, self.laplacians)


@dataclass(frozen=True)
class OutOfScopeEntry:
    """Global (integral) statement listed for coverage, not checked."""

    id: str
    anchors: tuple
    note: str


def _sector_id(base: str, sign: int) -> str:
    return f"{base}-plus" if sign == 1 else f"{base}-minus"


def _build_registry():
    specs = [
        IdentitySpec("weyl.decomposition", ("Weyl",), "any", 0, (), 2,
                     1e-12, ev_weyl_decomposition),
        IdentitySpec("weyl.conformal-flat", ("Weyl",), "conformal", 0, (),
                     2, 1e-9, ev_conformal_flat),
        IdentitySpec("riemann.einstein-form", ("RiemannEinstein",), "einstein",
                     0, (), 2, 1e-10, ev_riemann_einstein_form),
        IdentitySpec("operator.block-decomposition", ("conv", "dec"), "any",
                     0, (), 2, 1e-10, ev_block_decomposition),
        IdentitySpec("bianchi1.weyl", ("bianchi1-weyl",), "any", 0, (), 2,
                     1e-12, ev_bianchi1),
        IdentitySpec("cotton.symmetries", ("CottonSym",), "any", 1, (), 3,
                     1e-10, ev_cotton_symmetries),
        IdentitySpec("cotton.traces", ("CottonTraces",), "any", 1, (), 3,
                     1e-10, ev_cotton_traces),
        IdentitySpec("cotton.defs-agree",
                     ("def_cot", "def_Cotton_comp_Weyl"), "any", 1, (), 3,
                     1e-8, ev_cotton_defs_agree),
        IdentitySpec("harmall.div-free", ("harmall",), "einstein", 1, (),
                     3, 1e-9, ev_harmall),
        IdentitySpec("bianchi2.fake-weyl", ("fake2ndBianchiWeyl",), "any", 1,
                     (), 3, 1e-8, ev_fake_second_bianchi),
        IdentitySpec("gradweyl.general", ("lem_GradWeylNorm",), "any", 1,
                     (), 6, 1e-8, ev_gradweyl_general),
        IdentitySpec("gradweyl.harmonic",
                     ("GradWeylNormEinstein", "lem_GradWeylNorm"), "harmonic",
                     1, (), 6, 1e-8, ev_gradweyl_harmonic),
        IdentitySpec("commute2.riemann", ("SecondDerivWeylusingRiem",), "any",
                     2, (), 4, 1e-8, ev_commute2_riemann),
        IdentitySpec("commute2.weyl-ricci", ("lem-comsec",), "any", 2, (),
                     4, 1e-8, ev_commute2_weyl_ricci),
        IdentitySpec("commute2.einstein", ("lem-comsec",), "einstein", 2,
                     (), 4, 1e-8, ev_commute2_einstein),
        IdentitySpec("commute2.einstein-contracted", ("lem-comsec",),
                     "einstein", 2, (), 4, 1e-8,
                     ev_commute2_einstein_contracted),
        IdentitySpec("commute3.riemann", ("ThirdDerivWeylusingRiem",), "any",
                     3, (), 5, 1e-6, ev_commute3_direct),
        IdentitySpec("commutek.k3", ("CommutationWeylKorder",), "any", 3,
                     (), 5, 1e-6, partial(commutation_k_residual, k=3)),
        IdentitySpec("commutek.k4", ("CommutationWeylKorder",), "any", 4,
                     (), 6, 1e-5, partial(commutation_k_residual, k=4)),
        IdentitySpec("algebra.quadratic", ("WeylWeylMetric",), "any", 0,
                     (), 4, 1e-12, ev_algebra_quadratic),
        IdentitySpec("algebra.cubic", ("WWW",), "any", 0, (), 6, 1e-12,
                     ev_algebra_cubic),
        IdentitySpec("algebra.quaternionic", ("quaternionic-structure",
                     "eq-derw"), "any", 0, (), 0, 1e-12,
                     ev_algebra_quaternionic),
        IdentitySpec("derdzinski.reconstruction", ("eq-derw",), "any", 0,
                     (), 2, 1e-10, ev_derdzinski_reconstruction),
        IdentitySpec("mix.orthogonality", ("eq-mix",), "any", 1, (), 8,
                     1e-8, ev_mix_orthogonality),
        IdentitySpec("key2.full", ("lem-key2",), "any", 1, (), 8, 1e-8,
                     ev_key2),
        IdentitySpec("key1.full", ("lem-key1",), "harmonic", 1, (), 8,
                     1e-7, ev_key1),
        IdentitySpec("laplacian.harmonic-weyl", ("LaplacianOfHarmonicWeyl",),
                     "harmonic", 2, (), 4, 1e-8, ev_laplacian_harmonic_weyl),
        IdentitySpec("laplacian.4d", ("eq-bw",), "harmonic", 2, (), 4,
                     1e-8, ev_laplacian_4d),
        IdentitySpec("bochner1.general", ("BWHarmonicWeyl",), "harmonic", 2,
                     ("w",), 6, 1e-8, ev_bochner1_general),
        IdentitySpec("bochner1.4d", ("nice",), "harmonic", 2, ("w",), 6,
                     1e-8, ev_bochner1_4d),
        IdentitySpec("bochner2.pro-boch", ("pro-boch",), "einstein", 3,
                     ("dw",), 8, 1e-6, ev_bochner2_pro_boch),
        IdentitySpec("bochner2.pro-boch-weyl", ("pro-boch",), "einstein", 3,
                     ("dw",), 8, 1e-6, ev_bochner2_pro_boch_weyl),
        IdentitySpec("bochner2.teo-sbf", ("teo-sbf",), "einstein", 3,
                     ("dw",), 8, 1e-6, ev_bochner2_teo_sbf),
        IdentitySpec("lem-paolo", ("lem-paolo",), "harmonic", 3, (), 8,
                     1e-6, ev_lem_paolo),
        IdentitySpec("bochnerk.k2", ("pro-boch-k", "BochnerBIG"), "einstein",
                     4, ("d2w",), 10, 1e-5, ev_bochnerk_k2),
    ]
    for sign in (1, -1):
        sfx = partial(_sector_id, sign=sign)
        specs += [
            IdentitySpec(sfx("algebra.quadratic.sector"), ("WeylWeylMetric",),
                         "any", 0, (), 4, 1e-12,
                         partial(ev_algebra_quadratic, sign=sign), sign),
            IdentitySpec(sfx("algebra.cubic.sector"), ("WWW",), "any", 0,
                         (), 6, 1e-12, partial(ev_algebra_cubic, sign=sign),
                         sign),
            IdentitySpec(sfx("algebra.quartic.sector"), ("lem-quart",), "any",
                         0, (), 8, 1e-12,
                         partial(ev_algebra_quartic, sign=sign), sign),
            IdentitySpec(sfx("derder.reconstruction"), ("eq-derder",), "any",
                         1, (), 3, 1e-8,
                         partial(ev_derder_reconstruction, sign=sign), sign),
            IdentitySpec(sfx("derder.norm"), ("eq-nqder",), "any", 1, (),
                         6, 1e-7, partial(ev_derder_norm, sign=sign), sign),
            IdentitySpec(sfx("derder.cubic"), ("eqrhs",), "any", 1, (), 8,
                         1e-7, partial(ev_derder_cubic, sign=sign), sign),
            IdentitySpec(sfx("divz.relations"), ("eq-divz",),
                         "sector-harmonic", 1, (), 3, 1e-7,
                         partial(ev_divz_relations, sign=sign), sign),
            IdentitySpec(sfx("key1.sector"), ("lem-key1",), "sector-harmonic",
                         1, (), 8, 1e-7, partial(ev_key1, sign=sign),
                         sign),
            IdentitySpec(sfx("key2.sector"), ("lem-key2",), "any", 1, (),
                         8, 1e-8, partial(ev_key2, sign=sign), sign),
            IdentitySpec(sfx("bochner1.sector"), ("niceself",),
                         "sector-harmonic", 2, ("w_pm",), 6, 1e-8,
                         partial(ev_bochner1_sector, sign=sign), sign),
            IdentitySpec(sfx("bochner2.pro-boch"),
                         ("pro-boch-k-pm", "BochnerBIGpm"), "einstein", 3,
                         ("dw_pm",), 8, 1e-6,
                         partial(ev_bochner2_sector, sign=sign), sign),
            IdentitySpec(sfx("bochnerk.k2"),
                         ("pro-boch-k-pm", "BochnerBIGpm"), "einstein", 4,
                         ("d2w_pm",), 10, 1e-5,
                         partial(ev_bochnerk_k2_sector, sign=sign), sign),
            IdentitySpec(sfx("gap.pointwise"),
                         ("final-proposition", "lem-quart"),
                         "einstein-parallel-sector", 1, (), 4, 1e-8,
                         partial(ev_gap_pointwise, sign=sign), sign),
        ]
    return {s.id: s for s in specs}


REGISTRY: dict[str, IdentitySpec] = _build_registry()

OUT_OF_SCOPE = [
    OutOfScopeEntry("integral.prop1", ("prop1",),
                    "L2 identity on compact Einstein manifolds"),
    OutOfScopeEntry("integral.second-bochner-l2",
                    ("thm-intbochintro", "teo-idsa"),
                    "sector L2 identity on compact Einstein manifolds"),
    OutOfScopeEntry("integral.cor-d2", ("cor-d2",),
                    "integrated commutator identity"),
    OutOfScopeEntry("integral.lem-1", ("lem-1",),
                    "integrated antisymmetric-Hessian identity"),
    OutOfScopeEntry("integral.hessian-improved", ("pro-imprhess",),
                    "improved integral Hessian-vs-Laplacian estimate"),
    OutOfScopeEntry("integral.gap-poincare", ("thm-gap",),
                    "Poincare-type gap inequality and its corollaries"),
    OutOfScopeEntry("integral.quart-l2", ("lem-quart",),
                    "integral shell; pointwise core checked as "
                    "algebra.quartic.sector-*"),
    OutOfScopeEntry("integral.selfdual-gap", ("final-proposition",),
                    "integral statement; parallel-Weyl pointwise reduction "
                    "checked as gap.pointwise-*"),
]

# Identities expected to be violated on declared negative-control charts,
# with the minimum residual_rel that counts as a violation.
CONTROL_EXPECT_FAIL: dict[str, float] = {
    "bochner2.teo-sbf": 1e-2,
    "key1.full": 1e-2,
    "key1.sector-plus": 1e-2,
    "key1.sector-minus": 1e-2,
    "commute2.einstein-contracted": 1e-2,
    "lem-paolo": 1e-2,
    "divz.relations-plus": 1e-3,
    "divz.relations-minus": 1e-3,
    "gradweyl.harmonic": 1e-3,
}

# The violation fraction every control expectation must reach.
CONTROL_MIN_FRACTION = 0.6


def gate_satisfied(spec: IdentitySpec, pd: PointData) -> bool:
    """Numerically verified hypothesis gate for one identity at one point."""
    if spec.gate == "any":
        return True
    if spec.gate == "harmonic":
        return pd.is_harmonic
    if spec.gate == "sector-harmonic":
        return pd.is_sector_harmonic(spec.sector)
    if spec.gate == "einstein":
        return pd.is_einstein
    if spec.gate == "einstein-parallel-sector":
        return (pd.is_einstein and pd.is_sector_parallel(spec.sector)
                and pd.sector_nonzero(spec.sector))
    if spec.gate == "conformal":
        return pd.is_conformally_flat
    raise ValueError(f"unknown gate {spec.gate!r}")


def static_applicable(spec: IdentitySpec, props) -> bool:
    """Whether a chart's declared properties could satisfy the gate."""
    if spec.gate == "any":
        return True
    if spec.gate in ("harmonic", "sector-harmonic"):
        return props.harmonic_weyl or props.einstein is not None
    if spec.gate == "einstein":
        return props.einstein is not None
    if spec.gate == "einstein-parallel-sector":
        return props.einstein is not None and props.parallel_weyl
    if spec.gate == "conformal":
        return props.conformally_flat
    raise ValueError(f"unknown gate {spec.gate!r}")


def residual_rel(spec: IdentitySpec, pd: PointData, residual_abs: float,
                 scale: float) -> tuple[float, float]:
    """Relative residual with the homogeneity-weighted curvature floor."""
    floor = max(scale, pd.floor(spec.homogeneity), FLOOR)
    return residual_abs / floor, floor
