"""Eigenframe differential calculus for the duality sectors of the Weyl tensor.

At a point, twice the covariant derivative of a sector tensor expands over the
nine tensor products of the eigen-two-forms,

    2 (nabla W)_{ijpq, t} = sum_{A,B} K^{AB}_t  B_pq A_ij ,

with a symmetric coefficient matrix of one-forms.  The diagonal carries the
eigenvalue differentials (d lambda, d mu, d nu); the off-diagonal entries are
the gap-scaled connection one-forms

    K^{omega eta} = (lambda - mu) c,   K^{omega theta} = (nu - lambda) b,
    K^{eta theta} = (mu - nu) a .

All downstream checks (the norm expansion, the divergence-free relations and
the cubic contraction) are expressed directly in the gap-scaled forms, which
stay well defined when eigenvalues collide -- the catalog's curvature-type-D
entries are degenerate everywhere, so this is the generic case, not the
exception.  The raw one-forms a, b, c are reported only where the relevant
eigenvalue gap resolves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DEGENERACY_RTOL, TwoFormFrame

DIM = 4


@dataclass
class EigenframeDerivatives:
    """Projection coefficients of 2 nabla W_sector onto the eigenframe."""

    d_lambda: np.ndarray
    d_mu: np.ndarray
    d_nu: np.ndarray
    c_scaled: np.ndarray        # (lambda - mu) c
    b_scaled: np.ndarray        # (nu - lambda) b
    a_scaled: np.ndarray        # (mu - nu) a
    a: np.ndarray | None
    b: np.ndarray | None
    c: np.ndarray | None
    consistency_gap: float      # worst duplicate-slot mismatch before averaging
    recon_residual: float       # |2 nabla W - reconstruction| (absolute, max)
    trivial: bool               # nabla W_sector at noise level; all forms zero


def extract_frame_derivatives(nabla_w_sector: np.ndarray,
                              frame: TwoFormFrame,
                              trivial_scale: float = 0.0) -> EigenframeDerivatives:
    """Project a sector derivative onto the eigenframe expansion.

    `nabla_w_sector` holds frame components of the sector-projected covariant
    derivative (rank 5, derivative slot last).  When its norm is below
    1e-9 * trivial_scale the expansion is the zero expansion and all one-forms
    are returned as zeros, which keeps parallel-Weyl points exact regardless
    of eigenvalue degeneracy.
    """
    lam = frame.eigenvalues
    zeros = np.zeros(DIM)
    if trivial_scale > 0.0 and np.linalg.norm(nabla_w_sector) <= 1e-9 * trivial_scale:
        return EigenframeDerivatives(
            d_lambda=zeros, d_mu=zeros.copy(), d_nu=zeros.copy(),
            c_scaled=zeros.copy(), b_scaled=zeros.copy(),
            a_scaled=zeros.copy(), a=zeros.copy(), b=zeros.copy(),
            c=zeros.copy(), consistency_gap=0.0, recon_residual=0.0,
            trivial=True)

    forms = np.stack(frame.forms)
    k = np.einsum("ijpqt,aij,bpq->abt", nabla_w_sector, forms, forms) / 8.0
    gap = float(np.abs(k - np.swapaxes(k, 0, 1)).max())
    ks = 0.5 * (k + np.swapaxes(k, 0, 1))   # least-squares reconciliation

    recon = 0.5 * np.einsum("abt,aij,bpq->ijpqt", ks, forms, forms)
    recon_res = float(np.abs(recon - nabla_w_sector).max())

    spectral = max(np.abs(lam).max(), 1e-300)
    gap_lm = lam[1] - lam[0]
    gap_mn = lam[2] - lam[1]
    gap_ln = lam[2] - lam[0]
    c = ks[0, 1] / gap_lm if gap_lm > DEGENERACY_RTOL * spectral else None
    b = ks[0, 2] / gap_ln if gap_ln > DEGENERACY_RTOL * spectral else None
    a = ks[1, 2] / gap_mn if gap_mn > DEGENERACY_RTOL * spectral else None

    return EigenframeDerivatives(
        d_lambda=ks[0, 0], d_mu=ks[1, 1], d_nu=ks[2, 2], c_scaled=ks[0, 1],
        b_scaled=ks[0, 2], a_scaled=ks[1, 2], a=a, b=b, c=c,
        consistency_gap=gap, recon_residual=recon_res, trivial=False)


def norm_expansion_residual(ed: EigenframeDerivatives,
                            nabla_w_sector: np.ndarray):
    """Norm formula: |nabla W_s|^2 / 4 equals the coefficient sum of squares.

    In gap-scaled form the eigenvalue factors sit inside the squared
    coefficients: 2 (mu - nu)^2 |a|^2 = 2 |a_scaled|^2 and cyclic.
    """
    lhs = 0.25 * float((nabla_w_sector ** 2).sum())
    rhs = float((ed.d_lambda ** 2).sum() + (ed.d_mu ** 2).sum()
                + (ed.d_nu ** 2).sum()
                + 2.0 * ((ed.a_scaled ** 2).sum() + (ed.b_scaled ** 2).sum()
                         + (ed.c_scaled ** 2).sum()))
    return abs(lhs - rhs), max(lhs, rhs)


def div_free_relations_residual(ed: EigenframeDerivatives, frame: TwoFormFrame):
    """Residuals of the three divergence-free relations, gap-scaled.

    d lambda_k = theta_kl (lam-mu)c_l - eta_kl (nu-lam)b_l and cyclic; these
    expansion-component relations are equivalent to div W_sector = 0.
    """
    w, e, t = frame.forms
    r1 = ed.d_lambda - (t @ ed.c_scaled - e @ ed.b_scaled)
    r2 = ed.d_mu - (-t @ ed.c_scaled + w @ ed.a_scaled)
    r3 = ed.d_nu - (e @ ed.b_scaled - w @ ed.a_scaled)
    res = max(np.abs(r1).max(), np.abs(r2).max(), np.abs(r3).max())
    scale = max(np.abs(ed.d_lambda).max(), np.abs(ed.d_mu).max(),
                np.abs(ed.d_nu).max(), np.abs(ed.a_scaled).max(),
                np.abs(ed.b_scaled).max(), np.abs(ed.c_scaled).max())
    return float(res), float(scale)


def cubic_contraction_residual(w_sector: np.ndarray,
                               nabla_w_sector: np.ndarray,
                               frame: TwoFormFrame,
                               ed: EigenframeDerivatives):
    """(1/8) W_s . (nabla W_s)^2 against the eigenvalue expansion.

    Valid on every metric; in gap-scaled form the right side reads
    lam |d lam|^2 + mu |d mu|^2 + nu |d nu|^2
    - lam |a_s|^2 - mu |b_s|^2 - nu |c_s|^2.
    """
    lam = frame.eigenvalues
    lhs = 0.125 * float(np.einsum("ijkl,ijpqt,klpqt->", w_sector,
                                  nabla_w_sector, nabla_w_sector,
                                  optimize=True))
    rhs = float(lam[0] * (ed.d_lambda ** 2).sum()
                + lam[1] * (ed.d_mu ** 2).sum()
                + lam[2] * (ed.d_nu ** 2).sum()
                - lam[0] * (ed.a_scaled ** 2).sum()
                - lam[1] * (ed.b_scaled ** 2).sum()
                - lam[2] * (ed.c_scaled ** 2).sum())
    scale = max(abs(lhs), abs(rhs),
                np.abs(lam).max() * 0.25 * float((nabla_w_sector ** 2).sum()))
    return abs(lhs - rhs), scale
