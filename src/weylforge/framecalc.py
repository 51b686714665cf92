"""Eigenframe differential calculus for the duality sectors of the Weyl tensor.

At a point, twice the covariant derivative of a sector tensor expands over the
nine tensor products of the eigen-two-forms E_a,

    2 (nabla W)_{ijpq, t} = sum_{a,b} K_abt  (E_b)_pq (E_a)_ij ,

with a symmetric coefficient matrix of one-forms, one array k[a, b, t].  The
diagonal carries the eigenvalue differentials (d lambda, d mu, d nu); the
off-diagonal entries are the gap-scaled connection one-forms

    K_01 = (lambda - mu) c,   K_02 = (nu - lambda) b,   K_12 = (mu - nu) a .

The checks built on it (the norm expansion, the cubic contraction and the
divergence-free relations) read the gap-scaled entries, which stay well
defined when eigenvalues collide -- the catalog's curvature-type-D entries
are degenerate everywhere, so this is the generic case, not the exception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import TwoFormFrame


@dataclass
class EigenframeDerivatives:
    """Projection coefficients of 2 nabla W_sector onto the eigenframe."""

    k: np.ndarray               # (3, 3, 4): K_abt, symmetric in a, b
    consistency_gap: float      # worst duplicate-slot mismatch before averaging
    recon_residual: float       # |2 nabla W - reconstruction| (absolute, max)
    trivial: bool               # nabla W_sector parallel; k is zero


def extract_frame_derivatives(nabla_w_sector: np.ndarray,
                              frame: TwoFormFrame,
                              trivial: bool = False) -> EigenframeDerivatives:
    """Project a sector derivative onto the eigenframe expansion.

    `nabla_w_sector` holds frame components of the sector-projected covariant
    derivative (rank 5, derivative slot last).  When `trivial` (the half is
    parallel, PointData.is_parallel) the expansion is the zero expansion,
    which keeps parallel-Weyl points exact regardless of eigenvalue
    degeneracy.
    """
    if trivial:
        return EigenframeDerivatives(k=np.zeros((3, 3, 4)), consistency_gap=0.0,
                                     recon_residual=0.0, trivial=True)

    forms = np.stack(frame.forms)
    k = np.einsum("ijpqt,aij,bpq->abt", nabla_w_sector, forms, forms) / 8.0
    gap = float(np.abs(k - np.swapaxes(k, 0, 1)).max())
    ks = 0.5 * (k + np.swapaxes(k, 0, 1))   # least-squares reconciliation

    recon = 0.5 * np.einsum("abt,aij,bpq->ijpqt", ks, forms, forms)
    recon_res = float(np.abs(recon - nabla_w_sector).max())
    return EigenframeDerivatives(k=ks, consistency_gap=gap,
                                 recon_residual=recon_res, trivial=False)


def div_free_relations_residual(ed: EigenframeDerivatives, frame: TwoFormFrame):
    """Residuals of the three divergence-free relations, gap-scaled.

    d lambda_k = theta_kl (lam-mu)c_l - eta_kl (nu-lam)b_l and cyclic; these
    expansion-component relations are equivalent to div W_sector = 0.
    """
    w, e, t = frame.forms
    k = ed.k
    r1 = k[0, 0] - (t @ k[0, 1] - e @ k[0, 2])
    r2 = k[1, 1] - (-t @ k[0, 1] + w @ k[1, 2])
    r3 = k[2, 2] - (e @ k[0, 2] - w @ k[1, 2])
    res = max(np.abs(r1).max(), np.abs(r2).max(), np.abs(r3).max())
    return float(res), float(np.abs(k).max())
