"""Eigenframe differential calculus for the duality sectors of the Weyl tensor.

At a point, twice the covariant derivative of a sector tensor expands over the
nine tensor products of the eigen-two-forms E_a,

    2 (nabla W)_{ijpq, t} = sum_{a,b} K_abt  (E_b)_pq (E_a)_ij ,

with a symmetric coefficient matrix of one-forms, one array k[a, b, t].  The
diagonal carries the eigenvalue differentials (d lambda, d mu, d nu); the
off-diagonal entries are the gap-scaled connection one-forms

    K_01 = (lambda - mu) c,   K_02 = (nu - lambda) b,   K_12 = (mu - nu) a .

K is the half's nabla W blocks rotated into the frame.  The blocks hold
nabla W+- in the half's basis two-forms B_x, nabla W+- = N_xyt B_x (x) B_y,
and E_a = sqrt 2 rows[a, x] B_x (algebra.derdzinski_frame), so
K_abt = rows[a, x] N_xyt rows[b, y]: a 3x3 rotation per derivative slot,
with no frame components.  Nothing divides by a gap, so K stays well defined
when eigenvalues collide -- the catalog's curvature-type-D entries are
degenerate everywhere, so this is the generic case, not the exception.
"""

from __future__ import annotations

import numpy as np


def extract_frame_derivatives(blocks1: np.ndarray,
                              rows: np.ndarray) -> np.ndarray:
    """K_abt (3, 3, 4) of one half: its nabla W blocks `blocks1` (3, 3, 4)
    rotated by its frame's `rows` (TwoFormFrame.rows)."""
    return np.einsum("ax,xyt,by->abt", rows, blocks1, rows)


def div_free_relations_residual(k: np.ndarray, forms: np.ndarray):
    """Residuals of the three divergence-free relations, gap-scaled.

    d lambda_k = theta_kl (lam-mu)c_l - eta_kl (nu-lam)b_l and cyclic; these
    expansion-component relations are equivalent to div W_sector = 0.  `k`
    is K_abt and `forms` the eigen-two-forms (omega, eta, theta), (3, 4, 4).
    """
    w, e, t = forms
    r1 = k[0, 0] - (t @ k[0, 1] - e @ k[0, 2])
    r2 = k[1, 1] - (-t @ k[0, 1] + w @ k[1, 2])
    r3 = k[2, 2] - (e @ k[0, 2] - w @ k[1, 2])
    res = max(np.abs(r1).max(), np.abs(r2).max(), np.abs(r3).max())
    return float(res), float(np.abs(k).max())
