"""Pointwise curvature algebra in an orthonormal frame.

Covers the trace/Weyl decomposition, the Cotton tensor from either Ricci
derivatives or the Weyl divergence, the two-form bundle machinery (Hodge star,
self-dual and anti-self-dual projections, curvature operator blocks), the
eigen-two-form frames of the sector operators, and the quadratic, cubic and
quartic algebraic identities.

Conventions.  Two-forms are antisymmetric 4x4 matrices.  The inner product on
the two-form bundle is <a, b> = (1/2) a_ij b_ij, so coordinate two-forms
e^i ^ e^j have unit norm and the quaternionic frames below have norm sqrt(2).
A rank-4 tensor T with both-pair antisymmetry acts on two-forms through
(T w)_kl = (1/2) T_ijkl w_ij; its 6x6 matrix in the coordinate pair basis is
simply M[A, B] = T[pair A, pair B].  The orientation sign multiplies the Hodge
star; +1 means the chart's coordinate order is positively oriented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import DenseTensor

DIM = 4

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _pair_forms() -> np.ndarray:
    forms = np.zeros((6, DIM, DIM))
    for a, (i, j) in enumerate(PAIRS):
        forms[a, i, j] = 1.0
        forms[a, j, i] = -1.0
    return forms


PAIR_FORMS = _pair_forms()

# Hodge star on the pair basis for epsilon_1234 = +1:
# *(e1^e2) = e3^e4, *(e1^e3) = -e2^e4, *(e1^e4) = e2^e3.
STAR6 = np.zeros((6, 6))
STAR6[0, 5] = STAR6[5, 0] = 1.0
STAR6[1, 4] = STAR6[4, 1] = -1.0
STAR6[2, 3] = STAR6[3, 2] = 1.0

# Quaternionic seed triples per sector, as pair-basis coefficient rows.
# Signs are fixed so that omega.eta = theta (matrix product) holds exactly.
_SEED_PLUS = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0, 1.0],    # e1^e2 + e3^e4
    [0.0, 1.0, 0.0, 0.0, -1.0, 0.0],   # e1^e3 - e2^e4  (= e1^e3 + e4^e2)
    [0.0, 0.0, -1.0, -1.0, 0.0, 0.0],  # -(e1^e4 + e2^e3), sign from the table
])
_SEED_MINUS = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0, -1.0],   # e1^e2 - e3^e4
    [0.0, 1.0, 0.0, 0.0, 1.0, 0.0],    # e1^e3 + e2^e4
    [0.0, 0.0, 1.0, -1.0, 0.0, 0.0],   # e1^e4 - e2^e3
])


def sector_seed(sector: int, orientation: int = 1) -> np.ndarray:
    """Pair-basis coefficient rows of the quaternionic seed triple."""
    if sector not in (1, -1) or orientation not in (1, -1):
        raise ValueError("sector and orientation must be +1 or -1")
    return _SEED_PLUS if sector * orientation > 0 else _SEED_MINUS


def two_form(coeffs: np.ndarray) -> np.ndarray:
    """Antisymmetric matrix of a pair-basis coefficient vector."""
    return np.einsum("a,aij->ij", coeffs, PAIR_FORMS)


def pair_matrix(t: np.ndarray) -> np.ndarray:
    """6x6(+extra axes) matrix of a both-pair-antisymmetric rank-4+ tensor."""
    pf = PAIR_FORMS.reshape(6, DIM * DIM)
    m = np.tensordot(pf, t.reshape(DIM * DIM, DIM * DIM, -1), axes=([1], [0]))
    m = np.tensordot(pf, m, axes=([1], [1]))          # (b, a, extra)
    return 0.25 * np.swapaxes(m, 0, 1).reshape((6, 6) + t.shape[4:])


def from_pair_matrix(m: np.ndarray) -> np.ndarray:
    """Inverse of pair_matrix on both-pair-antisymmetric tensors."""
    pf = PAIR_FORMS.reshape(6, DIM * DIM)
    t = np.tensordot(pf, m.reshape(6, 6, -1), axes=([0], [0]))
    t = np.tensordot(pf, t, axes=([0], [1]))          # (kl, ij, extra)
    return np.swapaxes(t, 0, 1).reshape((DIM,) * 4 + m.shape[2:])


def sector_projector(sector: int, orientation: int = 1) -> np.ndarray:
    """6x6 projector onto the (anti-)self-dual pair subspace."""
    if sector not in (1, -1) or orientation not in (1, -1):
        raise ValueError("sector and orientation must be +1 or -1")
    return 0.5 * (np.eye(6) + sector * orientation * STAR6)


def project_sector(t: np.ndarray, sector: int, orientation: int = 1) -> np.ndarray:
    """Project the leading two index pairs of t onto one duality sector.

    Valid for Weyl-type tensors and their covariant derivative stacks (the
    projectors are parallel and Weyl-type operators are block diagonal, so
    projecting both pairs of the value slice is exact for every stack level).
    """
    p = sector_projector(sector, orientation)
    m = pair_matrix(t)
    m = np.tensordot(p, m, axes=([1], [0]))           # (a, c, extra)
    m = np.tensordot(p, m, axes=([0], [1]))           # (d, a, extra)
    return from_pair_matrix(np.swapaxes(m, 0, 1))


def hodge_star_matrix(orientation: int = 1) -> np.ndarray:
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    return orientation * STAR6


# ---------------------------------------------------------------------------
# Trace decomposition and Cotton tensor
# ---------------------------------------------------------------------------

def ricci_scalar_weyl(riem, g: np.ndarray | None = None, tol: float = 1e-8):
    """Split an orthonormal-frame Riemann tensor into (Ric, R, Weyl).

    Rejects inputs violating the Riemann symmetries beyond tol * |riem| and
    reports the worst violation.  `g` defaults to the identity; a non-identity
    g is accepted but must be orthonormal-frame-equivalent (used in tests).
    """
    t = riem.data if isinstance(riem, DenseTensor) else np.asarray(riem)
    scale = max(np.abs(t).max(), 1e-30)
    viol = max(
        np.abs(t + np.einsum("jikl->ijkl", t)).max(),
        np.abs(t + np.einsum("ijlk->ijkl", t)).max(),
        np.abs(t - np.einsum("klij->ijkl", t)).max(),
    )
    if viol > tol * scale:
        raise ValueError(
            f"input violates Riemann symmetries: max violation {viol:.3e} "
            f"against scale {scale:.3e}")
    if g is None:
        g = np.eye(DIM)
    ginv = np.linalg.inv(g)
    ric = np.einsum("jl,ijkl->ik", ginv, t)
    rs = float(np.einsum("ik,ik->", ginv, ric))
    w = (t
         - 0.5 * (np.einsum("ik,jl->ijkl", ric, g)
                  - np.einsum("il,jk->ijkl", ric, g)
                  + np.einsum("jl,ik->ijkl", ric, g)
                  - np.einsum("jk,il->ijkl", ric, g))
         + (rs / 6.0) * (np.einsum("ik,jl->ijkl", g, g)
                         - np.einsum("il,jk->ijkl", g, g)))
    return ric, rs, w


def cotton_from_ricci(ric_deriv: np.ndarray, d_scalar: np.ndarray,
                      g: np.ndarray | None = None) -> np.ndarray:
    """C_ijk = Ric_ij,k - Ric_ik,j - (1/6)(R_k g_ij - R_j g_ik)  (dim 4)."""
    if g is None:
        g = np.eye(DIM)
    c = (ric_deriv - np.einsum("ikj->ijk", ric_deriv)
         - (np.einsum("k,ij->ijk", d_scalar, g)
            - np.einsum("j,ik->ijk", d_scalar, g)) / 6.0)
    return c


def cotton_from_weyl_divergence(nabla_w: np.ndarray) -> np.ndarray:
    """C_ijk = 2 W_tikj,t in dimension four (prefactor (n-2)/(n-3) = 2)."""
    return 2.0 * np.einsum("tikjt->ijk", nabla_w)


# ---------------------------------------------------------------------------
# Curvature operator blocks and eigen-two-form frames
# ---------------------------------------------------------------------------

@dataclass
class CurvatureOperatorBlocks:
    """Blocks of the curvature operator on two-forms, in the seed bases."""

    w_plus: np.ndarray
    w_minus: np.ndarray
    ric0_block: np.ndarray
    scalar: float
    orientation: int = 1

    def reassemble(self) -> np.ndarray:
        """Rebuild the 6x6 pair-basis operator matrix from the blocks."""
        up = sector_seed(1, self.orientation) / np.sqrt(2.0)
        um = sector_seed(-1, self.orientation) / np.sqrt(2.0)
        m = (up.T @ self.w_plus @ up + um.T @ self.w_minus @ um
             + (self.scalar / 12.0) * np.eye(6)
             + up.T @ self.ric0_block @ um + um.T @ self.ric0_block.T @ up)
        return m


def lambda_split(riem_or_weyl, g: np.ndarray | None = None,
                 orientation: int = 1) -> CurvatureOperatorBlocks:
    """Split a Riemann-type frame tensor into duality blocks.

    Diagonal blocks come from the Weyl part of the input; the off-diagonal
    block is read from the full operator and carries the trace-free Ricci.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1 (frame sign undefined)")
    t = riem_or_weyl.data if isinstance(riem_or_weyl, DenseTensor) \
        else np.asarray(riem_or_weyl)
    ric, rs, w = ricci_scalar_weyl(t, g)
    m6w = pair_matrix(w)
    m6 = pair_matrix(t)
    up = sector_seed(1, orientation) / np.sqrt(2.0)
    um = sector_seed(-1, orientation) / np.sqrt(2.0)
    w_plus = up @ m6w @ up.T
    w_minus = um @ m6w @ um.T
    ric0_block = up @ m6 @ um.T
    return CurvatureOperatorBlocks(w_plus=w_plus, w_minus=w_minus,
                                   ric0_block=ric0_block, scalar=rs,
                                   orientation=orientation)


def jacobi_eigh_3x3(m: np.ndarray, tol: float = 1e-14, max_sweeps: int = 30):
    """Cyclic Jacobi diagonalization of a symmetric 3x3 matrix.

    Returns eigenvalues ascending and the matching eigenvector columns.
    Deterministic; no external solver involved.
    """
    a = np.array(m, dtype=float)
    if a.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    v = np.eye(3)
    scale = max(np.abs(a).max(), 1e-300)
    for _ in range(max_sweeps):
        off = max(abs(a[0, 1]), abs(a[0, 2]), abs(a[1, 2]))
        if off <= tol * scale:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = a[p, q]
            if abs(apq) <= 1e-300 * scale:
                continue
            tau = (a[q, q] - a[p, p]) / (2.0 * apq)
            if tau >= 0.0:
                t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            rot = np.eye(3)
            rot[p, p] = rot[q, q] = c
            rot[p, q] = s
            rot[q, p] = -s
            a = rot.T @ a @ rot
            v = v @ rot
    evals = np.diag(a).copy()
    order = np.argsort(evals, kind="stable")
    return evals[order], v[:, order]


@dataclass
class TwoFormFrame:
    """Eigen-two-forms of one duality sector with eigenvalues summing to zero.

    omega, eta, theta satisfy the quaternionic multiplication table and have
    pair-bundle norm sqrt(2); eigenvalues are sorted ascending.
    """

    sector: str
    eigenvalues: np.ndarray      # (lam, mu, nu), ascending
    omega: np.ndarray
    eta: np.ndarray
    theta: np.ndarray
    coeffs: np.ndarray           # rows: eigenvectors in the seed basis
    degenerate: bool

    @property
    def forms(self) -> tuple:
        return self.omega, self.eta, self.theta

    def reconstruct(self) -> np.ndarray:
        """W_sector = (1/2) sum_i lambda_i form_i (x) form_i."""
        lam = self.eigenvalues
        forms = (self.omega, self.eta, self.theta)
        return 0.5 * sum(lam[i] * np.einsum("ij,kl->ijkl", forms[i], forms[i])
                         for i in range(3))


DEGENERACY_RTOL = 1e-8


def derdzinski_frame(blocks: CurvatureOperatorBlocks, sector: str) -> TwoFormFrame:
    """Eigen-decompose one sector block into a quaternionic two-form frame.

    The first two eigenvector signs are fixed deterministically; the third is
    their quaternion product (cross product of coefficient rows), which
    enforces the multiplication table.  Near-equal eigenvalues only flag the
    frame as degenerate; the frame itself is still an orthonormal triple.
    """
    if sector not in ("plus", "minus"):
        raise ValueError("sector must be 'plus' or 'minus'")
    block = blocks.w_plus if sector == "plus" else blocks.w_minus
    sgn = 1 if sector == "plus" else -1
    evals, evecs = jacobi_eigh_3x3(block)
    rows = evecs.T.copy()
    for r in range(2):
        k = int(np.argmax(np.abs(rows[r])))
        if rows[r, k] < 0:
            rows[r] = -rows[r]
    rows[2] = np.cross(rows[0], rows[1])
    seeds = sector_seed(sgn, blocks.orientation)
    forms = np.einsum("ab,bB,Bij->aij", rows, seeds, PAIR_FORMS)
    spectral = max(np.abs(evals).max(), 1e-300)
    gaps = (evals[1] - evals[0], evals[2] - evals[1])
    degenerate = min(gaps) < DEGENERACY_RTOL * spectral
    return TwoFormFrame(sector=sector, eigenvalues=evals, omega=forms[0],
                        eta=forms[1], theta=forms[2], coeffs=rows,
                        degenerate=degenerate)


def quaternionic_residual(frame: TwoFormFrame) -> float:
    """Max deviation from the quaternionic multiplication table and norms."""
    w, e, t = frame.omega, frame.eta, frame.theta
    eye = np.eye(DIM)
    res = [
        np.abs(w @ w + eye).max(), np.abs(e @ e + eye).max(),
        np.abs(t @ t + eye).max(),
        np.abs(w @ e - t).max(), np.abs(e @ t - w).max(),
        np.abs(t @ w - e).max(),
        abs(0.5 * (w * w).sum() - 2.0), abs(0.5 * (e * e).sum() - 2.0),
        abs(0.5 * (t * t).sum() - 2.0),
    ]
    return float(max(res))


# ---------------------------------------------------------------------------
# Algebraic identities (quadratic, cubic, quartic)
# ---------------------------------------------------------------------------

def quadratic_identity_residual(w: np.ndarray):
    """W_ijkt W_ijkl = (1/4)|W|^2 delta_tl.  Batched over leading axes."""
    lhs = np.einsum("...ijkt,...ijkl->...tl", w, w, optimize=True)
    n2 = np.einsum("...ijkl,...ijkl->...", w, w, optimize=True)
    rhs = 0.25 * n2[..., None, None] * np.eye(DIM)
    res = np.abs(lhs - rhs).reshape(w.shape[:-4] + (-1,)).max(axis=-1)
    scale = np.maximum(np.abs(lhs).reshape(w.shape[:-4] + (-1,)).max(axis=-1),
                       0.25 * n2)
    return res, scale


def cubic_identity_residual(w: np.ndarray):
    """W_ijkl W_ipkq W_jplq = (1/2) W_ijkl W_ijpq W_klpq, batched."""
    lhs = np.einsum("...ijkl,...ipkq,...jplq->...", w, w, w, optimize=True)
    rhs = 0.5 * np.einsum("...ijkl,...ijpq,...klpq->...", w, w, w,
                          optimize=True)
    return np.abs(lhs - rhs), np.maximum(np.abs(lhs), np.abs(rhs))


def quartic_identity_residual(w: np.ndarray):
    """Sector identity Q = (1/4)|W|^4 with Q the four-slot double contraction."""
    d = np.einsum("...rjkl,...rist->...jklist", w, w, optimize=True)
    q = (np.einsum("...pjkl,...pist,...jklist->...", w, w, d, optimize=True)
         + np.einsum("...ipkl,...pjst,...jklist->...", w, w, d, optimize=True)
         + np.einsum("...ijpl,...pkst,...jklist->...", w, w, d, optimize=True)
         + np.einsum("...ijkp,...plst,...jklist->...", w, w, d, optimize=True))
    n2 = np.einsum("...ijkl,...ijkl->...", w, w, optimize=True)
    rhs = 0.25 * n2 ** 2
    return np.abs(q - rhs), np.maximum(np.abs(q), np.abs(rhs))


# ---------------------------------------------------------------------------
# Random generators for property batteries
# ---------------------------------------------------------------------------

def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish SO(3) matrix from a random unit quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array([
        [a*a + b*b - c*c - d*d, 2*(b*c - a*d), 2*(b*d + a*c)],
        [2*(b*c + a*d), a*a - b*b + c*c - d*d, 2*(c*d - a*b)],
        [2*(b*d - a*c), 2*(c*d + a*b), a*a - b*b - c*c + d*d],
    ])


def random_quaternionic_frame(rng: np.random.Generator, sector: int = 1,
                              orientation: int = 1) -> TwoFormFrame:
    """Random rotation of the seed triple; the table holds by construction."""
    rot = random_rotation(rng)
    seeds = sector_seed(sector, orientation)
    coeff_rows = rot @ seeds
    forms = np.einsum("aB,Bij->aij", rot, np.einsum("bB,Bij->bij", seeds,
                                                    PAIR_FORMS))
    name = "plus" if sector == 1 else "minus"
    return TwoFormFrame(sector=name, eigenvalues=np.zeros(3), omega=forms[0],
                        eta=forms[1], theta=forms[2], coeffs=coeff_rows,
                        degenerate=True)


def random_sector_tensor(rng: np.random.Generator, sector: int = 1,
                         scale: float = 1.0):
    """Exact algebraic sector tensor (1/2) sum lam_i v_i (x) v_i, lam sums to 0.

    Returns (tensor, frame, eigenvalues); eigenvalues are not sorted.
    """
    frame = random_quaternionic_frame(rng, sector)
    l1, l2 = rng.normal(size=2) * scale
    lam = np.array([l1, l2, -l1 - l2])
    forms = frame.forms
    w = 0.5 * sum(lam[i] * np.einsum("ij,kl->ijkl", forms[i], forms[i])
                  for i in range(3))
    return w, frame, lam
