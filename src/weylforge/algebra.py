"""Pointwise curvature algebra in an orthonormal frame.

Covers the trace/Weyl decomposition, the Cotton tensor from Ricci
derivatives, the two-form bundle machinery (self-dual and anti-self-dual
bases, curvature operator blocks), the eigen-two-form frames of the sector
operators, the slot terms of the quartic identity of one duality half, and
`contract`, which evaluates an einsum of three or more tensors as a chain
of matrix products.

Conventions.  Two-forms are antisymmetric 4x4 matrices.  The inner product on
the two-form bundle is <a, b> = (1/2) a_ij b_ij, so coordinate two-forms
e^i ^ e^j have unit norm and the quaternionic frames below have norm sqrt(2).
A rank-4 tensor T with both-pair antisymmetry acts on two-forms through
(T w)_kl = (1/2) T_ijkl w_ij; its 6x6 matrix in the coordinate pair basis is
simply M[A, B] = T[pair A, pair B].  The orientation sign multiplies the Hodge
star; +1 means the chart's coordinate order is positively oriented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DIM = 4

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _pair_forms() -> np.ndarray:
    forms = np.zeros((6, DIM, DIM))
    for a, (i, j) in enumerate(PAIRS):
        forms[a, i, j] = 1.0
        forms[a, j, i] = -1.0
    return forms


PAIR_FORMS = _pair_forms()

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


def pair_matrix(t: np.ndarray) -> np.ndarray:
    """6x6(+extra axes) matrix of a both-pair-antisymmetric rank-4+ tensor."""
    pf = PAIR_FORMS.reshape(6, DIM * DIM)
    m = np.tensordot(pf, t.reshape(DIM * DIM, DIM * DIM, -1), axes=([1], [0]))
    m = np.tensordot(pf, m, axes=([1], [1]))          # (b, a, extra)
    return 0.25 * np.swapaxes(m, 0, 1).reshape((6, 6) + t.shape[4:])


def sector_forms(orientation: int = 1) -> np.ndarray:
    """(2, 3, 4, 4): the orthonormal basis two-forms of both sectors.

    Rows sector_seed(+1, orientation) / sqrt 2 (s = 0) and
    sector_seed(-1, orientation) / sqrt 2 (s = 1) as antisymmetric matrices.
    """
    seeds = np.stack([sector_seed(1, orientation),
                      sector_seed(-1, orientation)]) / np.sqrt(2.0)
    return np.einsum("sxA,Aij->sxij", seeds, PAIR_FORMS)


def sector_action(forms: np.ndarray) -> np.ndarray:
    """(n, 3, 3, G): how a two-form acts on the sector bases `forms`.

    forms is sector_forms or a slice of it, B_G for G = (s, x) its basis
    two-forms in order.  action[s, y, x, G] = <B_sy, [B_G, B_sx]>, with
    <X, Y> = (1/2) X_ij Y_ij: a two-form N = sum_G n_G B_G acts on the
    basis of sector s as the 3x3 matrix action[s] . n, zero across sectors.
    """
    basis = forms.reshape(-1, DIM, DIM)
    bracket = (np.einsum("Gij,sxjk->sxGik", basis, forms)
               - np.einsum("sxij,Gjk->sxGik", forms, basis))
    return 0.5 * np.einsum("syik,sxGik->syxG", forms, bracket)


def curvature_action(m: np.ndarray, blocks: np.ndarray, forms: np.ndarray,
                     action: np.ndarray) -> np.ndarray:
    """The blocks of sum over the slots of T of T_..p.. m_pcab.

    blocks[s, x, y, c1, .., cn] are the sector blocks of T in `forms`, a
    Weyl-type tensor with n derivative slots, and m a 4-tensor antisymmetric
    in its first pair, acting on every slot of T through its last pair:
    (m . T)_{i1..i(4+n) ab} = sum_r T_{..p..} m_{p i_r a b}, p in slot r.
    On the two block slots m acts through its two-form
    rho_G = <B_G, m(., ., a, b)> as the 3x3 matrices action . rho, with
    action = sector_action(forms); on each derivative slot through m.  The
    result has the blocks' shape with (a, b) appended and stays in the
    sectors of T.
    """
    n = blocks.ndim - 3
    rho = 0.5 * np.einsum("Gpq,pqab->Gab",
                          forms.reshape(-1, DIM, DIM), m)
    a = np.einsum("sxyG,Gab->sxyab", action, rho)
    flat = blocks.reshape(blocks.shape[:3] + (-1,))
    out = (np.einsum("sxyab,sxzd->syzdab", a, flat)
           + np.einsum("sxzab,syxd->syzdab", a, flat))
    out = out.reshape(blocks.shape + (DIM, DIM))
    slots = "cdefgh"[:n]
    for r in range(n):
        summed = slots[:r] + "p" + slots[r + 1:]
        out += np.einsum(f"syz{summed},p{slots[r]}ab->syz{slots}ab",
                         blocks, m)
    return out


def from_sector_blocks(blocks: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """Frame components of a Weyl-type tensor from its sector blocks.

    blocks[s, x, y, ...] are W+- blocks with any trailing slots, forms the
    matching basis two-forms (sector_forms or a slice of it):
    T_ijkl... = sum_{s,x,y} blocks[s, x, y, ...] forms[s, x, i, j]
    forms[s, y, k, l], one (256 x 9) matrix product per sector.
    """
    out = 0.0
    for f, b in zip(forms.reshape(-1, 3, DIM * DIM), blocks):
        pairs = np.einsum("xa,yb->abxy", f, f).reshape(DIM ** 4, 9)
        out = out + pairs @ b.reshape(9, -1)
    return out.reshape((DIM,) * 4 + blocks.shape[3:])


# ---------------------------------------------------------------------------
# Trace decomposition and Cotton tensor
# ---------------------------------------------------------------------------

def riemann_symmetry_violation(t: np.ndarray) -> float:
    """Max violation of R_ijkl = -R_jikl = -R_ijlk = R_klij."""
    return float(max(np.abs(t + np.einsum("jikl->ijkl", t)).max(),
                     np.abs(t + np.einsum("ijlk->ijkl", t)).max(),
                     np.abs(t - np.einsum("klij->ijkl", t)).max()))


def ricci_scalar_weyl(riem):
    """Split an orthonormal-frame Riemann tensor into (Ric, R, Weyl).

    Rejects inputs violating the Riemann symmetries beyond 1e-8 * |riem|
    and reports the worst violation.
    """
    t = np.asarray(riem)
    scale = max(np.abs(t).max(), 1e-30)
    viol = riemann_symmetry_violation(t)
    if viol > 1e-8 * scale:
        raise ValueError(
            f"input violates Riemann symmetries: max violation {viol:.3e} "
            f"against scale {scale:.3e}")
    g = np.eye(DIM)
    ric = np.einsum("jl,ijkl->ik", g, t)
    rs = float(np.einsum("ik,ik->", g, ric))
    w = (t
         - 0.5 * (np.einsum("ik,jl->ijkl", ric, g)
                  - np.einsum("il,jk->ijkl", ric, g)
                  + np.einsum("jl,ik->ijkl", ric, g)
                  - np.einsum("jk,il->ijkl", ric, g))
         + (rs / 6.0) * (np.einsum("ik,jl->ijkl", g, g)
                         - np.einsum("il,jk->ijkl", g, g)))
    return ric, rs, w


def cotton_from_ricci(ric_deriv: np.ndarray,
                      d_scalar: np.ndarray) -> np.ndarray:
    """C_ijk = Ric_ij,k - Ric_ik,j - (1/6)(R_k g_ij - R_j g_ik)  (dim 4),
    in an orthonormal frame."""
    g = np.eye(DIM)
    return (ric_deriv - np.einsum("ikj->ijk", ric_deriv)
            - (np.einsum("k,ij->ijk", d_scalar, g)
               - np.einsum("j,ik->ijk", d_scalar, g)) / 6.0)


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


def lambda_split(riem_or_weyl,
                 orientation: int = 1) -> CurvatureOperatorBlocks:
    """Split a Riemann-type frame tensor into duality blocks.

    Diagonal blocks come from the Weyl part of the input; the off-diagonal
    block is read from the full operator and carries the trace-free Ricci.
    The pipeline reads its W+- blocks off the jets (charts); this split is
    their independent reference.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1 (frame sign undefined)")
    t = np.asarray(riem_or_weyl)
    ric, rs, w = ricci_scalar_weyl(t)
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


@dataclass
class TwoFormFrame:
    """Eigen-two-forms of one duality sector with eigenvalues summing to zero.

    forms (omega, eta, theta) satisfy the quaternionic multiplication table
    and have pair-bundle norm sqrt(2); eigenvalues are sorted ascending.
    rows is the rotation from the basis two-forms B_x the frame was built
    on: E_a = sqrt 2 rows[a, x] B_x.
    """

    eigenvalues: np.ndarray      # (lam, mu, nu), ascending
    forms: np.ndarray            # (3, 4, 4): E_a
    rows: np.ndarray             # (3, 3), orthogonal


def derdzinski_frame(block: np.ndarray, forms: np.ndarray) -> TwoFormFrame:
    """Eigen-decompose one half's W block into a quaternionic frame.

    `block` (3, 3) is the half's W+- block in its orthonormal basis
    two-forms `forms` (3, 4, 4), W+- = block[x, y] B_x (x) B_y.  With
    block = rows^T diag(lam) rows the frame is E_a = sqrt 2 rows[a, x] B_x,
    so W+- = (1/2) lam_a E_a (x) E_a, lam ascending from LAPACK's eigh.
    The first two eigenvector signs are fixed deterministically; the third
    row is their cross product, which enforces the multiplication table of
    the triple sqrt 2 B_x.  On a repeated eigenvalue the frame is one of
    many, and still a quaternionic triple.
    """
    evals, evecs = np.linalg.eigh(block)
    rows = evecs.T.copy()
    for r in range(2):
        k = int(np.argmax(np.abs(rows[r])))
        if rows[r, k] < 0:
            rows[r] = -rows[r]
    rows[2] = np.cross(rows[0], rows[1])
    e = np.sqrt(2.0) * np.einsum("ax,xij->aij", rows, forms)
    return TwoFormFrame(eigenvalues=evals, forms=e, rows=rows)


def quaternionic_residual(forms: np.ndarray) -> float:
    """Max deviation of a triple of two-forms (3, 4, 4) from the
    quaternionic multiplication table and norms."""
    w, e, t = forms
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
# Contractions of three or more tensors
# ---------------------------------------------------------------------------

def _as_matrices(term: str, groups: tuple, size: dict) -> tuple:
    """Axis order and (batch, rows, cols) shape that view an operand with
    indices `term` as a stack of matrices, grouping its indices as `groups`."""
    order = [c for g in groups for c in g]
    return (tuple(term.index(c) for c in order),
            tuple(math.prod(size[c] for c in g) for g in groups))


@lru_cache(maxsize=None)
def _contraction_plan(subscripts: str, shapes: tuple) -> tuple:
    """The pair steps of `contract` for operands of these shapes.

    numpy's greedy path (einsum_path) orders the pairs.  Each step takes
    operands i < j of the current list, drops them and appends their
    product; it is (i, j, axis order and matrix shape of each, shape of
    the product).  The product's indices are the batch indices (in both
    and still needed), then i's free ones, then j's.  Returns the steps
    and the axis order that takes the last product to the output.
    """
    inputs, output = subscripts.split("->")
    terms = inputs.split(",")
    if any(len(set(t)) != len(t) for t in terms):
        raise ValueError(f"contract: an operand repeats an index in "
                         f"{subscripts!r}")
    path = np.einsum_path(subscripts, *(np.empty(s) for s in shapes),
                          optimize="greedy")[0][1:]
    size = {c: n for t, s in zip(terms, shapes) for c, n in zip(t, s)}
    steps = []
    for step in path:
        if len(step) != 2:
            raise ValueError(f"contract: the greedy path of {subscripts!r} "
                             f"contracts {len(step)} operands at once")
        i, j = sorted(step)
        a, b = terms[i], terms[j]
        del terms[j], terms[i]
        kept = set(output + "".join(terms))
        if (set(a) ^ set(b)) - kept:
            raise ValueError(f"contract: {subscripts!r} sums an index of "
                             f"one operand alone")
        batch = [c for c in a if c in b and c in kept]
        inner = [c for c in a if c in b and c not in kept]
        free_a = [c for c in a if c not in b]
        free_b = [c for c in b if c not in a]
        steps.append((i, j, *_as_matrices(a, (batch, free_a, inner), size),
                      *_as_matrices(b, (batch, inner, free_b), size),
                      tuple(size[c] for c in batch + free_a + free_b)))
        terms.append("".join(batch + free_a + free_b))
    return tuple(steps), tuple(terms[0].index(c) for c in output)


def contract(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """np.einsum(subscripts, *operands) as one matrix product per pair.

    For explicit subscripts (`->`) with no index repeated in an operand.
    The plan is made once per subscripts and operand shapes: operands are
    paired in numpy's greedy order, and each pair is one transpose,
    reshape and `@` (batched over the indices both keep).  A scalar result
    is a 0-d array.
    """
    steps, out = _contraction_plan(subscripts,
                                   tuple(op.shape for op in operands))
    ops = list(operands)
    for i, j, perm_a, mat_a, perm_b, mat_b, shape in steps:
        a = ops[i].transpose(perm_a).reshape(mat_a)
        b = ops[j].transpose(perm_b).reshape(mat_b)
        del ops[j], ops[i]
        ops.append((a @ b).reshape(shape))
    return ops[0].transpose(out)


# ---------------------------------------------------------------------------
# The quartic identity
# ---------------------------------------------------------------------------

def weyl_square(w: np.ndarray) -> np.ndarray:
    """D (64, 64), D[jkl, ist] = W_rjkl W_rist, one matrix product; its
    trace is |W|^2."""
    m = w.reshape(DIM, DIM ** 3)
    return m.T @ m


def quartic_terms(w: np.ndarray) -> np.ndarray:
    """The four slot terms of Q, (4,).

    Q_r = W_..p.. W_p.st D_jklist, with p in slot r of the first W and
    D = weyl_square(W).  Q_1 = |D|^2 = (1/4)|W|^4 holds for every 4D Weyl
    tensor: it is the quadratic identity W_pjkl W_rjkl = (1/4)|W|^2 delta_pr
    squared.  On one duality half Q_2 = Q_3 = Q_4 = 0; on W+ + W- Q_2 is not.
    """
    d = weyl_square(w)
    d6 = d.reshape((DIM,) * 6)
    return np.array([float((d * d).sum())] + [
        float(contract(f"{a},{b},jklist->", w, w, d6))
        for a, b in (("ipkl", "pjst"), ("ijpl", "pkst"), ("ijkp", "plst"))])
