import numpy as np
import pytest

from dict_point import DictPoint, evaluate
from sector_tensors import random_quaternionic_frame, random_sector_tensor
from weylforge import algebra as alg
from weylforge import framecalc
from weylforge import rng as rng_mod
from weylforge.charts import curvature_at
from weylforge.identities import REGISTRY, PointData


def synthetic_sector(rng, lam=None, divergence_free=False, degenerate=False):
    """Exact sector tensor and derivative built from the frame expansion.

    Returns (w, nabla_w, frame, k), k the generating coefficients K_abt.
    With divergence_free=True the eigenvalue differentials are built from
    the connection forms through the div-free relations.
    """
    frame = random_quaternionic_frame(rng, 1)
    w_f, e_f, t_f = frame.forms
    if lam is None:
        if degenerate:
            l0 = rng.normal()
            lam = np.array([l0, l0, -2 * l0])
        else:
            l0, l1 = np.sort(rng.normal(size=2))
            lam = np.array([l0, l1, -l0 - l1])
        lam = np.sort(lam)
    frame.eigenvalues[:] = lam
    a, b, c = rng.normal(size=(3, 4))
    p = (lam[0] - lam[1]) * c          # gap-scaled forms
    q = (lam[2] - lam[0]) * b
    s = (lam[1] - lam[2]) * a
    if divergence_free:
        dl = t_f @ p - e_f @ q
        dm = -t_f @ p + w_f @ s
        dn = e_f @ q - w_f @ s
    else:
        dl, dm = rng.normal(size=(2, 4))
        dn = -dl - dm
    k = np.empty((3, 3, 4))
    k[0, 0], k[1, 1], k[2, 2] = dl, dm, dn
    k[0, 1] = k[1, 0] = p
    k[0, 2] = k[2, 0] = q
    k[1, 2] = k[2, 1] = s
    forms = frame.forms
    w = 0.5 * sum(lam[i] * np.einsum("ij,kl->ijkl", forms[i], forms[i])
                  for i in range(3))
    nw = np.zeros((4, 4, 4, 4, 4))
    for ia in range(3):
        for ib in range(3):
            nw += 0.5 * np.einsum("t,pq,ij->ijpqt", k[ia, ib], forms[ib],
                                  forms[ia])
    return w, nw, frame, k


# The plus half's basis two-forms B_x, in which synthetic_sector's frame is
# built: E_a = sqrt 2 frame.rows[a, x] B_x.
_PLUS = alg.sector_forms()[0]


def _blocks(t):
    """W+ blocks of a plus-half Weyl-type tensor, trailing slots kept:
    t = blocks[x, y] B_x (x) B_y, and B_x : B_y = 2 delta_xy."""
    return 0.25 * np.einsum("xij,ijkl...,ykl->xy...", _PLUS, t, _PLUS)


def _repeated(frame):
    """Whether the frame's smallest eigenvalue gap is below 1e-8 of its
    largest eigenvalue in absolute value."""
    lam = frame.eigenvalues
    return np.diff(lam).min() < 1e-8 * np.abs(lam).max()


def _projected_k(nw, e):
    """The reference K: 2 nabla W projected onto E_a (x) E_b, with
    E_a : E_b = 4 delta_ab, which reads all 1,024 frame components."""
    return np.einsum("ijpqt,aij,bpq->abt", nw, e, e) / 8.0


def _plus_point(w, nw, frame, k):
    """A DictPoint of the plus half's operands."""
    return DictPoint({"W+": w, "nw1+": nw, "lam+": frame.eigenvalues,
                      "E+": frame.forms, "K+": k})


def _rows(point, *names):
    """(residual, scale) of each named plus-half registry row at `point`."""
    return [evaluate(REGISTRY[f"{name}-plus"], point) for name in names]


_DERDER = ("derder.reconstruction", "derder.norm", "derder.cubic")


def test_extraction_recovers_generating_forms(rng):
    for _ in range(20):
        w, nw, frame, k = synthetic_sector(rng)
        got = framecalc.extract_frame_derivatives(_blocks(nw), frame.rows)
        assert np.abs(got - k).max() < 1e-12
        (r0, s0), (r, s), (r3, s3) = _rows(_plus_point(w, nw, frame, got),
                                           *_DERDER)
        assert r0 <= 1e-13 * max(s0, 1e-30)
        assert r <= 1e-13 * max(s, 1e-30)
        assert r3 <= 1e-12 * max(s3, 1e-30)


@pytest.mark.parametrize("degenerate", [False, True])
def test_block_rotation_matches_the_projection(rng, degenerate):
    """K from the blocks equals the projection of 2 nabla W onto the frame
    built from the W block, with distinct or repeated eigenvalues."""
    for _ in range(20):
        w, nw, _, _ = synthetic_sector(rng, degenerate=degenerate)
        frame = alg.derdzinski_frame(_blocks(w), _PLUS)
        assert _repeated(frame) == degenerate
        k = framecalc.extract_frame_derivatives(_blocks(nw), frame.rows)
        ref = _projected_k(nw, frame.forms)
        assert np.abs(k - ref).max() <= 1e-13 * np.abs(ref).max()


def test_divergence_free_relations_synthetic(rng):
    for _ in range(20):
        w, nw, frame, _ = synthetic_sector(rng, divergence_free=True)
        div = np.einsum("tijkt->ijk", nw)
        assert np.abs(div).max() < 1e-12
        k = framecalc.extract_frame_derivatives(_blocks(nw), frame.rows)
        [(r, s)] = _rows(_plus_point(w, nw, frame, k), "divz.relations")
        assert r <= 1e-12 * max(s, 1e-30)
        # consequence used downstream: the key lemma holds on div-free data
        lhs = np.einsum("ijkl,jpqtk,ipqtl->", w, nw, nw)
        rhs = -0.5 * np.einsum("ijkl,ijpqt,klpqt->", w, nw, nw)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


def test_generic_data_violates_divergence_relations(rng):
    w, nw, frame, k = synthetic_sector(rng, divergence_free=False)
    [(r, s)] = _rows(_plus_point(w, nw, frame, k), "divz.relations")
    assert r > 1e-3 * s


def test_degenerate_eigenvalues_gap_scaled_path(rng):
    """On a repeated eigenvalue the frame from the W block is one of many;
    K read in it still reconstructs nabla W and expands its norm and cubic."""
    w, nw, _, _ = synthetic_sector(rng, degenerate=True)
    frame = alg.derdzinski_frame(_blocks(w), _PLUS)
    assert _repeated(frame)
    k = framecalc.extract_frame_derivatives(_blocks(nw), frame.rows)
    for r, s in _rows(_plus_point(w, nw, frame, k), *_DERDER):
        assert r <= 1e-12 * max(s, 1e-30)


def test_frame_and_k_expand_nothing(cp_cp2, catalog):
    """lam, E and K are read off the W+- blocks: no frame components are
    expanded, and K, a rotation of the nabla W blocks, keeps their norm,
    |K| = |nabla W+-| / 2, at one point per catalog chart and on the
    parallel half of CP^2."""
    points = [cp_cp2] + [
        curvature_at(chart, rng_mod.sample_box(chart.domain, 1, 42, name)[0],
                     depth=1)
        for name, chart in catalog.items()]
    for cp in points:
        pd = PointData(cp)
        for sign in (1, -1):
            pack = pd.sector(sign)
            for name in ("lam", "E", "K"):
                pack.operand(name)
            assert pack._stacks == {}, (cp.chart.name, sign)
            k = pack.operand("K")
            half = pack.norm("nw1") / 2.0
            assert abs(np.sqrt((k * k).sum()) - half) <= 1e-14 * half, \
                (cp.chart.name, sign)


def test_jet_blocks_equal_lambda_split(catalog):
    """The W+- blocks the jets carry are lambda_split's blocks of Riem, and
    the frames built on the two agree in their eigenvalues, at one point
    per catalog chart."""
    for name, chart in catalog.items():
        point = rng_mod.sample_box(chart.domain, 1, 42, name)[0]
        cp = curvature_at(chart, point, depth=1)
        pd = PointData(cp)
        split = alg.lambda_split(cp.riem, orientation=cp.orientation)
        forms = alg.sector_forms(cp.orientation)
        bound = 1e-12 * pd.riem_norm
        for s, (sign, block) in enumerate(((1, split.w_plus),
                                           (-1, split.w_minus))):
            jet = pd.sector(sign).blocks(0)[0]
            assert np.abs(jet - block).max() <= bound, (name, sign)
            lam = alg.derdzinski_frame(block, forms[s]).eigenvalues
            got = pd.sector(sign).operand("lam")
            assert np.abs(got - lam).max() <= bound, (name, sign)


def test_schwarzschild_extraction_residuals(cp_schwarzschild):
    pd = PointData(cp_schwarzschild)
    for sign in (1, -1):
        pack = pd.sector(sign)
        k = pack.operand("K")
        assert np.abs(k[0, 0]).max() > 1e-4             # nonzero output
        ref = _projected_k(pack.stack(1), pack.operand("E"))
        assert np.abs(k - ref).max() <= 1e-13 * np.abs(ref).max()
        r, s = evaluate(REGISTRY[f"derder.reconstruction-{pack.name}"], pd)
        assert r <= 1e-8 * s
        r, s = evaluate(REGISTRY[f"derder.norm-{pack.name}"], pd)
        assert r <= 1e-7 * s
        r, s = evaluate(REGISTRY[f"divz.relations-{pack.name}"], pd)
        assert r <= 1e-7 * max(s, 1e-30)


def test_eqrhs_on_sds_random_points(catalog, rng):
    chart = catalog["schwarzschild-de-sitter"]
    lo, hi = chart.domain[:, 0], chart.domain[:, 1]
    for _ in range(20):
        pt = lo + rng.random(4) * (hi - lo)
        pd = PointData(curvature_at(chart, pt, depth=1))
        for sign in (1, -1):
            r, s = evaluate(
                REGISTRY[f"derder.cubic-{pd.sector(sign).name}"], pd)
            assert r <= 1e-7 * max(s, 1e-30)


def test_eqrhs_universal_on_negative_control(catalog):
    """The cubic contraction formula holds even off every hypothesis."""
    cp = curvature_at(catalog["perturbed-schwarzschild"],
                      [4.5, 1.3, 0.9, 0.2], depth=1)
    r, s = evaluate(REGISTRY["derder.cubic-plus"], PointData(cp))
    assert r <= 1e-7 * s


def test_mix_orthogonality_synthetic(rng):
    """Plus-sector tensors are blind to minus-sector derivative data."""
    w_plus, _, _ = random_sector_tensor(rng, 1)
    frame_m = random_quaternionic_frame(rng, -1)
    forms = frame_m.forms
    k = rng.normal(size=(3, 3, 4))
    k = 0.5 * (k + np.swapaxes(k, 0, 1))
    nw_minus = np.zeros((4, 4, 4, 4, 4))
    for ia in range(3):
        for ib in range(3):
            nw_minus += 0.5 * np.einsum("t,pq,ij->ijpqt", k[ia, ib],
                                        forms[ib], forms[ia])
    mix = np.einsum("ijkl,jpqtk,ipqtl->", w_plus, nw_minus, nw_minus)
    assert abs(mix) <= 1e-13 * max(
        np.linalg.norm(w_plus) * np.linalg.norm(nw_minus) ** 2, 1e-30)
