import numpy as np
import pytest

from dict_point import DictPoint
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
    frame = alg.random_quaternionic_frame(rng, 1)
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


def _derder_rows(w, nw, frame, ed):
    """(residual, scale) of the registry's derder.norm-plus and
    derder.cubic-plus rows on a synthetic plus half."""
    point = DictPoint({"W+": w, "nw1+": nw, "lam+": frame.eigenvalues,
                       "K+": ed.k})
    return [REGISTRY[sid].evaluate(point)
            for sid in ("derder.norm-plus", "derder.cubic-plus")]


def test_extraction_recovers_generating_forms(rng):
    for _ in range(20):
        w, nw, frame, k = synthetic_sector(rng)
        ed = framecalc.extract_frame_derivatives(nw, frame)
        assert np.abs(ed.k - k).max() < 1e-12
        assert ed.recon_residual <= 1e-13 * max(np.abs(nw).max(), 1e-30)
        assert ed.consistency_gap <= 1e-13 * max(np.abs(nw).max(), 1e-30)
        (r, s), (r3, s3) = _derder_rows(w, nw, frame, ed)
        assert r <= 1e-13 * max(s, 1e-30)
        assert r3 <= 1e-12 * max(s3, 1e-30)


def test_divergence_free_relations_synthetic(rng):
    for _ in range(20):
        w, nw, frame, _ = synthetic_sector(rng, divergence_free=True)
        div = np.einsum("tijkt->ijk", nw)
        assert np.abs(div).max() < 1e-12
        ed = framecalc.extract_frame_derivatives(nw, frame)
        r, s = framecalc.div_free_relations_residual(ed, frame)
        assert r <= 1e-12 * max(s, 1e-30)
        # consequence used downstream: the key lemma holds on div-free data
        lhs = np.einsum("ijkl,jpqtk,ipqtl->", w, nw, nw)
        rhs = -0.5 * np.einsum("ijkl,ijpqt,klpqt->", w, nw, nw)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


def test_generic_data_violates_divergence_relations(rng):
    w, nw, frame, _ = synthetic_sector(rng, divergence_free=False)
    ed = framecalc.extract_frame_derivatives(nw, frame)
    r, s = framecalc.div_free_relations_residual(ed, frame)
    assert r > 1e-3 * s


def test_degenerate_eigenvalues_gap_scaled_path(rng):
    w, nw, frame, _ = synthetic_sector(rng, degenerate=True)
    ed = framecalc.extract_frame_derivatives(nw, frame)
    assert frame.degenerate
    for r, s in _derder_rows(w, nw, frame, ed):
        assert r <= 1e-12 * max(s, 1e-30)


def test_trivial_path_on_parallel_weyl(cp_cp2, catalog):
    """The expansion is the zero expansion exactly where the half is
    parallel, as PointData.is_parallel measures it: at one point per catalog
    chart and both halves."""
    pack = PointData(cp_cp2).sector(1)
    ed = pack.ed
    assert ed.trivial
    assert np.abs(ed.k).max() == 0.0
    assert ed.recon_residual == 0.0
    for name, chart in catalog.items():
        point = rng_mod.sample_box(chart.domain, 1, 42, name)[0]
        pd = PointData(curvature_at(chart, point, depth=1))
        for sign in (1, -1):
            assert pd.sector(sign).ed.trivial == pd.is_parallel(sign), \
                (name, sign)


def test_schwarzschild_extraction_residuals(cp_schwarzschild):
    pd = PointData(cp_schwarzschild)
    for sign in (1, -1):
        pack = pd.sector(sign)
        ed = pack.ed
        assert not ed.trivial
        assert np.abs(ed.k[0, 0]).max() > 1e-4             # nonzero output
        assert ed.recon_residual <= 1e-8 * np.abs(pack.stack(1)).max()
        r, s = REGISTRY[f"derder.norm-{pack.name}"].evaluate(pd)
        assert r <= 1e-7 * s
        r, s = framecalc.div_free_relations_residual(ed, pack.frame)
        assert r <= 1e-7 * max(s, 1e-30)


def test_eqrhs_on_sds_random_points(catalog, rng):
    chart = catalog["schwarzschild-de-sitter"]
    lo, hi = chart.domain[:, 0], chart.domain[:, 1]
    for _ in range(20):
        pt = lo + rng.random(4) * (hi - lo)
        pd = PointData(curvature_at(chart, pt, depth=1))
        for sign in (1, -1):
            r, s = REGISTRY[f"derder.cubic-{pd.sector(sign).name}"].evaluate(
                pd)
            assert r <= 1e-7 * max(s, 1e-30)


def test_eqrhs_universal_on_negative_control(catalog):
    """The cubic contraction formula holds even off every hypothesis."""
    cp = curvature_at(catalog["perturbed-schwarzschild"],
                      [4.5, 1.3, 0.9, 0.2], depth=1)
    r, s = REGISTRY["derder.cubic-plus"].evaluate(PointData(cp))
    assert r <= 1e-7 * s


def test_mix_orthogonality_synthetic(rng):
    """Plus-sector tensors are blind to minus-sector derivative data."""
    w_plus, _, _ = alg.random_sector_tensor(rng, 1)
    frame_m = alg.random_quaternionic_frame(rng, -1)
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
