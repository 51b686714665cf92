import numpy as np
import pytest

from weylforge import algebra, jets
from weylforge.tensors import DenseTensor, kulkarni_nomizu


def random_weyl_type(rng):
    w, _, _ = algebra.random_sector_tensor(rng, 1)
    w2, _, _ = algebra.random_sector_tensor(rng, -1)
    return w + w2


def test_trace_of_identity_is_dimension():
    delta = DenseTensor.delta("dd")
    ginv = DenseTensor(np.eye(4), "uu")
    result = delta.contract(0, 1, inverse_metric=ginv.permute((0, 1)))
    # (down, down) pair through the inverse metric
    t = delta.contract(0, 1, inverse_metric=DenseTensor(np.eye(4), "uu"))
    assert t.rank == 0
    assert float(t.data) == pytest.approx(4.0)
    assert float(result.data) == pytest.approx(4.0)


def test_constant_curvature_ricci():
    """Riemann = K/2 (g ^ g) contracts to Ricci = 3K g for unit S4 (K = 1)."""
    g = DenseTensor.delta("dd")
    riem = kulkarni_nomizu(g, g).scale(0.5)
    ginv = DenseTensor(np.eye(4), "uu")
    ric = riem.contract(1, 3, inverse_metric=ginv)
    assert np.abs(ric.data - 3.0 * np.eye(4)).max() < 1e-14
    scalar = ric.contract(0, 1, inverse_metric=ginv)
    assert float(scalar.data) == pytest.approx(12.0)


def test_full_contraction_norm(rng):
    w = random_weyl_type(rng)
    t = DenseTensor(w, "dddd")
    assert t.norm_sq() == pytest.approx(float((w ** 2).sum()))


def test_kulkarni_nomizu_flat_expansion():
    g = DenseTensor.delta("dd")
    gg = kulkarni_nomizu(g, g)
    d = np.eye(4)
    want = 2.0 * (np.einsum("ik,jl->ijkl", d, d)
                  - np.einsum("il,jk->ijkl", d, d))
    assert np.abs(gg.data - want).max() == 0.0


def test_kulkarni_nomizu_symmetries_and_commutativity(rng):
    # integer-valued entries make the symmetry sums exact in floating point
    a = rng.integers(-6, 7, size=(4, 4)).astype(float)
    a = DenseTensor(a + a.T, "dd")
    b = rng.integers(-6, 7, size=(4, 4)).astype(float)
    b = DenseTensor(b + b.T, "dd")
    ab = kulkarni_nomizu(a, b)
    ba = kulkarni_nomizu(b, a)
    assert ab.riemann_symmetry_violation() == 0.0
    assert np.abs(ab.data - ba.data).max() == 0.0
    # generic floats: exact up to summation-order round-off
    x = rng.normal(size=(4, 4))
    y = rng.normal(size=(4, 4))
    xy = kulkarni_nomizu(DenseTensor(x + x.T, "dd"),
                         DenseTensor(y + y.T, "dd"))
    scale = np.abs(xy.data).max()
    assert xy.riemann_symmetry_violation() <= 1e-14 * scale


def test_gg_double_trace_is_24():
    g = DenseTensor.delta("dd")
    gg = kulkarni_nomizu(g, g)
    ginv = DenseTensor(np.eye(4), "uu")
    once = gg.contract(0, 2, inverse_metric=ginv)
    val = once.contract(0, 1, inverse_metric=ginv)
    assert float(val.data) == pytest.approx(24.0, abs=0.0)


def test_antisymmetrize_symmetric_is_zero(rng):
    a = rng.normal(size=(4, 4))
    t = DenseTensor(a + a.T, "dd")
    assert np.abs(t.antisymmetrize((0, 1)).data).max() == 0.0


def test_permute_inverse_roundtrip(rng):
    t = DenseTensor(rng.normal(size=(4, 4, 4)), "ddd")
    perm = (2, 0, 1)
    inv = tuple(np.argsort(perm))
    back = t.permute(perm).permute(inv)
    assert np.array_equal(back.data, t.data)


def test_norm_invariant_under_orthogonal_conjugation(rng):
    w = random_weyl_type(rng)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    rotated = np.einsum("ijkl,ia,jb,kc,ld->abcd", w, q, q, q, q)
    n1 = DenseTensor(w, "dddd").norm_sq()
    n2 = DenseTensor(rotated, "dddd").norm_sq()
    assert abs(n1 - n2) <= 1e-12 * max(n1, 1.0)


def test_cp2_weyl_is_self_dual(cp_cp2):
    w = DenseTensor(cp_cp2.weyl, "dddd")
    w_minus = DenseTensor(
        algebra.project_sector(cp_cp2.weyl, -1, cp_cp2.orientation), "dddd")
    assert w.norm_sq() > 1.0
    assert w_minus.norm_sq() < 1e-20


def test_rank_cap_enforced():
    with pytest.raises(ValueError):
        DenseTensor(np.zeros((4,) * 7), "d" * 7)
    r4 = DenseTensor(np.zeros((4,) * 4), "dddd")
    with pytest.raises(ValueError):
        r4.tensor_product(r4)


def test_contraction_variance_rules(rng):
    t = DenseTensor(rng.normal(size=(4, 4)), "dd")
    with pytest.raises(ValueError):
        t.contract(0, 1)  # (down, down) without an inverse metric
    ginv = DenseTensor(np.eye(4), "uu")
    assert t.contract(0, 1, inverse_metric=ginv).rank == 0
    up = DenseTensor(rng.normal(size=(4, 4)), "uu")
    with pytest.raises(ValueError):
        up.contract(0, 1)
    assert up.contract(0, 1, metric=DenseTensor.delta("dd")).rank == 0
    mixed = DenseTensor(rng.normal(size=(4, 4)), "ud")
    assert float(mixed.contract(0, 1).data) == pytest.approx(
        float(np.trace(mixed.data)))


def _eye_jets(order):
    nc = jets.n_coeffs(order)
    g = np.zeros((4, 4, nc))
    for i in range(4):
        g[i, i, 0] = 1.0
    return g


def test_jet_entry_tensor_ops(rng):
    order = 3
    nc = jets.n_coeffs(order)
    a = DenseTensor(rng.normal(size=(4, nc)), "d", jet_order=order)
    b = DenseTensor(rng.normal(size=(4, nc)), "d", jet_order=order)
    prod = a.tensor_product(b)
    assert prod.rank == 2 and prod.jet_order == order
    # entry-wise agreement with scalar Jet arithmetic
    want = a.entry(1) * b.entry(2)
    assert np.abs(prod.entry(1, 2).coeffs - want.coeffs).max() < 1e-14
    ginv = DenseTensor(_eye_jets(order), "uu", jet_order=order)
    tr = prod.contract(0, 1, inverse_metric=ginv)
    total = sum((a.entry(i) * b.entry(i) for i in range(4)),
                start=jets.Jet.constant(0.0, order))
    assert np.abs(tr.entry().coeffs - total.coeffs).max() < 1e-13
    direct = sum((a.entry(i) * a.entry(i) for i in range(4)),
                 start=jets.Jet.constant(0.0, order))
    assert np.abs(a.norm_sq().coeffs - direct.coeffs).max() < 1e-13


def test_riemann_symmetry_check_on_demand(rng):
    bad = DenseTensor(rng.normal(size=(4, 4, 4, 4)), "dddd")
    assert bad.riemann_symmetry_violation() > 0.1
    w, _, _ = algebra.random_sector_tensor(rng, 1)
    assert DenseTensor(w, "dddd").riemann_symmetry_violation() < 1e-14


@pytest.mark.parametrize("name", ["cp2-fubini-study", "schwarzschild"])
def test_jet_contraction_of_catalog_metric_with_its_inverse(catalog, name):
    """g_ij g^jk = delta_i^k and g^ij g_ij = 4 as jets, through contract."""
    from weylforge.charts import inverse_metric_jets
    order = 4
    chart = catalog[name]
    gj = chart.metric_jets(chart.domain.mean(axis=1) + 0.05, order)
    g = DenseTensor(gj, "dd", jet_order=order)
    ginv = DenseTensor(inverse_metric_jets(gj, order), "uu", jet_order=order)
    delta = np.zeros(gj.shape)
    delta[..., 0] = np.eye(4)
    # (g x delta)_ijkl = g_ij delta_kl; pairing slots 1, 2 through g^-1
    mixed = g.tensor_product(DenseTensor(delta, "dd", jet_order=order))
    out = mixed.contract(1, 2, inverse_metric=ginv)
    assert out.variance == ("d", "d") and out.jet_order == order
    assert np.abs(out.data - delta).max() < 1e-13
    four = np.zeros(jets.n_coeffs(order))
    four[0] = 4.0
    assert np.abs(g.contract(0, 1, inverse_metric=ginv).data - four).max() \
        < 1e-13
    assert np.abs(ginv.contract(0, 1, metric=g).data - four).max() < 1e-13
