import math

import numpy as np
import pytest

from weylforge import jets
from weylforge.jets import Jet, JetDomainError, jet_arith, jet_elementary, \
    jet_partial


def random_jet(rng, order, integral=False):
    c = rng.integers(-8, 9, size=jets.n_coeffs(order)).astype(float) \
        if integral else rng.normal(size=jets.n_coeffs(order))
    return Jet(order, c)


def test_one_minus_x_squared():
    x = Jet.variable(1, 0.0, 2)
    p = (1 + x) * (1 - x)
    assert p.coefficient((0, 0, 0, 0)) == 1.0
    assert p.coefficient((2, 0, 0, 0)) == -1.0
    others = {k: v for k, v in p.to_dict().items()
              if k not in ((0, 0, 0, 0), (2, 0, 0, 0))}
    assert all(v == 0.0 for v in others.values())


def test_multiplicative_identity(rng):
    a = random_jet(rng, 4)
    one = Jet.constant(1.0, 4)
    assert np.array_equal((a * one).coeffs, a.coeffs)


def test_sin_cos_half_sin_2x():
    x = Jet.variable(1, 0.3, 5)
    lhs = jets.sin(x) * jets.cos(x)
    rhs = jets.sin(x * 2.0) * 0.5
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-14


def test_recip_geometric_series():
    r = jets.recip(1 + Jet.variable(1, 0.0, 3))
    expected = {(0, 0, 0, 0): 1.0, (1, 0, 0, 0): -1.0,
                (2, 0, 0, 0): 1.0, (3, 0, 0, 0): -1.0}
    for exps, coeff in r.to_dict().items():
        assert coeff == pytest.approx(expected.get(exps, 0.0), abs=1e-15)


def test_sqrt_of_constant():
    s = jets.sqrt(Jet.constant(4.0, 3))
    assert s.value == pytest.approx(2.0)
    assert np.abs(s.coeffs[1:]).max() == 0.0


def test_exp_multinomial_oracle():
    """exp(x + y) at order 3: coefficient of x^a y^b is 1/(a! b!)."""
    e = jets.exp(Jet.variable(1, 0.0, 3) + Jet.variable(2, 0.0, 3))
    for exps, coeff in e.to_dict().items():
        a, b, c, d = exps
        want = 0.0 if (c or d) else 1.0 / (math.factorial(a) * math.factorial(b))
        assert coeff == pytest.approx(want, abs=1e-15)


def test_partial_monomial():
    x1 = Jet.variable(1, 0.0, 3)
    x2 = Jet.variable(2, 0.0, 3)
    d = (x1 * x1 * x2).partial(1)
    assert d.coefficient((1, 1, 0, 0)) == 2.0
    assert sum(abs(v) for k, v in d.to_dict().items() if k != (1, 1, 0, 0)) == 0


def test_partial_of_constant_is_zero():
    d = Jet.constant(3.5, 2).partial(2)
    assert np.abs(d.coeffs).max() == 0.0


def test_partial_order_zero_rejected():
    with pytest.raises(ValueError):
        Jet.constant(1.0, 0).partial(1)


def test_mixed_partials_exact(rng):
    for _ in range(100):
        a = random_jet(rng, 5, integral=True)
        d12 = a.partial(1).partial(2)
        d21 = a.partial(2).partial(1)
        assert np.array_equal(d12.coeffs, d21.coeffs)


def test_ring_axioms(rng):
    for _ in range(20):
        a, b, c = (random_jet(rng, 4) for _ in range(3))
        dist = (a * (b + c)).coeffs - (a * b + a * c).coeffs
        assoc = ((a * b) * c).coeffs - (a * (b * c)).coeffs
        scale = max(np.abs((a * b + a * c).coeffs).max(),
                    np.abs((a * (b * c)).coeffs).max(), 1.0)
        assert np.abs(dist).max() <= 1e-13 * scale
        assert np.abs(assoc).max() <= 1e-13 * scale


def test_leibniz(rng):
    for _ in range(20):
        a, b = random_jet(rng, 4), random_jet(rng, 4)
        lhs = (a * b).partial(3)
        rhs = a.partial(3) * b.truncate(3) + a.truncate(3) * b.partial(3)
        scale = max(np.abs(rhs.coeffs).max(), 1.0)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-13 * scale


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        jet_arith(Jet.constant(1.0, 2), Jet.constant(1.0, 3), "add")


def test_domain_errors_report_value():
    bad = Jet.constant(-2.0, 3)
    for fn in ("sqrt", "recip"):
        with pytest.raises(JetDomainError) as err:
            jet_elementary(bad, fn)
        assert "-2.0" in str(err.value)
    with pytest.raises(JetDomainError):
        jets.power(bad, 1.5)


def test_negative_integer_power_matches_recip():
    a = 2.0 + Jet.variable(1, 0.0, 4)
    lhs = jets.power(a, -2.0)
    rhs = jets.recip(a) * jets.recip(a)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-14


def test_spec_entry_points(rng):
    a, b = random_jet(rng, 3), random_jet(rng, 3)
    assert np.array_equal(jet_arith(a, b, "mul").coeffs, (a * b).coeffs)
    assert np.array_equal(jet_partial(a, 2).coeffs, a.partial(2).coeffs)
    c = Jet.constant(2.0, 3)
    assert jet_elementary(c, "pow", 3.0).value == pytest.approx(8.0)
    with pytest.raises(ValueError):
        jet_elementary(a, "tan")



# -- contract_slot against a broadcast-multiply-and-sum reference ------------

def _contract_reference(t, m, slot, order_t, order_m, order_out):
    """Broadcast t and m onto one grid, multiply once, sum the paired axis.

    Grid axes: t's tensor axes, then m's second axis, then m's further axes;
    m's first axis lies on `slot`.
    """
    rank, extra = t.ndim - 1, m.ndim - 3
    tb = t.reshape(t.shape[:-1] + (1,) * (1 + extra) + t.shape[-1:])
    mb = m.reshape((m.shape[0],) + (1,) * (rank - 1) + m.shape[1:])
    mb = np.moveaxis(mb, 0, slot)
    prod = jets.mul_coeffs(tb, mb, order_t, order_m, order_out)
    return np.moveaxis(prod.sum(axis=slot), rank - 1, slot)


@pytest.mark.parametrize("m_rank", [2, 3])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_contract_slot_matches_broadcast_reference(rng, slot, m_rank):
    """Rank 2 is an index raise; rank 3 is Gamma with a trailing axis."""
    t = rng.normal(size=(4, 4, 4, jets.n_coeffs(3)))
    m = rng.normal(size=(4,) * m_rank + (jets.n_coeffs(3),))
    out = jets.contract_slot(t, m, slot, 3, 3, 3)
    ref = _contract_reference(t, m, slot, 3, 3, 3)
    assert out.shape == (4,) * (1 + m_rank) + (jets.n_coeffs(3),)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("m_rank", [2, 3])
def test_contract_slot_mixed_orders(rng, m_rank):
    """order_t != order_m, and the result truncated below both."""
    t = rng.normal(size=(4, 4, 4, jets.n_coeffs(4)))
    m = rng.normal(size=(4,) * m_rank + (jets.n_coeffs(3),))
    for slot in range(3):
        out = jets.contract_slot(t, m, slot, 4, 3, 2)
        ref = _contract_reference(t, m, slot, 4, 3, 2)
        assert out.shape[-1] == jets.n_coeffs(2)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        # the truncated product is the prefix of the full-order one
        full = jets.contract_slot(t, m, slot, 4, 3, 4)
        assert np.abs(out - full[..., :jets.n_coeffs(2)]).max() \
            <= 1e-13 * np.abs(ref).max()


# -- central-finite-difference oracle over the catalog metrics ---------------

def _fd1(f, x, i, h=1e-4):
    e = np.zeros(4)
    e[i] = 1.0
    return (-f(x + 2 * h * e) + 8 * f(x + h * e) - 8 * f(x - h * e)
            + f(x - 2 * h * e)) / (12 * h)


def _fd2(f, x, i, j, h=1e-4):
    if i == j:
        e = np.zeros(4)
        e[i] = 1.0
        return (-f(x + 2 * h * e) + 16 * f(x + h * e) - 30 * f(x)
                + 16 * f(x - h * e) - f(x - 2 * h * e)) / (12 * h * h)
    return _fd1(lambda y: _fd1(f, y, j, h), x, i, h)


@pytest.mark.parametrize("name,point", [
    ("s4-round", (0.1, -0.15, 0.2, 0.05)),
    ("schwarzschild", (5.0, 1.2, 0.8, 0.3)),
    ("cp2-fubini-study", (0.2, -0.1, 0.15, 0.3)),
    ("conformally-flat", (0.2, -0.3, 0.1, 0.2)),
])
def test_jet_partials_match_finite_differences(catalog, name, point):
    chart = catalog[name]
    point = np.array(point)
    g = chart.metric_jets(point, 3)

    def comp(i, j):
        return lambda x: chart.metric_jets(x, 0)[i, j, 0]

    def unit(*pairs):
        e = [0, 0, 0, 0]
        for d in pairs:
            e[d] += 1
        return jets.MONO_INDEX[tuple(e)]

    for i in range(4):
        for j in range(i, 4):
            coeffs = g[i, j]
            scale = max(abs(coeffs[0]), 1.0)
            for d in range(4):
                jet_val = coeffs[unit(d)]
                fd_val = _fd1(comp(i, j), point, d)
                assert abs(jet_val - fd_val) <= 1e-6 * max(abs(fd_val), scale)
            for d1 in range(4):
                for d2 in range(d1, 4):
                    factor = 2.0 if d1 == d2 else 1.0
                    jet_val = factor * coeffs[unit(d1, d2)]
                    fd_val = _fd2(comp(i, j), point, d1, d2)
                    assert abs(jet_val - fd_val) <= 1e-6 * max(abs(fd_val),
                                                               scale)
