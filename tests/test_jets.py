import itertools
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


@pytest.mark.parametrize("order", range(1, 9))
def test_gradient_coeffs_is_the_stacked_partials(rng, order):
    """One gather gives every partial derivative of a jet tensor, bit for
    bit, stacked before the coefficient axis."""
    a = rng.normal(size=(3, 2, jets.n_coeffs(order)))
    want = np.stack([jets.partial_coeffs(a, order, d) for d in range(4)],
                    axis=-2)
    got = jets.gradient_coeffs(a, order)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_gradient_coeffs_order_zero_rejected():
    with pytest.raises(ValueError):
        jets.gradient_coeffs(np.ones(1), 0)


def _horner(a, scaled):
    """sum_k scaled[k] (a - a0)^k by Horner's rule: the reference."""
    h = Jet(a.order, a.coeffs.copy())
    h.coeffs[0] = 0.0
    acc = Jet.constant(float(scaled[-1]), a.order)
    for c in scaled[-2::-1]:
        acc = acc * h + float(c)
    return acc


_ANY_VALUE = (jets.sin, jets.cos, jets.exp)
_POSITIVE_VALUE = (jets.sqrt, jets.recip, lambda x: jets.power(x, -1.5),
                   lambda x: jets.power(x, 1.0 / 3.0))


@pytest.mark.parametrize("order", range(9))
def test_compose_on_a_coordinate_is_horner_bit_for_bit(monkeypatch, order):
    """On a coordinate variable x_i the elementary functions place their
    Taylor coefficients on the powers of x_i: Horner's result to the bit,
    signs of zero included, where a coefficient vanishes (sin and cos at
    +0 and -0), is negative, or is not finite (exp of a large value)."""
    for axis, value in itertools.product(range(1, 5), (0.0, -0.0, -0.7, 0.3,
                                                       2.5, math.pi, 710.0)):
        x = Jet.variable(axis, value, order)
        for f in _ANY_VALUE + (_POSITIVE_VALUE if value > 0 else ()):
            with np.errstate(over="ignore", invalid="ignore"):
                fast = f(x).coeffs
                with monkeypatch.context() as m:
                    m.setattr(jets, "_compose", _horner)
                    slow = f(x).coeffs
            assert fast.tobytes() == slow.tobytes(), (axis, value, f)


def test_compose_takes_horner_off_a_coordinate(monkeypatch):
    """Only a coordinate variable skips Horner's products: a scaled or
    shifted coordinate, a sum of two, a square and a jet with no
    first-degree part each make one product per order."""
    order = 5
    x = Jet.variable(2, 0.4, order)
    y = Jet.variable(3, 0.1, order)
    square = x * x
    squared_only = Jet(order, square.coeffs - 0.8 * x.coeffs + 0.64)
    real, calls = jets.mul_coeffs, []

    def counting(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(jets, "mul_coeffs", counting)
    jets.exp(x + 1.0)
    assert calls == []
    for a in (x * 2.0, x * -1.0, x + y, square, squared_only):
        calls.clear()
        got = jets.exp(a).coeffs
        assert len(calls) == order
        with monkeypatch.context() as m:
            m.setattr(jets, "_compose", _horner)
            assert got.tobytes() == jets.exp(a).coeffs.tobytes()


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


def _contract(t, m, slot, order_t, order_m, order_out):
    return jets.contract_slot(
        t, jets.mul_operator(m, order_m, order_t, order_out), slot)


@pytest.mark.parametrize("m_rank", [2, 3])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_contract_slot_matches_broadcast_reference(rng, slot, m_rank):
    """Rank 2 is an index raise; rank 3 is Gamma with a trailing axis."""
    t = rng.normal(size=(4, 4, 4, jets.n_coeffs(3)))
    m = rng.normal(size=(4,) * m_rank + (jets.n_coeffs(3),))
    out = _contract(t, m, slot, 3, 3, 3)
    ref = _contract_reference(t, m, slot, 3, 3, 3)
    assert out.shape == (4,) * (1 + m_rank) + (jets.n_coeffs(3),)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("m_rank", [2, 3])
def test_contract_slot_mixed_orders(rng, m_rank):
    """order_t != order_m, and the result truncated below both."""
    t = rng.normal(size=(4, 4, 4, jets.n_coeffs(4)))
    m = rng.normal(size=(4,) * m_rank + (jets.n_coeffs(3),))
    for slot in range(3):
        out = _contract(t, m, slot, 4, 3, 2)
        ref = _contract_reference(t, m, slot, 4, 3, 2)
        assert out.shape[-1] == jets.n_coeffs(2)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        # the truncated product is the prefix of the full-order one
        full = _contract(t, m, slot, 4, 3, 4)
        assert np.abs(out - full[..., :jets.n_coeffs(2)]).max() \
            <= 1e-13 * np.abs(ref).max()


def test_contract_slot_non_contiguous_input(rng):
    """A transposed view contracts like its contiguous copy."""
    t = rng.normal(size=(4, 4, 4, jets.n_coeffs(3))).swapaxes(0, 2)
    m = rng.normal(size=(4, 4, 4, jets.n_coeffs(2)))
    assert not t.flags.c_contiguous
    for slot in range(3):
        out = _contract(t, m, slot, 3, 2, 3)
        ref = _contract_reference(np.ascontiguousarray(t), m, slot, 3, 2, 3)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("orders", [(3, 3, 3), (2, 4, 4), (4, 3, 2),
                                    (5, 1, 3), (0, 2, 2)])
def test_mul_operator_applies_mul_coeffs(rng, orders):
    """a @ op == mul_coeffs(a, m), also for order_in > order_out."""
    order_m, order_in, order_out = orders
    m = rng.normal(size=(jets.n_coeffs(order_m),))
    a = rng.normal(size=(7, jets.n_coeffs(order_in)))
    op = jets.mul_operator(m, order_m, order_in, order_out)
    n_in = jets.n_coeffs(min(order_in, order_out))
    assert op.shape == (n_in, jets.n_coeffs(order_out))
    ref = jets.mul_coeffs(a, m, order_in, order_m, order_out)
    assert np.abs(a[:, :n_in] @ op - ref).max() <= 1e-13 * np.abs(ref).max()


def test_mul_operator_broadcasts_leading_axes(rng):
    """Each leading index of m gets its own operator; entries are m's own."""
    m = rng.normal(size=(3, 2, jets.n_coeffs(2)))
    op = jets.mul_operator(m, 2, 4, 3)
    assert op.shape == (3, 2, jets.n_coeffs(3), jets.n_coeffs(3))
    a = rng.normal(size=(jets.n_coeffs(4),))
    ref = jets.mul_coeffs(a, m, 4, 2, 3)
    got = np.einsum("c,...cd->...d", a[:jets.n_coeffs(3)], op)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert set(np.unique(op)) <= set(m.ravel()) | {0.0}
    # row 0 is the constant monomial: m itself
    assert np.array_equal(op[..., 0, :jets.n_coeffs(2)], m)


def _mul_reference(a, b, order_out):
    """Product of two coefficient vectors through monomial dicts."""
    out = {}
    for ma, ca in zip(jets.MONOMIALS, a):
        for mb, cb in zip(jets.MONOMIALS, b):
            m = tuple(x + y for x, y in zip(ma, mb))
            if sum(m) <= order_out:
                out[m] = out.get(m, 0.0) + ca * cb
    return np.array([out.get(m, 0.0)
                     for m in jets.MONOMIALS[:jets.n_coeffs(order_out)]])


@pytest.mark.parametrize("orders", [(6, 6, 6), (4, 2, 3), (5, 3, 2),
                                    (2, 5, 6), (3, 1, 6), (0, 4, 4),
                                    (4, 0, 1), (6, 6, 0)])
def test_mul_coeffs_matches_monomial_reference(rng, orders):
    """Mixed orders, with order_out below, between and above the factors'.

    Integer coefficients keep every sum exact, so equality is exact whatever
    the summation order.
    """
    oa, ob, oo = orders
    a = rng.integers(-8, 9, size=(2, jets.n_coeffs(oa))).astype(float)
    b = rng.integers(-8, 9, size=(2, jets.n_coeffs(ob))).astype(float)
    got = jets.mul_coeffs(a, b, oa, ob, oo)
    assert got.shape == (2, jets.n_coeffs(oo))
    for i in range(2):
        assert np.array_equal(got[i], _mul_reference(a[i], b[i], oo))


@pytest.mark.parametrize("shapes", [((), (4, 4, 4, 4)), ((4, 4, 4, 4), ()),
                                    ((3, 1), (2,)), ((2,), (3, 1, 2)),
                                    ((1, 4, 1), (4, 1, 3))])
def test_mul_coeffs_broadcasts_operands_of_different_rank(rng, shapes):
    """Leading axes align from the right, as for a scalar jet times a
    rank-4 jet tensor in weyl_jets."""
    sa, sb = shapes
    a = rng.integers(-8, 9, size=sa + (jets.n_coeffs(3),)).astype(float)
    b = rng.integers(-8, 9, size=sb + (jets.n_coeffs(2),)).astype(float)
    got = jets.mul_coeffs(a, b, 3, 2, 4)
    shape = np.broadcast_shapes(sa, sb)
    assert got.shape == shape + (jets.n_coeffs(4),)
    ab = np.broadcast_to(a, shape + a.shape[-1:])
    bb = np.broadcast_to(b, shape + b.shape[-1:])
    for idx in np.ndindex(*shape):
        assert np.array_equal(got[idx], _mul_reference(ab[idx], bb[idx], 4))


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
