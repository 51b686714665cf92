"""jets.mul_coeffs against the per-degree kernel it replaced.

The chunked kernel keeps every coefficient pair of `_product_table` in its
(target, ia, ib) order, so each target's sum runs in the same order and the
results must be bit-identical, not merely close.
"""

import numpy as np
import pytest

from weylforge import jets
from weylforge.jets import n_coeffs


def _per_degree_mul(a, b, order_a, order_b, order_out):
    """The kernel as it was: one gather, product and reduceat per output
    degree, on coefficient-major copies made with moveaxis."""
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])

    def coeff_major(x):
        pad = (1,) * (len(shape) - x.ndim + 1)
        return np.moveaxis(x, -1, 0).reshape(x.shape[-1:] + pad
                                             + x.shape[:-1])

    am, bm = coeff_major(a), coeff_major(b)
    out = np.zeros((n_coeffs(order_out),) + shape)
    for lo, hi, ia, ib, starts in jets._product_table(order_a, order_b,
                                                      order_out):
        np.add.reduceat(am[ia] * bm[ib], starts, axis=0, out=out[lo:hi])
    return np.moveaxis(out, 0, -1)


def _assert_same(a, b, orders):
    got = jets.mul_coeffs(a, b, *orders)
    want = _per_degree_mul(a, b, *orders)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    return got


@pytest.mark.parametrize("order", range(7))
@pytest.mark.parametrize("shapes", [((), ()), ((1,), (1,)),
                                    ((4, 4), (4, 4)),
                                    ((), (2, 3, 4)), ((2, 3, 4), ()),
                                    ((3, 1), (1, 5)), ((6, 1, 4), (4, 1))])
def test_mul_coeffs_is_bit_identical_to_the_per_degree_kernel(rng, order,
                                                              shapes):
    """Orders 0-6, one element, and broadcasting from either side."""
    sa, sb = shapes
    a = rng.standard_normal(sa + (n_coeffs(order),))
    b = rng.standard_normal(sb + (n_coeffs(order),))
    _assert_same(a, b, (order, order, order))


@pytest.mark.parametrize("orders", [(2, 3, 6), (0, 2, 4), (1, 1, 5),
                                    (3, 0, 8)])
def test_mul_coeffs_above_the_factors_orders_has_a_zero_tail(rng, orders):
    oa, ob, oo = orders
    a = rng.standard_normal((3, n_coeffs(oa)))
    b = rng.standard_normal((2, 1, n_coeffs(ob)))
    got = _assert_same(a, b, orders)
    assert got.shape == (2, 3, n_coeffs(oo))
    assert not got[..., n_coeffs(oa + ob):].any()


@pytest.mark.parametrize("orders", [(6, 6, 4), (5, 4, 2), (3, 6, 0),
                                    (4, 4, 3)])
def test_mul_coeffs_below_both_orders_reads_a_prefix(rng, orders):
    """Input coefficients above order_out are not read, including through
    non-contiguous slices as the chart stages pass them."""
    oa, ob, oo = orders
    a = rng.standard_normal((4, 3, n_coeffs(oa)))
    b = rng.standard_normal((3, n_coeffs(ob) + 5))[..., :n_coeffs(ob)]
    got = _assert_same(a, b, orders)
    short = jets.mul_coeffs(a[..., :n_coeffs(oo)].copy(),
                            b[..., :n_coeffs(oo)].copy(), oo, oo, oo)
    assert np.array_equal(got, short)


def test_mul_coeffs_order_2_batch_at_the_micro_benchmark_size(rng):
    """An order-2 batch as large as the kernel micro-benchmark's 32 MiB
    case (two operands and the result)."""
    nc = n_coeffs(2)
    n = 32 * 1024 * 1024 // (3 * 8 * nc)
    a = rng.standard_normal((n, nc))
    b = rng.standard_normal((n, nc))
    _assert_same(a, b, (2, 2, 2))


@pytest.mark.parametrize("orders", [(o, o, o) for o in range(9)]
                         + [(6, 0, 6), (0, 6, 6), (3, 3, 6), (4, 4, 2),
                            (6, 6, 0), (2, 5, 8)])
def test_chunks_cover_the_table_within_its_largest_degree(orders):
    """Chunks are runs of consecutive degrees, in order, with every pair of
    the table, and none holds more pairs than the table's largest degree."""
    table = jets._product_table(*orders)
    chunks = jets._chunk_table(*orders)
    limit = max(len(ia) for _, _, ia, _, _ in table)
    assert chunks[0][0] == 0 and chunks[-1][1] == table[-1][1]
    for (_, hi, _, _, _), (lo, _, _, _, _) in zip(chunks, chunks[1:]):
        assert hi == lo
    for lo, hi, ia, ib, starts in chunks:
        assert len(ia) == len(ib) <= limit
        assert len(starts) == hi - lo and starts[0] == 0

    def pairs(runs):
        """The pairs' ia, ib and target arrays, in the runs' order."""
        tgt = [np.repeat(np.arange(lo, hi), np.diff(st, append=len(ia)))
               for lo, hi, ia, _, st in runs]
        return [np.concatenate([r[k] for r in runs]) for k in (2, 3)] \
            + [np.concatenate(tgt)]

    for got, want in zip(pairs(chunks), pairs(table)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("order", range(1, 9))
def test_equal_order_products_take_two_passes(order):
    assert len(jets._chunk_table(order, order, order)) == 2


def _contract_slot_by_moveaxis(t, op, slot):
    """contract_slot as it was, with a moveaxis for each of its views."""
    n, n_in = op.shape[0], op.shape[-2]
    moved = np.moveaxis(t[..., :n_in], slot, -2)
    lead = moved.shape[:-2]
    mat = np.moveaxis(op, -2, 1).reshape(n * n_in, -1)
    out = moved.reshape(-1, n * n_in) @ mat
    out = out.reshape(lead + op.shape[1:-2] + op.shape[-1:])
    return np.moveaxis(out, len(lead), slot)


@pytest.mark.parametrize("extra", [(), (4,)])
@pytest.mark.parametrize("rank", [1, 2, 4])
def test_contract_slot_is_bit_identical_to_the_moveaxis_form(rng, rank,
                                                             extra):
    """Its precomputed transposes give the views the three moveaxis calls
    gave, so every slot contracts to the same bits, with and without a
    further axis of m after t's."""
    order = 3
    t = rng.normal(size=(4,) * rank + (n_coeffs(order),))
    m = rng.normal(size=(4, 3) + extra + (n_coeffs(order - 1),))
    op = jets.mul_operator(m, order - 1, order, order - 1)
    for slot in range(rank):
        out = jets.contract_slot(t, op, slot)
        assert np.array_equal(out, _contract_slot_by_moveaxis(t, op, slot))
        assert out.shape[slot] == 3
