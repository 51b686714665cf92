"""Microbenchmark of the jet kernel `mul_coeffs` at orders 2-6.

Each order is timed on two batch sizes of random (n, C(order+4, 4)) operand
pairs: one whose operands and result take 512 KiB, so that they and the
kernel's per-degree-pair temporaries stay in a 4 MiB L2, and one of 32 MiB,
which does not fit in L2.  Operations per byte are computed, not measured:
two flops (multiply, add) per coefficient pair over the operand and result
bytes.  No bandwidth ratio is reported: the 300 MiB L3 shared with other
tenants leaves no array size that measures memory bandwidth honestly.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from layertrace import pairs_per_element

ORDERS = (2, 3, 4, 5, 6)
BATCH_BYTES = {"l2": 512 * 1024, "big": 32 * 1024 * 1024}
MIN_REPEATS = 5
MIN_SECONDS = 0.05


def run(mul_coeffs, n_coeffs, seed: int) -> dict:
    """Metrics `jets.micro.o<k>.{l2,big}_us_per_elem` and `.ops_per_byte`."""
    rng = np.random.default_rng(seed)
    out = {}
    for order in ORDERS:
        nc = n_coeffs(order)
        bytes_per_elem = 3 * 8 * nc     # two operands and the result
        for label, target in BATCH_BYTES.items():
            n = max(1, target // bytes_per_elem)
            a = rng.standard_normal((n, nc))
            b = rng.standard_normal((n, nc))
            times = []
            start = time.perf_counter()
            while (len(times) < MIN_REPEATS
                   or time.perf_counter() - start < MIN_SECONDS):
                t0 = time.perf_counter()
                mul_coeffs(a, b, order, order, order)
                times.append(time.perf_counter() - t0)
            out[f"jets.micro.o{order}.{label}_us_per_elem"] = (
                statistics.median(times) / n * 1e6)
        out[f"jets.micro.o{order}.ops_per_byte"] = (
            2 * pairs_per_element(order, order, order) / bytes_per_elem)
    return out
