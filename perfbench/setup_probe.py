"""One set-up, as a fresh process pays it; timed from outside by run.py.

Usage: python3 perfbench/setup_probe.py ORDER

Imports weylforge from the checkout's src/, builds the chart catalog and
warms the kernel's lazily built index tables up to jet order ORDER (one
order-ORDER product builds every degree-pair table such a run uses).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from weylforge import charts, jets  # noqa: E402

order = int(sys.argv[1])
charts.build_catalog()
one = np.ones((1, jets.n_coeffs(order)))
jets.mul_coeffs(one, one, order, order, order)
