"""Random polynomial metrics: charts with no symmetry, for tests.

Each entry g_ij (i <= j) is delta_ij plus 12 random monomials of degree 1-4
in the coordinates, with coefficients 0.15 N(0, 1) / degree, on the box
[-0.4, 0.4]^4.  The charts declare no property, so the suite attempts only
the identities that hold on every metric.  Their W+- halves have three
distinct eigenvalues, which no catalog chart has.
"""

import numpy as np

from weylforge.charts import DIM, ChartProperties, MetricChart
from weylforge.jets import Jet, n_coeffs

MONOMIALS_PER_ENTRY = 12


def random_polynomial_chart(seed: int,
                            properties: ChartProperties | None = None
                            ) -> MetricChart:
    """The chart `random-poly-<seed>`, its monomials drawn from
    np.random.default_rng(seed): per entry and monomial, the degree, the
    exponents and the coefficient, in that order."""
    rng = np.random.default_rng(seed)
    entries = {}
    for i in range(DIM):
        for j in range(i, DIM):
            terms = []
            for _ in range(MONOMIALS_PER_ENTRY):
                degree = int(rng.integers(1, 5))
                exponents = rng.multinomial(degree, [0.25] * DIM)
                terms.append((exponents, 0.15 * rng.normal() / degree))
            entries[i, j] = terms

    def metric_fn(point, order):
        x = [Jet.variable(i + 1, point[i], order) for i in range(DIM)]
        g = np.zeros((DIM, DIM, n_coeffs(order)))
        for (i, j), terms in entries.items():
            entry = Jet.constant(float(i == j), order)
            for exponents, c in terms:
                mono = Jet.constant(c, order)
                for k, e in enumerate(exponents):
                    for _ in range(e):
                        mono = mono * x[k]
                entry = entry + mono
            g[i, j] = g[j, i] = entry.coeffs
        return g

    return MetricChart(
        name=f"random-poly-{seed}",
        coordinate_names=("x1", "x2", "x3", "x4"),
        domain=np.array([[-0.4, 0.4]] * DIM), metric_fn=metric_fn,
        properties=properties or ChartProperties())
