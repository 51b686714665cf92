"""weylforge: residual verification of four-dimensional curvature identities.

Curvature tensors and their covariant derivatives are computed to high order
on closed-form metric charts through truncated-Taylor (jet) arithmetic; every
registered pointwise identity -- algebraic, first-derivative and Bochner-type
-- is then checked as a numerical residual with hypothesis gating and
negative controls.
"""

__version__ = "0.1.0"

from .charts import (CapacityError, CurvaturePoint, DomainError, MetricChart,
                     build_catalog, curvature_at, scalar_laplacian)
from .identities import OUT_OF_SCOPE, REGISTRY, PointData
from .jets import Jet, jet_arith, jet_elementary, jet_partial
from .suite import RunConfig, SuiteReport, check_identity, run_suite

__all__ = [
    "CapacityError", "CurvaturePoint", "DomainError", "Jet", "MetricChart",
    "OUT_OF_SCOPE", "PointData", "REGISTRY", "RunConfig", "SuiteReport",
    "build_catalog", "check_identity", "curvature_at", "jet_arith",
    "jet_elementary", "jet_partial", "run_suite", "scalar_laplacian",
]
