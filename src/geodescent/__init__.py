"""Riemannian optimization with saddle-point escape via perturbed gradient
descent, plus a numerical verification suite for the supporting geometry."""

from .manifolds import (
    Euclidean,
    GeometryError,
    GeometryInfo,
    Grassmann,
    Manifold,
    Oblique,
    Point,
    Sphere,
    Tangent,
)
from .objectives import (
    BurerMonteiro,
    DiagonalQuadratic,
    KPCA,
    Objective,
    SmoothnessEstimate,
    estimate_smoothness,
    hess_vec,
    min_hess_eig,
)
from .optimizer import (
    AssumptionParams,
    OptState,
    RunResult,
    ThresholdSet,
    Trace,
    classify_stationarity,
    derive_thresholds,
    practical_thresholds,
    prgd_step,
    rgd_baseline,
    run,
)
from .verify import (
    CouplingReport,
    VerificationReport,
    check_descent,
    check_gradient_taylor,
    check_holonomy,
    check_linearization,
    check_log_bilipschitz,
    check_transport_contraction,
    check_two_step,
    coupling_probe,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
