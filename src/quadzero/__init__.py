"""Zeros of the two-parameter harmonic quadrinomial family
q(z) = b*z^k + conj(z)^n + c*conj(z)^m + z.
"""

from .bounds import (
    BoundSource,
    CountBound,
    CountBranch,
    DiskBound,
    count_bound,
    radius_bound,
    radius_delta,
    radius_polynomial,
)
from .contour import Circle, Rectangle, WindingReport, winding_number
from .critical import (
    CriticalCircle,
    CriticalCircleReport,
    circle_image,
    critical_radius,
    critical_radius_alt,
    modular_root_census,
    pure_imaginary_rays,
    univalence_radius,
    verify_theorem_34,
)
from .model import (
    HarmonicQuadrinomial,
    OrientationClass,
    analytic_derivative,
    classify_point,
    coanalytic_derivative,
    dilatation,
    evaluate,
    jacobian,
)
from .realroots import (
    RealPoly,
    deflate_at_one,
    positive_root_bracketed,
    sign_changes,
)
from .solver import (
    ZeroRecord,
    ZeroSetReport,
    find_zeros,
    newton_step,
)
from .sweep import Axis, SweepCell, SweepGrid, run_sweep, sweep_csv_lines

__all__ = [
    "Axis",
    "BoundSource",
    "Circle",
    "CountBound",
    "CountBranch",
    "CriticalCircle",
    "CriticalCircleReport",
    "DiskBound",
    "HarmonicQuadrinomial",
    "OrientationClass",
    "RealPoly",
    "Rectangle",
    "SweepCell",
    "SweepGrid",
    "WindingReport",
    "ZeroRecord",
    "ZeroSetReport",
    "analytic_derivative",
    "circle_image",
    "classify_point",
    "coanalytic_derivative",
    "count_bound",
    "critical_radius",
    "critical_radius_alt",
    "deflate_at_one",
    "dilatation",
    "evaluate",
    "find_zeros",
    "jacobian",
    "modular_root_census",
    "newton_step",
    "positive_root_bracketed",
    "pure_imaginary_rays",
    "radius_bound",
    "radius_delta",
    "radius_polynomial",
    "run_sweep",
    "sign_changes",
    "sweep_csv_lines",
    "univalence_radius",
    "verify_theorem_34",
    "winding_number",
]

__version__ = "0.1.0"
