"""Zeros of the two-parameter harmonic quadrinomial family
q(z) = b*z^k + conj(z)^n + c*conj(z)^m + z.

The exports below load on first use (PEP 562), so `import quadzero`, and
a CLI subcommand, imports only the submodules it runs.
"""

import importlib

# Each exported name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("BoundSource", "CountBound", "CountBranch", "DiskBound", "count_bound",
         "radius_bound", "radius_delta", "radius_polynomial"),
        "bounds",
    ),
    **dict.fromkeys(("Circle", "Rectangle", "WindingReport", "winding_number"), "contour"),
    **dict.fromkeys(
        ("CriticalCircle", "CriticalCircleReport", "circle_image", "critical_radius",
         "critical_radius_alt", "modular_root_census", "pure_imaginary_rays",
         "univalence_radius", "verify_theorem_34"),
        "critical",
    ),
    **dict.fromkeys(
        ("HarmonicQuadrinomial", "OrientationClass", "analytic_derivative",
         "classify_point", "coanalytic_derivative", "dilatation", "evaluate", "jacobian"),
        "model",
    ),
    **dict.fromkeys(
        ("RealPoly", "deflate_at_one", "positive_root_bracketed", "sign_changes"),
        "realroots",
    ),
    **dict.fromkeys(("ZeroRecord", "ZeroSetReport", "find_zeros", "newton_step"), "solver"),
    **dict.fromkeys(
        ("Axis", "SweepCell", "SweepGrid", "run_sweep", "sweep_csv_lines"), "sweep"
    ),
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
