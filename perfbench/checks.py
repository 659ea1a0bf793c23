"""Output checks, written without quadzero's own model or contour code.

Each check returns failure reasons (an empty list means the report passed).
The formulas for q and its Jacobian are restated here on purpose, so a
defect in quadzero.model cannot hide itself from the benchmark.
"""

from __future__ import annotations

import cmath
import json
import math

ACCEPT_TOL = 1e-10  # SolveConfig.accept_tol default
MERGE_FACTOR = 1e-7  # default merge radius is 1e-7 * max(1, R)


def q(params: tuple, z: complex) -> complex:
    b, c, k, n, m = params
    zb = z.conjugate()
    return b * z**k + zb**n + c * zb**m + z


def jacobian(params: tuple, z: complex) -> float:
    """J(z) = |h'(z)|^2 - |g'(z)|^2."""
    b, c, k, n, m = params
    return (abs(b * k * z ** (k - 1) + 1.0) ** 2
            - abs(n * z ** (n - 1) + c * m * z ** (m - 1)) ** 2)


def winding(params: tuple, radius: float) -> int:
    """Winding number of q around |z| = radius.

    Bisects every arc whose argument increment exceeds pi/4 until none
    does; raises ArithmeticError when q comes near zero on the circle or
    the total is not close to an integer.
    """
    k, n = params[2], params[3]

    def at(t: float) -> complex:
        return q(params, radius * cmath.exp(2j * math.pi * t))

    n0 = 128 * max(k, n)
    ts = [j / n0 for j in range(n0 + 1)]
    vals = [at(t) for t in ts[:-1]]
    vals.append(vals[0])
    scale = max(abs(v) for v in vals)
    total = 0.0
    samples = n0
    for j in range(n0):
        stack = [(ts[j], vals[j], ts[j + 1], vals[j + 1])]
        while stack:
            t0, v0, t1, v1 = stack.pop()
            if min(abs(v0), abs(v1)) <= 1e-9 * scale:
                raise ArithmeticError("q vanishes on the winding circle")
            d = cmath.phase(v1 / v0)
            if abs(d) <= 0.25 * math.pi:
                total += d
                continue
            samples += 1
            if samples > 1 << 18:
                raise ArithmeticError("winding circle needs too many samples")
            tm = 0.5 * (t0 + t1)
            vm = at(tm)
            stack.append((tm, vm, t1, v1))
            stack.append((t0, v0, tm, vm))
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 0.1:
        raise ArithmeticError(f"winding {w:.4f} is not close to an integer")
    return round(w)


def proven_upper(params: tuple):
    """A proven bound on the zero count, or None where none is proven.

    b = 0: 3n - 2.  b != 0 with k > n > m and n = k - 1: k^2.
    """
    b, c, k, n, m = params
    if b == 0.0:
        return 3 * n - 2
    if k > n > m and n == k - 1:
        return k * k
    return None


def _separated(points: list[complex], sep: float) -> bool:
    pts = sorted(points, key=lambda z: z.real)
    for i, z in enumerate(pts):
        for w in pts[i + 1:]:
            if w.real - z.real > sep:
                break
            if abs(w - z) <= sep:
                return False
    return True


def check_report(params: tuple, report, reference=None) -> list[str]:
    """Every check the benchmark makes on one find_zeros report."""
    reasons = []
    radius = report.disk.radius
    locs = [rec.location for rec in report.zeros]
    if report.count != len(locs):
        reasons.append("count-inconsistent")
    if any(abs(q(params, z)) > ACCEPT_TOL for z in locs):
        reasons.append("residual")
    if any(abs(z) > radius + 1e-9 * max(1.0, radius) for z in locs):
        reasons.append("outside-disk")
    n_plus = n_minus = n_singular = 0
    bad_orientation = False
    for rec in report.zeros:
        j = jacobian(params, rec.location)
        kind = rec.orientation.value
        if kind == "sense-preserving":
            n_plus += 1
            bad_orientation |= not j > 0.0
        elif kind == "sense-reversing":
            n_minus += 1
            bad_orientation |= not j < 0.0
        else:
            n_singular += 1
    if bad_orientation:
        reasons.append("orientation")
    if not _separated(locs, MERGE_FACTOR * max(1.0, radius)):
        reasons.append("not-separated")
    if n_singular == 0:
        try:
            if n_plus - n_minus != winding(params, radius + 1.0):
                reasons.append("winding-mismatch")
        except ArithmeticError:
            reasons.append("winding-unresolved")
    upper = proven_upper(params)
    if upper is not None and len(locs) > upper:
        reasons.append("above-proven-bound")
    if reference is not None and len(locs) != reference:
        reasons.append("count-mismatch")
    return reasons


def check_radius_json(text: str, expected: float) -> list[str]:
    """The `quadzero radius` CLI output against the in-process radius."""
    try:
        radius = json.loads(text)["radius"]
    except (ValueError, KeyError, TypeError):
        return ["cli-output"]
    return [] if radius == expected else ["cli-radius"]
