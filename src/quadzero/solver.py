"""Locates all zeros of q inside its bounding disk.

Strategy: circumscribe the disk D(0, R) with a square and subdivide it as
a quadtree.  A cell is dropped when a Lipschitz estimate, with a margin
for the rounding error of evaluating q at the centre, proves |q| > 0 on
it; kept when a Kantorovich test at its centre proves that a disk around
it holds exactly one zero, or at depth `_MAX_DEPTH`; split otherwise.
Each kept cell makes one undamped Newton run, from the test's iterate
or, at the floor, from the centre.  The run may leave its cell: where it
lands, not where it started, decides which zero it found.  Once |q| is
at most `_ACCEPT_TOL` it takes one step more: near a zero with a small
Jacobian the set where |q| meets the tolerance is wider than the zero's
certified disk, and the step moves the run toward the zero, as a rule
into that disk.

Each Newton result z is certified at itself: a Kantorovich test proves
that D(z, r), r set by the Jacobian and the Hessian bound at z, holds
exactly one zero, and the record reports the test's Newton iterate.  A
later result inside a certified disk is that zero and is dropped; results
that fail the test are not certified and merge at 1e-7*max(1, R).  Zeros
are classified by orientation and cross-checked against the argument
principle on C(0, R+1): the only evidence for uncertified zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .bounds import BoundSource, CountBound, DiskBound, count_bound, radius_bound
from .contour import Circle, winding_number
from .errors import (
    BoundUnavailable,
    DegenerateJacobian,
    HypothesisViolation,
    NumericalError,
)
from .model import (
    HarmonicQuadrinomial,
    OrientationClass,
    analytic_derivative,
    classify_point,
    coanalytic_derivative,
    evaluate,
    jacobian,
)

_NEWTON_CAP = 100
_ACCEPT_TOL = 1e-10  # a Newton run stops once |q| is at most this
_MAX_DEPTH = 12  # quadtree depth of the floor cells
_SQRT2 = math.sqrt(2.0)
_UNIT_ROUNDOFF = 2.0**-53
# Radius of the cell's Kantorovich disk as a multiple of its half-diagonal.
# It must exceed 1: a passing cell is not split, so the disk has to cover
# the closed cell, corners included, to hold all of the cell's zeros.
_CERT_RADIUS = 1.5


@dataclass(frozen=True)
class ZeroRecord:
    location: complex
    residual: float
    jacobian: float
    orientation: OrientationClass
    certified: bool  # a Kantorovich disk centred at the zero holds only it


@dataclass(frozen=True)
class ZeroSetReport:
    zeros: tuple[ZeroRecord, ...]
    count: int
    n_plus: int
    n_minus: int
    n_singular: int
    n_certified: int
    bound: Optional[CountBound]
    disk: DiskBound
    winding_check: str  # "passed" | "failed" | "inconclusive"
    winding: Optional[int] = None


def newton_step(p: HarmonicQuadrinomial, z: complex) -> complex:
    """One full Newton update on the real 2x2 system, in complex form.

    Solving fz*d + fzb*conj(d) = -q(z) with fz = h'(z), fzb = conj(g'(z))
    gives d = (fzb*conj(q) - conj(fz)*q) / J where J is the Jacobian of
    the real system.
    """
    fz = analytic_derivative(p, z)
    fzb = coanalytic_derivative(p, z).conjugate()
    j = (fz.real**2 + fz.imag**2) - (fzb.real**2 + fzb.imag**2)
    mag = fz.real**2 + fz.imag**2 + fzb.real**2 + fzb.imag**2
    if abs(j) <= 1e-14 * max(1.0, mag):
        raise DegenerateJacobian(f"Jacobian {j:.3e} below degeneracy floor at {z!r}")
    v = evaluate(p, z)
    return z + (fzb * v.conjugate() - fz.conjugate() * v) / j


def _gradient_bound(p: HarmonicQuadrinomial, rho: float) -> float:
    """Upper bound for |dq/dz| + |dq/dzbar| on |z| <= rho."""
    return (
        abs(p.b) * p.k * rho ** (p.k - 1)
        + 1.0
        + p.n * rho ** (p.n - 1)
        + abs(p.c) * p.m * rho ** (p.m - 1)
    )


def _hessian_bound(p: HarmonicQuadrinomial, rho: float) -> float:
    """Upper bound for |h''| + |g''| on |z| <= rho.

    It is a Lipschitz constant of the real Jacobian there, in the operator
    norm: DF(z)d = h'(z)d + conj(g'(z) d).  rho > 0, so the degree-1
    terms are 0 * rho**-1 = 0.
    """
    return (
        abs(p.b) * p.k * (p.k - 1) * rho ** (p.k - 2)
        + p.n * (p.n - 1) * rho ** (p.n - 2)
        + abs(p.c) * p.m * (p.m - 1) * rho ** (p.m - 2)
    )


def _rounding_bound(p: HarmonicQuadrinomial, a: float) -> float:
    """Upper bound for the rounding error of `evaluate` at |z| = a:
    gamma*(|b|a^k + a^n + |c|a^m + a), with gamma covering the complex
    multiplications of the integer powers and the three additions."""
    gamma = 4.0 * (max(p.k, p.n) + 2) * _UNIT_ROUNDOFF
    return gamma * (abs(p.b) * a**p.k + a**p.n + abs(p.c) * a**p.m + a)


def _excluded(p: HarmonicQuadrinomial, center: complex, half: float) -> bool:
    """True when the closed cell center +- half (both axes) provably holds
    no zero of q.

    |q| falls by at most G(rho)*diag across the cell, and the computed
    |q(center)| can exceed the exact one by at most `_rounding_bound`.
    """
    diag = half * _SQRT2
    a = abs(center)
    rounding = _rounding_bound(p, a)
    return abs(evaluate(p, center)) - rounding > _gradient_bound(p, a + diag) * diag


def _kantorovich_step(
    p: HarmonicQuadrinomial, z0: complex, r: float
) -> Optional[complex]:
    """The Newton iterate from z0 if D(z0, r) provably holds exactly one
    zero of q, else None.

    sigma = ||h'(z0)| - |g'(z0)|| is the smallest singular value of the
    real Jacobian and L bounds its Lipschitz constant on the disk, so the
    simplified Newton map z - DF(z0)^-1 F(z) moves by at most
    kappa = L*r/sigma per unit on D(z0, r).  With kappa < 1/2 and
    eta + kappa*r < r (eta the first Newton step) it maps the disk into
    itself as a contraction: exactly one zero.  The margins absorb
    rounding in sigma and eta.  Kantorovich's h = kappa*eta/r is then at
    most about 0.2 < 1/2, so plain Newton from z0 converges to that zero.
    """
    sigma = abs(abs(analytic_derivative(p, z0)) - abs(coanalytic_derivative(p, z0)))
    lr = _hessian_bound(p, abs(z0) + r) * r  # kappa = lr / sigma
    if not lr < 0.5 * sigma:
        return None
    try:
        z1 = newton_step(p, z0)
    except DegenerateJacobian:
        return None
    if abs(z1 - z0) + lr / sigma * r < 0.9 * r:
        return z1
    return None


def _certificate_radius(p: HarmonicQuadrinomial, z: complex) -> float:
    """Kantorovich radius at a converged z: kappa <= 1/4 on D(z, r), so the
    test passes there unless the Jacobian is singular (r = 0)."""
    sigma = abs(abs(analytic_derivative(p, z)) - abs(coanalytic_derivative(p, z)))
    return min(1.0, sigma / (4.0 * _hessian_bound(p, abs(z) + 1.0)))


def _newton_polish(
    p: HarmonicQuadrinomial, z: complex, escape_radius: float
) -> Optional[complex]:
    """Undamped Newton from z to |q| <= _ACCEPT_TOL, then one step more,
    kept if it still meets the tolerance; None on a degenerate Jacobian
    before that or on leaving the escape disk."""
    for _ in range(_NEWTON_CAP):
        accepted = abs(evaluate(p, z)) <= _ACCEPT_TOL
        try:
            z1 = newton_step(p, z)
        except DegenerateJacobian:
            return z if accepted else None
        if accepted:
            return z1 if abs(evaluate(p, z1)) <= _ACCEPT_TOL else z
        z = z1
        if not abs(z) <= escape_radius:  # NaN fails it too
            return None
    # Rounding alone can keep |q| above _ACCEPT_TOL at large |z|.
    if abs(evaluate(p, z)) <= max(_ACCEPT_TOL, _rounding_bound(p, abs(z))):
        return z
    return None


def find_zeros(p: HarmonicQuadrinomial) -> ZeroSetReport:
    disk = radius_bound(p)
    if disk.source is BoundSource.UNAVAILABLE:
        raise BoundUnavailable(
            "no zero-inclusion disk available (k = n with |b| = 1)"
        )
    r_disk = disk.radius
    merge_radius = 1e-7 * max(1.0, r_disk)
    escape_radius = r_disk + 1.0

    # Quadtree over the circumscribing square [-R, R]^2.  Depth-first,
    # children pushed in fixed order, so candidate order is deterministic.
    candidates = [0j]  # q(0) = 0: every term has z or zbar
    stack = [(0j, r_disk, 0)]
    while stack:
        center, half, depth = stack.pop()
        if _excluded(p, center, half):
            continue
        # A passing cell holds at most the one zero of its Kantorovich disk,
        # which Newton from the test's iterate converges to.
        z1 = _kantorovich_step(p, center, _CERT_RADIUS * half * _SQRT2)
        if z1 is not None or depth >= _MAX_DEPTH:
            start = center if z1 is None else z1
            z = _newton_polish(p, start, escape_radius)
            if z is not None:
                candidates.append(z)
            continue
        h2 = 0.5 * half
        d2 = depth + 1
        stack.append((center + complex(h2, h2), h2, d2))
        stack.append((center + complex(-h2, h2), h2, d2))
        stack.append((center + complex(h2, -h2), h2, d2))
        stack.append((center + complex(-h2, -h2), h2, d2))

    certified = []  # (centre, radius, location) per certified zero
    loose = []  # uncertified results, one per merge_radius
    for z in candidates:
        if any(abs(z - w) < r for w, r, _ in certified):
            continue
        r = _certificate_radius(p, z)
        z1 = _kantorovich_step(p, z, r) if r > 0 else None
        if z1 is not None:
            certified.append((z, r, z1))
        elif all(abs(z - w) > merge_radius for w in loose):
            loose.append(z)
    zeros = [(z1, True) for _, _, z1 in certified] + [
        (z, False)
        for z in loose
        if not any(abs(z - w) < r for w, r, _ in certified)
    ]
    records = [
        ZeroRecord(
            location=z,
            residual=abs(evaluate(p, z)),
            jacobian=jacobian(p, z),
            orientation=classify_point(p, z),
            certified=cert,
        )
        for z, cert in zeros
    ]
    records.sort(key=lambda r: (r.location.real, r.location.imag))

    n_plus = sum(
        1 for r in records if r.orientation is OrientationClass.SENSE_PRESERVING
    )
    n_minus = sum(
        1 for r in records if r.orientation is OrientationClass.SENSE_REVERSING
    )
    n_singular = len(records) - n_plus - n_minus

    winding = None
    if n_singular > 0:
        # Argument-principle hypothesis (no singular zeros) is violated.
        winding_check = "inconclusive"
    else:
        try:
            report = winding_number(p, Circle(0j, r_disk + 1.0))
            winding = report.winding
            winding_check = "passed" if winding == n_plus - n_minus else "failed"
        except NumericalError:
            winding_check = "inconclusive"

    try:
        bound = count_bound(p)
    except HypothesisViolation:
        bound = None

    return ZeroSetReport(
        zeros=tuple(records),
        count=len(records),
        n_plus=n_plus,
        n_minus=n_minus,
        n_singular=n_singular,
        n_certified=sum(1 for r in records if r.certified),
        bound=bound,
        disk=disk,
        winding_check=winding_check,
        winding=winding,
    )
