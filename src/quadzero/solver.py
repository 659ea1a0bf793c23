"""Locates all zeros of q inside its bounding disk.

Strategy: circumscribe the disk D(0, R) with a square and subdivide it as
a quadtree.  Each cell ends in one of three ways:

* excluded: a Lipschitz estimate, with a margin for the rounding error of
  evaluating q at the centre, proves |q| > 0 on the whole cell;
* certified: a Kantorovich test on the harmonic Newton step at the centre
  proves that a disk around the cell holds exactly one zero, and one
  Newton run from the centre converges to it;
* floor: the cell reached depth `_MAX_DEPTH` without either proof.  It
  gets one Newton run from its centre, and a zero found that way is
  reported as not certified.

All candidates are merged at the radius 1e-7*max(1, R), classified by
orientation, and cross-checked against the argument principle on
C(0, R+1).  Inclusion evidence is the certificate of each zero; the
winding check stays as a cross-check, and it is the only evidence for
uncertified zeros.
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
# Radius of the Kantorovich disk as a multiple of the cell's half-diagonal.
# It must exceed 1: a zero on a cell corner (the origin is one at every
# depth) has to lie strictly inside the disk of some cell around it.
_CERT_RADIUS = 1.5


@dataclass(frozen=True)
class ZeroRecord:
    location: complex
    residual: float
    jacobian: float
    orientation: OrientationClass
    certified: bool  # a Kantorovich disk around it holds no other zero


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


def newton_step(
    p: HarmonicQuadrinomial, z: complex, max_step: float = math.inf
) -> complex:
    """One damped Newton update on the real 2x2 system, in complex form.

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
    d = (fzb * v.conjugate() - fz.conjugate() * v) / j
    step = abs(d)
    if step > max_step:
        d *= max_step / step
    return z + d


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


def _excluded(p: HarmonicQuadrinomial, center: complex, half: float) -> bool:
    """True when the closed cell center +- half (both axes) provably holds
    no zero of q.

    |q| falls by at most G(rho)*diag across the cell, and the computed
    |q(center)| can exceed the exact one by the rounding error of
    `evaluate`: at most gamma*(|b||z|^k + |z|^n + |c||z|^m + |z|), with
    gamma covering the complex multiplications of the integer powers and
    the three additions.
    """
    diag = half * _SQRT2
    a = abs(center)
    gamma = 4.0 * (max(p.k, p.n) + 2) * _UNIT_ROUNDOFF
    rounding = gamma * (abs(p.b) * a**p.k + a**p.n + abs(p.c) * a**p.m + a)
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


def _newton_polish(
    p: HarmonicQuadrinomial,
    z: complex,
    max_step: float,
    escape_radius: float,
) -> Optional[complex]:
    for _ in range(_NEWTON_CAP):
        v = evaluate(p, z)
        if abs(v) <= _ACCEPT_TOL:
            return z
        try:
            z = newton_step(p, z, max_step)
        except DegenerateJacobian:
            return None
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return None
        if abs(z) > escape_radius:
            return None
    if abs(evaluate(p, z)) <= _ACCEPT_TOL:
        return z
    return None


def _cluster(points, radius):
    """Greedy merge in the given order: [representative, residual,
    certified] per cluster.  The representative has the smallest residual;
    the cluster is certified if any member is."""
    clusters = []
    for z, res, cert in points:
        for cl in clusters:
            if abs(z - cl[0]) <= radius:
                if res < cl[1]:
                    cl[0], cl[1] = z, res
                cl[2] = cl[2] or cert
                break
        else:
            clusters.append([z, res, cert])
    return clusters


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
    candidates = [(0j, 0.0, False)]  # q(0) = 0: every term has z or zbar
    stack = [(0j, r_disk, 0)]
    while stack:
        center, half, depth = stack.pop()
        if _excluded(p, center, half):
            continue
        max_step = 2.0 * half * _SQRT2
        z1 = _kantorovich_step(p, center, _CERT_RADIUS * half * _SQRT2)
        if z1 is not None:
            z = _newton_polish(p, z1, max_step, escape_radius)
            if z is not None:
                # The Kantorovich disk covers the cell, so a zero outside
                # the cell leaves it zero-free.  The widening keeps a zero
                # on a shared edge; the merge below reports it once.
                reach = half + merge_radius
                if (
                    abs(z.real - center.real) <= reach
                    and abs(z.imag - center.imag) <= reach
                ):
                    candidates.append((z, abs(evaluate(p, z)), True))
                continue
        if depth >= _MAX_DEPTH:
            z = _newton_polish(p, center, max_step, escape_radius)
            if z is not None:
                candidates.append((z, abs(evaluate(p, z)), False))
            continue
        h2 = 0.5 * half
        d2 = depth + 1
        stack.append((center + complex(h2, h2), h2, d2))
        stack.append((center + complex(-h2, h2), h2, d2))
        stack.append((center + complex(h2, -h2), h2, d2))
        stack.append((center + complex(-h2, -h2), h2, d2))

    candidates.sort(key=lambda t: (t[0].real, t[0].imag, t[1]))
    records = [
        ZeroRecord(
            location=rep,
            residual=res,
            jacobian=jacobian(p, rep),
            orientation=classify_point(p, rep),
            certified=cert,
        )
        for rep, res, cert in _cluster(candidates, merge_radius)
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
