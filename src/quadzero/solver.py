"""Locates all zeros of q inside its bounding disk.

Strategy: b and c are real, so q(conj z) = conj q(z), exactly and, for q,
h' and g' as computed, bitwise; a disk that holds exactly one zero zeta
mirrors to one that holds exactly conj zeta, with the same orientation.
So only the upper half of the square circumscribing D(0, R),
[-R, R] x [0, R], is subdivided as a quadtree; the real axis is an edge of
every cell.  Every cell test rests on one majorant of q,
M(x) = |b|x^k + x^n + |c|x^m + x, built once per instance.  For a cell
with centre c, a = |c| and half-diagonal r, binomial expansion of each
term gives |q(c + d) - q(c)| <= M(a + r) - M(a) for |d| <= r, and bounds
the part beyond the linear terms h'(c)d + conj(g'(c)d) by
M(a + r) - M(a) - M'(a)r.  The test evaluates q, h' and g' at the centre
at most once each and

1. drops the cell when |q(c)| exceeds M(a + r) - M(a): no derivative;
2. else drops it when |q(c)| exceeds (|h'(c)| + |g'(c)|)r plus that
   second-order bracket, which is smaller where h' or g' cancel;
3. else keeps it when a Kantorovich test at the centre, with L = M'',
   proves that a disk around it holds exactly one zero, or at depth
   `_MAX_DEPTH`; it splits the cell otherwise.

Exclusion is certified under rounding too (`model`'s rounding bounds):
|q(c)| is lowered by gamma*M(a), stage 2 allows 2*gamma*M'(a) for h' and
g', and each difference of M values carries gamma*(sum of its terms).

The origin (q(0) = 0 exactly, so its run starts from a last step of 0
and stays), then each kept cell, makes one undamped Newton run, from the
test's iterate or, at the floor, from the centre.  It stops before a step
not shorter than the last (NaN and divergence included), after a step of
at most the unit roundoff times max(1, |z|), on a degenerate Jacobian or
after `_NEWTON_CAP` steps.  It is dropped, before each step and at its
end, when it or its mirror image lies inside the disk of any zero found
(each kept with its centre folded into the upper half).  Entering a
certified D(w, r) it would converge to its zero zeta:
r <= min(1/3, sigma/(4L)), sigma the Jacobian's least singular value at w
and L = M''(|w| + 1) its Lipschitz bound on D(w, 3r), so |zeta - w| < 0.9r,
sigma_zeta > 3sigma/4 and each y in the disk has
|y - zeta| < 1.9r < sigma/(2L) < 2sigma_zeta/(3L), Newton's local
convergence radius (the slack covers sigma's rounding).
A run's last point z is certified by the Kantorovich test centred at z
and reported at the test's Newton iterate.  The test's sigma is the
margin that `classify_point` reads, so a pass proves the sign of
|h'| - |g'| at z, and kappa < 1/2 keeps the least singular value above
sigma/2 on the disk: J has that sign, the orientation, at the zero and at
the iterate.  Else z is kept as a singular zero, its disk the merge radius
1e-7*max(1, R), only if its run settled: a last step at most that radius
and |q(z)| <= `_ACCEPT_TOL`.

Each found zero, centre w and radius r, is reported with its mirror image
(`_mirror`).  A certified zeta lies within 0.9r of w: if |Im w| <= 0.05r,
conj zeta lies in D(w, r) too, so zeta is real and is reported once, at
the real part of the iterate, which is still in the disk; if
|Im w| >= 0.9r, zeta is not real and the pair is reported.  Between the
two, the Kantorovich test at Re w with radius r + |Im w|, a
disk that covers D(w, r) and is its own mirror, proves zeta real when it
passes; else zeta is reported once, uncertified.  An uncertified zero is
its own mirror, reported once at its real part, when |Im w| < r, and is
mirrored otherwise.  N+ - N- is checked against the proven
winding `DiskBound.winding`; a singular zero makes that inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .bounds import BoundSource, CountBound, DiskBound, count_bound, radius_bound
from .contour import winding_number  # noqa: F401  perfbench/run.py traces it here
from .errors import BoundUnavailable, DegenerateJacobian, HypothesisViolation
from .model import (
    _UNIT_ROUNDOFF,
    HarmonicQuadrinomial,
    OrientationClass,
    _Majorant,
    analytic_derivative,
    classify_point,  # noqa: F401  perfbench/run.py traces it here
    coanalytic_derivative,
    evaluate,
    jacobian,
)

_NEWTON_CAP = 100
_ACCEPT_TOL = 1e-10  # the largest |q| where a settled run is kept uncertified
_MAX_DEPTH = 12  # quadtree depth of the floor cells
_SQRT2 = math.sqrt(2.0)
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

    @property
    def certified(self) -> bool:
        """A Kantorovich disk holds only it and proves its orientation."""
        return self.orientation is not OrientationClass.SINGULAR


@dataclass(frozen=True)
class ZeroSetReport:
    zeros: tuple[ZeroRecord, ...]
    count: int
    n_plus: int
    n_minus: int
    n_singular: int
    bound: Optional[CountBound]
    disk: DiskBound
    winding_check: str  # "passed" | "failed" | "inconclusive"

    @property
    def n_certified(self) -> int:
        return self.count - self.n_singular


def _newton_update(z: complex, v: complex, fz: complex, gz: complex) -> complex:
    """The Newton iterate from z, given q(z) = v, h'(z) = fz and g'(z) = gz.

    Solving fz*d + fzb*conj(d) = -v with fzb = conj(gz) gives
    d = (fzb*conj(v) - conj(fz)*v) / J where J is the Jacobian of the real
    system.
    """
    fzb = gz.conjugate()
    j = (fz.real**2 + fz.imag**2) - (fzb.real**2 + fzb.imag**2)
    mag = fz.real**2 + fz.imag**2 + fzb.real**2 + fzb.imag**2
    if abs(j) <= 1e-14 * max(1.0, mag):
        raise DegenerateJacobian(f"Jacobian {j:.3e} below degeneracy floor at {z!r}")
    return z + (fzb * v.conjugate() - fz.conjugate() * v) / j


def newton_step(p: HarmonicQuadrinomial, z: complex) -> complex:
    """One full Newton update on the real 2x2 system, in complex form."""
    return _newton_update(
        z, evaluate(p, z), analytic_derivative(p, z), coanalytic_derivative(p, z)
    )


def _kantorovich_step(
    maj: _Majorant, z0: complex, r: float, v: complex, fz: complex, gz: complex
) -> Optional[complex]:
    """The Newton iterate from z0 if D(z0, r) provably holds exactly one
    zero of q, else None; v, fz and gz are q, h' and g' at z0.

    sigma = ||h'(z0)| - |g'(z0)|| - gamma*M'(|z0|), `_Majorant.margin`, is
    under rounding at most the real Jacobian's smallest singular value and
    L = M''(|z0| + r) bounds its Lipschitz constant on the disk, so the
    simplified Newton map z - DF(z0)^-1 F(z) moves by at most
    kappa = L*r/sigma per unit on D(z0, r).  With kappa < 1/2 and
    eta + kappa*r < r (eta the first Newton step) it maps the disk into
    itself as a contraction: exactly one zero.  eta adds gamma*M(|z0|)/sigma
    for the rounding of q(z0), whose computed value can vanish; the
    margins absorb the rest.  Kantorovich's h = kappa*eta/r is then at
    most about 0.2 < 1/2, so plain Newton from z0 converges to that zero.
    """
    sigma = maj.margin(z0, fz, gz)
    lr = maj.curvature(abs(z0) + r) * r  # kappa = lr / sigma
    if not lr < 0.5 * sigma:
        return None
    try:
        z1 = _newton_update(z0, v, fz, gz)
    except DegenerateJacobian:
        return None
    if abs(z1 - z0) + (maj.gamma * maj.value(abs(z0)) + lr * r) / sigma < 0.9 * r:
        return z1
    return None


def _cell_test(p: HarmonicQuadrinomial, maj: _Majorant):
    """The quadtree's cell test for p, stages 1 to 3 of the module
    docstring: cell(center, half) is (kept, z1) for the closed cell
    center +- half (both axes), of half-diagonal r.

    kept is False when the cell provably holds no zero; z1 is the
    Kantorovich iterate when the disk of radius `_CERT_RADIUS`*r at the
    centre provably holds exactly one zero, else None.
    """
    value, slope, gamma = maj.value, maj.slope, maj.gamma

    def cell(center: complex, half: float) -> tuple[bool, Optional[complex]]:
        v = evaluate(p, center)
        a = abs(center)
        r = half * _SQRT2 + math.ulp(a)  # center may be ulp(a)/2 off per axis
        m0 = value(a)
        m1 = value(a + r)
        lower = abs(v) - gamma * m0  # |q(center)| is at least this
        if lower > m1 - m0 + gamma * (m1 + m0):
            return False, None
        fz = analytic_derivative(p, center)
        gz = coanalytic_derivative(p, center)
        s0 = slope(a)
        d0 = s0 * r
        drop = (abs(fz) + abs(gz) + 2.0 * gamma * s0) * r + (m1 - m0 - d0)
        if lower > drop + gamma * (m1 + m0 + d0):
            return False, None
        return True, _kantorovich_step(maj, center, _CERT_RADIUS * r, v, fz, gz)

    return cell


def _certificate_radius(
    maj: _Majorant, z: complex, fz: complex, gz: complex
) -> float:
    """Kantorovich radius at a converged z with h'(z) = fz, g'(z) = gz:
    kappa <= 1/4 on D(z, r), so the test passes there unless the Jacobian
    is singular within rounding.  r <= 1/3: see the module docstring."""
    sigma = abs(abs(fz) - abs(gz))
    return min(1.0 / 3.0, sigma / (4.0 * maj.curvature(abs(z) + 1.0)))


def _mirror(
    p: HarmonicQuadrinomial,
    maj: _Majorant,
    w: complex,
    r: float,
    z1: complex,
    o: OrientationClass,
) -> list[tuple[complex, OrientationClass]]:
    """The reported zeros, (location, orientation), that a found zero
    (centre w, disk radius r, location z1, orientation o) and its mirror
    image stand for; see the module docstring.  A zero that is its own
    mirror is reported once, on the real axis."""
    y = abs(w.imag)
    if o is not OrientationClass.SINGULAR:
        if y >= 0.9 * r:  # |zeta - w| < 0.9r: zeta is not real
            return [(z1, o), (z1.conjugate(), o)]
        if y > 0.05 * r:  # D(Re w, r + y) covers D(w, r) and is its own mirror
            x = complex(w.real, 0.0)
            fz, gz = analytic_derivative(p, x), coanalytic_derivative(p, x)
            if _kantorovich_step(maj, x, r + y, evaluate(p, x), fz, gz) is None:
                o = OrientationClass.SINGULAR  # zeta may or may not be real
    elif y >= r:
        return [(z1, o), (z1.conjugate(), o)]
    return [(complex(z1.real, 0.0), o)]


def find_zeros(p: HarmonicQuadrinomial) -> ZeroSetReport:
    disk = radius_bound(p)
    if disk.source is BoundSource.UNAVAILABLE:
        raise BoundUnavailable(
            "no zero-inclusion disk available (k = n with |b| = 1)"
        )
    r_disk = disk.radius
    merge_radius = 1e-7 * max(1.0, r_disk)
    maj = _Majorant(p)
    cell = _cell_test(p, maj)
    singular = OrientationClass.SINGULAR
    # (centre, radius, location, orientation) per found zero, each with its
    # centre in the closed upper half-plane; its mirror image is implied.
    found = []

    def known(z: complex) -> bool:  # the run's drop test, z or conj(z)
        z = complex(z.real, abs(z.imag))  # the nearer of the two to any w
        for w, r, _, _ in found:
            if abs(z - w) < r:
                return True
        return False

    def settle(z: complex, step: float) -> None:  # the module docstring's run
        for _ in range(_NEWTON_CAP):
            if known(z):
                return
            try:
                z1 = newton_step(p, z)
            except DegenerateJacobian:
                break
            d = abs(z1 - z)
            if not d < step:  # NaN fails it too
                break
            z, step = z1, d
            if d <= _UNIT_ROUNDOFF * max(1.0, abs(z)):
                break
        if known(z):
            return
        if z.imag < 0:  # its mirror image is as good a result: keep it folded
            z = z.conjugate()
        fz, gz = analytic_derivative(p, z), coanalytic_derivative(p, z)
        r = _certificate_radius(maj, z, fz, gz)
        z1 = _kantorovich_step(maj, z, r, evaluate(p, z), fz, gz) if r > 0 else None
        if z1 is not None:  # sigma > 0: the margin is positive
            found.append((z, r, z1, maj.orientation(z, fz, gz)))
        elif step <= merge_radius and abs(evaluate(p, z)) <= _ACCEPT_TOL:
            found.append((z, merge_radius, z, singular))

    settle(0j, 0.0)  # q(0) = 0: every term has z or zbar
    # Quadtree over [-R, R] x [0, R], the upper half of the circumscribing
    # square, whose two root cells are that square's upper children; the
    # real axis is an edge of every cell.  Depth-first, children pushed in
    # fixed order, so the run order is deterministic.
    h = 0.5 * r_disk
    stack = [(complex(h, h), h, 1), (complex(-h, h), h, 1)]
    while stack:
        center, half, depth = stack.pop()
        kept, z1 = cell(center, half)
        if not kept:
            continue
        # A certified cell holds at most the one zero of its Kantorovich
        # disk, which Newton from the test's iterate converges to.
        if z1 is not None or depth >= _MAX_DEPTH:
            settle(center if z1 is None else z1, math.inf)
            continue
        h2 = 0.5 * half
        d2 = depth + 1
        stack.append((center + complex(h2, h2), h2, d2))
        stack.append((center + complex(-h2, h2), h2, d2))
        stack.append((center + complex(h2, -h2), h2, d2))
        stack.append((center + complex(-h2, -h2), h2, d2))

    # Every centre is in the upper half, so no mirrored disk is nearer to
    # one than the disk itself.
    disks = [(w, r) for w, r, _, o in found if o is not singular]
    records = [
        ZeroRecord(
            location=z,
            residual=abs(evaluate(p, z)),
            jacobian=jacobian(p, z),
            orientation=o,
        )
        for w, r, z1, kind in found
        if kind is not singular or not any(abs(w - c) < d for c, d in disks)
        for z, o in _mirror(p, maj, w, r, z1, kind)
    ]
    records.sort(key=lambda r: (r.location.real, r.location.imag))

    n_plus = sum(
        1 for r in records if r.orientation is OrientationClass.SENSE_PRESERVING
    )
    n_minus = sum(
        1 for r in records if r.orientation is OrientationClass.SENSE_REVERSING
    )
    n_singular = len(records) - n_plus - n_minus

    if n_singular > 0:
        # Argument-principle hypothesis (no singular zeros) is violated.
        winding_check = "inconclusive"
    elif n_plus - n_minus == disk.winding:
        winding_check = "passed"
    else:
        winding_check = "failed"

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
        bound=bound,
        disk=disk,
        winding_check=winding_check,
    )
