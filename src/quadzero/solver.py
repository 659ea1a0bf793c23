"""Locates all zeros of q inside its bounding disk.

Strategy: b and c are real, so q(conj z) = conj q(z), exactly and, for q,
h' and g' as computed, bitwise; a disk that holds exactly one zero zeta
mirrors to one that holds exactly conj zeta, with the same orientation.
So only the upper half of a square circumscribing D(0, R),
[-R', R'] x [0, R'], is subdivided as a quadtree; the real axis is an edge
of every cell.  R' is the least float >= R whose significand fits in
53 - `_MAX_DEPTH` bits, so every centre down to the deepest split, an odd
multiple of R'/2^`_MAX_DEPTH` at most R' in size, and every half-width is
an exact float: the cells tile exactly.  Every cell test rests on one
majorant of q, M(x) = |b|x^k + x^n + |c|x^m + x, built once per instance.
For a cell with centre c, a = |c| and half-diagonal r, binomial expansion
of each term gives |q(c + d) - q(c)| <= M(a + r) - M(a) for |d| <= r, and
bounds the part beyond the linear term A(d) = h'(c)d + conj(g'(c)d) by
M(a + r) - M(a) - M'(a)r.  The test evaluates q, h' and g' at the centre
at most once each and

1. drops the cell when |q(c)| exceeds M(a + r) - M(a): no derivative;
2. else drops it when |q(c)| exceeds the largest |A(d)| over the square
   cell plus that second-order bracket;
3. else, where the margin sigma at the centre is positive, drops it when
   the Newton update from the centre leaves the cell by more than a
   bound on how far the update can be from a zero's offset;
4. else keeps it when a Kantorovich test at the centre, with L = M'',
   proves that a disk around it holds exactly one zero, or at depth
   `_FLOOR_DEPTH`; it splits the cell otherwise, into the quarters that
   stage 3's Newton box meets.  Where stage 3 did not run, the box is
   the whole plane, 0 +- inf, and meets all four.

Stage 2 reads the square, not the disk |d| <= r around it, where |A|
reaches (|h'| + |g'|)r.  |A| is convex and A(-d) = -A(d), so over the cell,
|Re d|, |Im d| <= e for half-width e, its maximum sits at the corner
e(1 + i) or e(1 - i).
|A(d)|^2 = (|h'|^2 + |g'|^2)|d|^2 + 2 Re(h'g'd^2), and d^2 = +-2ie^2 at
those corners, so the maximum is e*G with
G = sqrt(2(|h'|^2 + |g'|^2 + 2|Im(h'g')|)), the corner gain.  It never
exceeds (|h'| + |g'|)r and is sqrt(2) smaller where h'g' is real, as
near the singular origin of |c| = 1, m = 1, where h' ~ 1 and g' ~ c.

The quadtree walk, which pops each cell, tests it and pushes its
quarters in one loop, and the Newton run are flat closures for speed,
built together by `_kernels`, whose docstring states what they inline
and why they answer bitwise as `model`'s functions composed.

Exclusion is certified under rounding too (`model`'s rounding bounds):
|q(c)| is lowered by gamma*M(a), stage 2 allows 2*gamma*M'(a)r for h'
and g', and each difference of M values carries gamma*(sum of its terms).
Of that allowance, gamma*M'(a)r covers the rounding of h' and g', which
moves A(d) by at most gamma*M'(a)|d|.  The rest covers the computed G:
every term under its root is non-negative and the computed Im(h'g') is
off by at most 2u|h'||g'| <= u(|h'|^2 + |g'|^2), so e*G comes out within
about 8u of exact, at most 8u(|h'| + |g'|)r <= 8u*M'(a)r, and
gamma >= 16u.  Squares that underflow move G by under 2^-510, far below
gamma*M'(a) >= gamma.

Stage 3 is the exclusion half of the interval Newton, or Krawczyk,
operator (Krawczyk, Computing 4, 1969; Neumaier, Interval Methods for
Systems of Equations, 1990).  Let v, h' and g' be the computed values at
c, Ac(d) = h'd + conj(g'd) and A the exact linear term.  A zero c + d of
the cell has q(c) + A(d) + R(d) = 0, |R(d)| at most the bracket, so
d = d^ + Ac^-1(v - q(c) - R(d) + (Ac - A)d) with d^ = -Ac^-1(v), the exact
Newton update from the computed values.  Ac's least singular value
delta = ||h'| - |g'|| is at least sigma = `_Majorant.margin`, so
|d - d^| <= (bracket + gamma*M(a) + gamma*M'(a)r)/sigma, and the cell is
dropped when max(|Re d*|, |Im d*|) > e + rho for the computed update d*,
rho that bound with stage 2's allowances and the rounding of d*.  Stage 4
reuses d*.  Along curves where |q| is small next to a large gradient, the
rays of Re z^3 ~ 0 at k = n with |b| near 1, it drops cells stage 2 keeps.

`model._newton_update` computes d* = (conj(g'v) - conj(h')v)/J,
J = |h'|^2 - |g'|^2, and its docstring bounds the rounding where sigma is
positive: |d* - d^| <= gamma*(M'(a)|d*| + |v|)/sigma.  rho's numerator
carries gamma*(m1 + m0 + d0) twice, m1 = M(a + r), m0 = M(a),
d0 = M'(a)r: once for the bracket, as in stage 2, and once more, at
least 16u*m1, for the few roundings of rho's sum and quotient, each at
most u of a sum of terms no larger than m1 or than their own
allowances; they take at most about 2u*m1.  A float above the rounded
e + rho is above e + rho.

Where stage 3 keeps a cell that stage 4 does not certify, every zero of
the cell lies in the Newton box center + d* +- rho (both axes), so a
split pushes only the quarters, offsets o = (+-e/2, +-e/2) from the
centre, whose boxes o +- e/2 meet it: a quarter with
|Re d* - Re o| > e/2 + rho, or the same for Im, holds no zero.  The
screen adds two roundings to stage 3's, of the difference Re d* - Re o
and of the sum h2 + rho, h2 = e/2.  Stage 3 kept the cell, so
|Re d*| <= e + rho, and together they take at most
u(|Re d* - Re o| + h2 + rho) <= u(2e + 2rho) up to O(u^2).  Convexity
gives m1 = M(a + r) >= M(a) + M'(a)r >= sigma*r, sigma at most M'(a) up
to rounding, so 2e = sqrt(2)r <= sqrt(2)*m1/sigma.  Likewise m0 + d0 and
|v| are at most about m1, so rho <= (1 + O(gamma))m1/sigma +
gamma*M'(a)|d*|/sigma, and the two roundings take at most
(sqrt(2) + 2 + O(u))u*m1/sigma + 2u*gamma*M'(a)|d*|/sigma.  What rho's
own roundings leave of its second gamma*m1/sigma, at least
14u*m1/sigma, covers the first part; what its gamma*M'(a)|d*|/sigma
leaves over d*'s rounding, at least 3u*M'(a)|d*|/sigma, covers the
second.  No further term is needed.

The origin, then each kept cell, makes one undamped Newton run, from the
test's iterate or, at the floor and past it, from the centre.  q(0) = 0
exactly, so the origin's run starts from a last step of 0 and takes no
step.  A run tests each point it reaches once, and stops there: dropped,
when the point or its mirror image lies inside the disk of any zero found
(each kept with its centre folded into the upper half); after
`_NEWTON_CAP` steps; after a step of at most the unit roundoff times
max(1, |z|); where `_Majorant.margin` is not positive; or before a step
not shorter than the last (NaN and divergence included).  Entering a
certified D(w, r) it would converge
to its zero zeta: r <= min(s/3, sigma/(4L)), s = max(1, |w|),
sigma = `_Majorant.margin` at w, at most the Jacobian's least singular
value there, and L = M''(|w| + s) its Lipschitz bound on D(w, 3r), so
|zeta - w| < 0.9r, sigma_zeta > 3sigma/4 and each y in the disk has
|y - zeta| < 1.9r < sigma/(2L) < 2sigma_zeta/(3L), Newton's local
convergence radius.
A floor run that is dropped in a certified disk has found that disk's
zero, not necessarily the cell's: the cell may hold another.  Such a
cell is split as above the floor, and its kept children make runs of
their own, down to depth `_MAX_DEPTH`.  A run dropped in an
uncertified disk, as at a singular origin, splits nothing.
A run's last point z is certified by the Kantorovich test centred at z
and reported at the test's Newton iterate.  The test's sigma is the
margin that `classify_point` reads, so a pass proves the sign of
|h'| - |g'| at z, and kappa < 1/2 keeps the least singular value above
sigma/2 on the disk: J has that sign, the orientation, at the zero and at
the iterate.  Else z is kept as a singular zero, its disk of radius
1e-7*max(1, |z|), only if its run settled: a last step at most that radius
and |q(z)| <= 4*gamma*M(|z|), four times the rounding bound of q(z).

Each found zero, centre w and radius r, is reported with its mirror image
(`_mirror`), by a rule on the disk alone.  A certified zeta lies within
0.9r of w: if |Im w| >= 0.9r, zeta is not real and the pair is reported.
Otherwise zeta is real, and is reported once, at the real part of the
iterate, which is still in the disk.  For conj zeta, also a zero, lies
within 0.9r + 2|Im w| < 2.7r of w.  The run's certificate takes
r <= min(s/3, sigma/(4L)), L = M''(|w| + s) a Lipschitz bound on D(w, s)
for Dq, the derivative of q as a map of the real plane, and D(w, s) holds
D(w, 2.7r).  There Dq stays within 2.7rL <= 0.675sigma of Dq(w), whose
least singular value is at least sigma, so the mean of Dq over the
segment from zeta to conj zeta is invertible, and
q(zeta) = q(conj zeta) = 0 forces conj zeta = zeta: the uniqueness half
of Newton-Kantorovich (Ortega and Rheinboldt, Iterative Solution of
Nonlinear Equations in Several Variables, 1970).  An uncertified zero is
its own mirror, reported once at its real part, when |Im w| < r, and is
mirrored otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .bounds import BoundSource, CountBound, DiskBound, count_bound, radius_bound
from .contour import winding_number  # noqa: F401  perfbench/run.py traces it here
from .errors import BoundUnavailable, DegenerateJacobian, HypothesisViolation
from .model import (
    _UNIT_ROUNDOFF,
    HarmonicQuadrinomial,
    OrientationClass,
    _Majorant,
    _newton_update,
    analytic_derivative,
    classify_point,  # noqa: F401  perfbench/run.py traces it here
    coanalytic_derivative,
    evaluate,
    jacobian,
)

_NEWTON_CAP = 100
_FLOOR_DEPTH = 12  # quadtree depth where a kept cell makes a Newton run
_MAX_DEPTH = 20  # deepest split past the floor; sets R' (module docstring)
_SQRT2 = math.nextafter(math.sqrt(2.0), math.inf)  # half*_SQRT2 >= half*sqrt(2)
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


def newton_step(p: HarmonicQuadrinomial, z: complex) -> complex:
    """One full Newton update on the real 2x2 system, in complex form;
    raises `DegenerateJacobian` where `classify_point(p, z)` is SINGULAR,
    `_Majorant.margin` not positive (NaN included)."""
    fz, gz = analytic_derivative(p, z), coanalytic_derivative(p, z)
    if not _Majorant(p).margin(z, fz, gz) > 0:
        raise DegenerateJacobian(f"no positive margin at z = {z!r}")
    return z + _newton_update(evaluate(p, z), fz, gz)


def _kernels(p: HarmonicQuadrinomial):
    """The quadtree walk and the Newton run for p, as (walk, run).

    walk(stack, settle) pops cells (center, half) from `stack` until it is
    empty, and decides each closed cell center +- half (both axes), of
    half-diagonal r, with exact floats for centre and half-width, by stages
    1 to 4 of the module docstring.  The stack's cells are the tree's
    roots, at depth 1, all of one half-width h; a cell at depth d has
    half-width h/2^(d - 1) exactly, so the walk compares half-widths with
    those of `_FLOOR_DEPTH` and `_MAX_DEPTH` in place of counting depths.
    Stages 1, 3 and 4 take r = half*`_SQRT2`, at least half*sqrt(2) after
    rounding.  Stage 2 bounds the linear term by its value half*G at the
    worse corner, half*(1 + i) or half*(1 - i), and allows 2*gamma*M'(a)r
    for the rounding of h', g' and that value.  Stage 3 runs where the
    margin sigma is positive and shares its Newton update d* with stage 4.
    A cell that provably holds no zero is dropped.  Where the disk of
    radius `_CERT_RADIUS`*r at the centre provably holds exactly one zero,
    the walk calls settle(z1, inf) at the Kantorovich iterate z1.  Else,
    at the floor, it calls settle(center, inf), which answers True when a
    certified zero's disk dropped that run; the walk splits a floor cell
    only then, and only above `_MAX_DEPTH`.  A split pushes, in a fixed
    order, the quarters that the Newton box center + d* +- rho meets,
    every zero of the cell lying within rho of center + d* on both axes;
    where stage 3 did not run, the box is the whole plane and all four
    are pushed.  A test may pass a list subclass as the stack to record
    its pops and pushes: the walk binds `stack.pop` and `stack.append`
    once, so that seam costs the loop nothing.

    run(z, step, found) is the module docstring's Newton run from z, whose
    last step was `step`, against the found zeros `found`, (centre,
    radius, location, orientation) each, and gives (hit, entry, steps).
    hit is the entry whose disk dropped the run, or None.  entry is the
    found zero the run adds, or None: its last point z, folded into the
    upper half, certified by the Kantorovich test centred at z, of radius
    r = min(s/3, sigma/(4*M''(|z| + s))), s = max(1, |z|), sigma the margin
    at z, and reported at the test's Newton iterate with the orientation
    of the sign of |h'| - |g'|; or, where that fails, kept as a singular
    zero of radius 1e-7*s at z if the run settled.  steps counts the
    Newton steps tried, the last refused or rejected one included: the
    calls of `newton_step` that the run stands for.

    Both are flat closures: neither calls a function of this package.
    The factory builds `_Majorant(p)` and hoists, once per instance, b and
    c with their signs for q, |b| and |c| for M, b*k and c*m for h' and
    g', the coefficients of M' and M'', gamma and every exponent, each in
    the type that its pow converts an int exponent to: complex for the
    powers of q, h' and g', float for those of M, M' and M''.  So each pow
    gets the same operands as `model`'s and skips the conversion
    (tests/test_model.py checks the powers bit for bit).  The walk runs
    the cell test inline, in the loop that pops and splits, so a cell
    costs no call and no result tuple.  It computes q, h' and g' at the
    centre itself and inlines `_Majorant.value` (M(a), M(a + r)), `slope`
    (M'(a), computed once and read by the margin too), `margin` and
    `curvature`, the corner gain G, `_newton_update` and `_kantorovich`;
    stage 3's max(|Re d*|, |Im d*|) is a conditional expression that
    answers as `max` does, NaN included, and each quarter's centre is
    built from the centre's parts, as center + o adds them.  The run
    computes each point's jet once, at the top of each pass after the drop
    test, as `newton_step` does: h', g', the margin, q and, where the
    margin is positive, `_newton_update`'s update.  It steps with that
    update, and its certificate reads the last point's jet and inlines
    `_certify` in tests/test_solver.py, `_kantorovich` with
    `_Majorant.curvature` and `value`, and `_Majorant.orientation`; unlike
    `_certify`, it takes M'' only where sigma is positive, where the
    radius is used.  A run that
    ends in the lower half is folded with its update conjugated: q, h' and
    g' are conjugate bit for bit there, so |h'|, |g'|, |q|, |z| and sigma
    keep their bits and the update is conjugate.  Each inlined function
    keeps its float expressions, operands and evaluation order; a shared
    subexpression is reused only where left-to-right evaluation forms it
    anyway, so the answers are bitwise those of `model`'s functions
    composed, which tests/test_solver.py's `TestFlatCell` and `TestFlatRun`
    check against a reference walk and run built from them.  The jet is
    written out in each closure, not shared through a function, which
    would cost a call per cell and per step.  A test or a tracer that
    replaces `newton_step`, `evaluate` or a derivative in this module
    reaches neither closure.
    """
    maj = _Majorant(p)
    qb, qc, k, n, m = p.b, p.c, p.k, p.n, p.m  # b and c with their signs, for q
    hb, gc = qb * k, qc * m  # h' = hb*z^(k-1) + 1, g' = n*z^(n-1) + gc*z^(m-1)
    b, c = maj.b, maj.c  # |b| and |c|, for M
    zk, zn, zm, zk1, zn1, zm1 = map(complex, (k, n, m, k - 1, n - 1, m - 1))
    ek, en, em, ek1, en1, em1, ek2, en2, em2 = map(
        float, (k, n, m, k - 1, n - 1, m - 1, k - 2, n - 2, m - 2)
    )
    db, dc, ddb, ddn, ddc = maj.db, maj.dc, maj.ddb, maj.ddn, maj.ddc
    gamma = maj.gamma
    gamma2 = 2.0 * gamma
    sqrt, inf = math.sqrt, math.inf
    plus = OrientationClass.SENSE_PRESERVING
    minus = OrientationClass.SENSE_REVERSING
    singular = OrientationClass.SINGULAR

    def walk(stack: list, settle: Callable[[complex, float], bool]) -> None:
        pop, push = stack.pop, stack.append
        # The stack's cells are the roots, at depth 1, all of one half-width
        # h; a cell at depth d has half-width h/2^(d - 1), exactly.
        h = stack[-1][1]
        floor = math.ldexp(h, 1 - _FLOOR_DEPTH)  # half-width at _FLOOR_DEPTH
        deepest = math.ldexp(h, 1 - _MAX_DEPTH)  # half-width at _MAX_DEPTH
        while stack:
            center, half = pop()
            zb = center.conjugate()
            v = qb * center**zk + zb**zn + qc * zb**zm + center  # q(center)
            a = abs(center)
            r = half * _SQRT2
            x = a + r
            m0 = b * a**ek + a**en + c * a**em + a  # M(a)
            m1 = b * x**ek + x**en + c * x**em + x  # M(a + r)
            av = abs(v)
            lower = av - gamma * m0  # |q(center)| is at least this
            diff, total = m1 - m0, m1 + m0
            if lower > diff + gamma * total:  # stage 1
                continue
            fz = hb * center**zk1 + 1.0  # h'(center)
            gz = n * center**zn1 + gc * center**zm1  # g'(center)
            s0 = db * a**ek1 + 1.0 + n * a**en1 + dc * a**em1  # M'(a)
            d0 = s0 * r
            bracket = diff - d0
            total += d0
            u, w = abs(fz), abs(gz)
            gain = sqrt(2.0 * (u * u + w * w + 2.0 * abs((fz * gz).imag)))
            if lower > half * gain + gamma2 * s0 * r + bracket + gamma * total:
                continue  # stage 2
            sigma = abs(u - w) - gamma * s0
            if sigma > 0:
                gzb = gz.conjugate()
                j = (fz.real**2.0 + fz.imag**2.0) - (gzb.real**2.0 + gzb.imag**2.0)
                d = (gzb * v.conjugate() - fz.conjugate() * v) / j
                ad = abs(d)
                # The offset d of any zero in the cell has |d - d*| <= rho.
                rho = (bracket + gamma * (2.0 * total + s0 * ad + av)) / sigma
                dx, dy = d.real, d.imag
                ax, ay = abs(dx), abs(dy)
                if (ay if ay > ax else ax) > half + rho:  # stage 3; max(ax, ay)
                    continue
                rc = _CERT_RADIUS * r
                x = a + rc
                # kappa = lr/sigma
                lr = (ddb * x**ek2 + ddn * x**en2 + ddc * x**em2) * rc
                if lr < 0.5 * sigma and ad + (gamma * m0 + lr * rc) / sigma < 0.9 * rc:
                    # Stage 4: the cell holds at most the one zero of its
                    # Kantorovich disk, which Newton from the iterate finds.
                    settle(center + d, inf)
                    continue
            else:  # NaN too: no Newton box, so the box is the whole plane
                dx = dy = 0.0
                rho = inf
            if half <= floor:
                # A run dropped in a certified disk says nothing of the
                # rest of the cell: split past the floor.
                if not settle(center, inf) or half <= deepest:
                    continue
            # Push only the quarters center + o +- h2 that meet the Newton
            # box center + d* +- rho, which holds every zero of the cell
            # (module docstring), in a fixed order.
            h2 = 0.5 * half
            reach = h2 + rho
            cx, cy = center.real, center.imag
            right = not abs(dx - h2) > reach  # NaN keeps a quarter
            left = not abs(dx + h2) > reach
            if not abs(dy - h2) > reach:
                if right:
                    push((complex(cx + h2, cy + h2), h2))
                if left:
                    push((complex(cx - h2, cy + h2), h2))
            if not abs(dy + h2) > reach:
                if right:
                    push((complex(cx + h2, cy - h2), h2))
                if left:
                    push((complex(cx - h2, cy - h2), h2))

    def run(
        z: complex, step: float, found: list
    ) -> tuple[Optional[tuple], Optional[tuple], int]:
        taken = 0
        while True:
            w = complex(z.real, abs(z.imag))  # the nearer of z, conj(z) to any w
            for entry in found:
                if abs(w - entry[0]) < entry[1]:  # dropped as known
                    return entry, None, taken
            # The jet at z, which the step and the certificate both read.
            a = abs(z)
            s = a if a > 1.0 else 1.0  # max(1, |z|)
            fz = hb * z**zk1 + 1.0  # h'(z)
            gz = n * z**zn1 + gc * z**zm1  # g'(z)
            u, w = abs(fz), abs(gz)
            sigma = abs(u - w) - gamma * (db * a**ek1 + 1.0 + n * a**en1 + dc * a**em1)
            zb = z.conjugate()
            v = qb * z**zk + zb**zn + qc * zb**zm + z  # q(z)
            d = 0j  # the Newton update, where sigma > 0
            if sigma > 0:
                gzb = gz.conjugate()
                j = (fz.real**2.0 + fz.imag**2.0) - (gzb.real**2.0 + gzb.imag**2.0)
                d = (gzb * v.conjugate() - fz.conjugate() * v) / j
            # The step cap, or the rounding floor: a last step of at most
            # the unit roundoff times max(1, |z|).
            if taken == _NEWTON_CAP or step <= _UNIT_ROUNDOFF * s:
                break
            taken += 1
            if not sigma > 0:  # NaN fails it too
                break
            z1 = z + d
            t = abs(z1 - z)
            if not t < step:  # NaN fails it too
                break
            z, step = z1, t
        if z.imag < 0:  # its mirror image is as good a result: keep it folded
            z, d = z.conjugate(), d.conjugate()
        m0 = b * a**ek + a**en + c * a**em + a  # M(a)
        if sigma > 0:
            x = a + s
            l2 = ddb * x**ek2 + ddn * x**en2 + ddc * x**em2  # M''(a + s)
            r = min(s / 3.0, sigma / (4.0 * l2))
            x = a + r
            lr = (ddb * x**ek2 + ddn * x**en2 + ddc * x**em2) * r  # kappa = lr/sigma
            if lr < 0.5 * sigma and abs(d) + (gamma * m0 + lr * r) / sigma < 0.9 * r:
                return None, (z, r, z + d, plus if u > w else minus), taken
        rho = 1e-7 * s  # an uncertified zero's disk
        if step <= rho and abs(v) <= 4.0 * gamma * m0:
            return None, (z, rho, z, singular), taken
        return None, None, taken

    return walk, run


def _mirror(
    w: complex, r: float, z1: complex, o: OrientationClass
) -> list[tuple[complex, OrientationClass]]:
    """The reported zeros, (location, orientation), that a found zero
    (centre w, disk radius r, location z1, orientation o) and its mirror
    image stand for: a pair when |Im w| >= 0.9r for a certified zero, or
    >= r for an uncertified one, else one zero on the real axis at Re z1.
    The run's certified disk holds no second zero, conj zeta included
    (module docstring)."""
    reach = r if o is OrientationClass.SINGULAR else 0.9 * r
    if abs(w.imag) >= reach:
        return [(z1, o), (z1.conjugate(), o)]
    return [(complex(z1.real, 0.0), o)]


def find_zeros(p: HarmonicQuadrinomial) -> ZeroSetReport:
    """Every zero of q found in the disk `radius_bound(p)`, sorted by real,
    then imaginary part; raises `BoundUnavailable` where that has no disk.

    Each zero is certified, its orientation proven, or else singular.
    `winding_check` compares N+ - N- with the proven winding of q on the
    disk, `DiskBound.winding`: "passed" if equal, "failed" if not (a zero
    lost or counted twice), "inconclusive" if a zero is singular, unsigned.
    """
    disk = radius_bound(p)
    if disk.source is BoundSource.UNAVAILABLE:
        raise BoundUnavailable(
            "no zero-inclusion disk available (k = n with |b| = 1)"
        )
    walk, run = _kernels(p)
    singular = OrientationClass.SINGULAR
    # (centre, radius, location, orientation) per found zero, each with its
    # centre in the closed upper half-plane; its mirror image is implied.
    found = []

    def settle(z: complex, step: float) -> bool:
        """The run from z, whose last step was `step`, recording the zero it
        finds; True when a certified zero's disk dropped it."""
        hit, entry, _ = run(z, step, found)
        if entry:
            found.append(entry)
        return hit is not None and hit[3] is not singular

    settle(0j, 0.0)  # q(0) = 0: every term has z or zbar
    # Quadtree over [-R', R'] x [0, R'], the upper half of a square that
    # circumscribes the disk, whose two root cells are that square's upper
    # children; the real axis is an edge of every cell.  R' (module
    # docstring) keeps every centre and half-width exact.  Depth-first,
    # children pushed in fixed order, so the run order is deterministic.
    frac, exp = math.frexp(disk.radius)
    bits = 53 - _MAX_DEPTH
    h = math.ldexp(math.ceil(math.ldexp(frac, bits)), exp - bits - 1)  # R'/2
    walk([(complex(h, h), h), (complex(-h, h), h)], settle)

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
        for z, o in _mirror(w, r, z1, kind)
    ]
    records.sort(key=lambda r: (r.location.real, r.location.imag))

    kinds = [r.orientation for r in records]
    n_plus = kinds.count(OrientationClass.SENSE_PRESERVING)
    n_minus = kinds.count(OrientationClass.SENSE_REVERSING)
    n_singular = len(records) - n_plus - n_minus

    if n_singular > 0:
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
