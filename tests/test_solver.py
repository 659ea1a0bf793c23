import cmath
import importlib.util
import math
import struct
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadzero import (
    HarmonicQuadrinomial,
    OrientationClass,
    classify_point,
    evaluate,
    find_zeros,
    newton_step,
    modular_root_census,
    radius_bound,
)
from quadzero import critical, solver
from quadzero.errors import BoundUnavailable, DegenerateJacobian
from quadzero.model import (
    _UNIT_ROUNDOFF,
    _kantorovich,
    analytic_derivative,
    coanalytic_derivative,
)
from quadzero.solver import _Majorant, _kernels

CUBIC = HarmonicQuadrinomial(b=0.0, c=0.0, k=1, n=3, m=1)  # conj(z)^3 + z
CUBIC_SINGULAR_RADIUS = 9.0 ** (-0.25)  # CUBIC's |h'| = |g'| = 1 on |z| = 3^(-1/2)
UNIT_C = HarmonicQuadrinomial(b=2.0, c=1.0, k=3, n=3, m=1)  # |h'| = |g'| = 1 at 0
CENSUS_CASE = HarmonicQuadrinomial(b=1.01, c=2.0, k=3, n=3, m=1)  # n = k, m = 1
# (b, c, k, n, count) with |c| = 1 and m = 1: the origin is a singular zero.
SINGULAR_ORIGINS = [
    (2.0, 1.0, 3, 3, 5),
    (1.0, 1.0, 4, 2, 6),
    (1.5, 1.0, 3, 2, 5),
    (2.0, -1.0, 3, 2, 4),
    (2.5, -1.0, 3, 3, 3),
    (0.5, 1.0, 4, 2, 6),
    (2.5078960234123966, -1.0, 5, 5, 5),
    (-2.3294154425619276, 1.0, 5, 4, 7),
    (-3.0817953258295665, -1.0, 7, 7, 9),
]


def _jet(p, z):
    """q, h' and g' at z, as the Kantorovich test takes them."""
    return evaluate(p, z), analytic_derivative(p, z), coanalytic_derivative(p, z)


def _certify(maj, z, v, fz, gz):
    """(r, z1) at a run's last point z, given q, h' and g' there as v, fz
    and gz: the radius r = min(s/3, sigma/(4*M''(|z| + s))), s = max(1, |z|)
    and sigma = `_Majorant.margin` at z (solver module docstring), and
    `_kantorovich`'s iterate for D(z, r), or None.  kappa <= 1/4 on that
    disk.  Where sigma is not positive (the Jacobian singular within
    rounding) there is no iterate.  A converged z with sigma > 0 can fail
    the test too: r falls with the degree like 1/(n*2^n) on the unit
    circle, below the test's rounding term gamma*M(|z|)/sigma for
    conj(z)^n + z from n = 45 on.  The solver's run inlines it; this is
    the reference that `TestFlatRun` holds the run to, and it takes the
    Newton update from the solver module as it runs."""
    sigma = maj.margin(z, fz, gz)
    s = max(1.0, abs(z))
    r = min(s / 3.0, sigma / (4.0 * maj.curvature(abs(z) + s)))
    if not sigma > 0:
        return r, None
    return r, _kantorovich(maj, z, r, sigma, solver._newton_update(v, fz, gz))


def _sqrt_above(x):
    """A rational just above sqrt(x) for a rational x >= 0, within 2^-200."""
    n = math.isqrt(x.numerator * (1 << 400) // x.denominator)
    return Fraction(n + 1, 1 << 200)


def _abs_above(w):
    """A rational just above |w| for a complex w of rational parts."""
    return _sqrt_above(w[0] * w[0] + w[1] * w[1])


def _exact_stage_bounds(p, center, half, part=None):
    """Rational bounds for the closed cell center +- half, at the centre
    a = |center| and r = half*sqrt(2), each rounded up: M(a); the drop
    D1 = M(a + r) - M(a) of |q| across the cell that stage 1 bounds; the
    bracket M(a + r) - M(a) - M'(a)r that bounds the part of
    q(center + d) - q(center) beyond the linear part A(d) = h'd + conj(g'd);
    and dist2, where dist2(w) is the squared distance from w to A(square),
    the parallelogram of the values A takes on the square of offsets: the
    cell, or the sub-box o +- e of it given as part = (o, e).

    A zero center + d of the cell has -q(center) - R(d) = A(d), |R(d)| at
    most the bracket, so it needs dist2(-q(center)) <= bracket^2: stages 2
    and 3 are sound where they drop only cells that break that, and the
    quadtree where it skips only quarters that break it.  The bracket
    grows with a and r, so bounds above a and r bound it."""

    def power(w, e):
        out = (Fraction(1), Fraction(0))
        for _ in range(e):
            out = (out[0] * w[0] - out[1] * w[1], out[0] * w[1] + out[1] * w[0])
        return out

    def term(coef, w, e):  # coef * w^e
        x, y = power(w, e)
        return coef * x, coef * y

    b, c, k, n, m = Fraction(p.b), Fraction(p.c), p.k, p.n, p.m
    z = (Fraction(center.real), Fraction(center.imag))
    hp = term(b * k, z, k - 1)
    hp = (hp[0] + 1, hp[1])
    gp = [u + v for u, v in zip(term(Fraction(n), z, n - 1), term(c * m, z, m - 1))]
    a = _abs_above(z)
    r = _sqrt_above(2 * Fraction(half) ** 2)
    bb, cc = abs(b), abs(c)

    def big_m(x):
        return bb * x**k + x**n + cc * x**m + x

    def linear(d):  # A(d) = h'd + conj(g'd)
        u, v = hp[0] * d[0] - hp[1] * d[1], hp[0] * d[1] + hp[1] * d[0]
        x, y = gp[0] * d[0] - gp[1] * d[1], gp[0] * d[1] + gp[1] * d[0]
        return u + x, v - y

    o, e = part or (0j, half)
    ox, oy, e = Fraction(o.real), Fraction(o.imag), Fraction(e)
    # The images of the corners, in order around the square.
    corners = [
        linear((ox + sx * e, oy + sy * e))
        for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1))
    ]
    det = hp[0] ** 2 + hp[1] ** 2 - gp[0] ** 2 - gp[1] ** 2  # A's determinant

    def dist2(w):
        if det:  # w = A(x) for one x: inside when x lies in the square
            x = ((hp[0] - gp[0]) * w[0] + (hp[1] + gp[1]) * w[1]) / det
            y = ((gp[1] - hp[1]) * w[0] + (hp[0] + gp[0]) * w[1]) / det
            if abs(x - ox) <= e and abs(y - oy) <= e:
                return Fraction(0)
        best = None
        for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
            dx, dy = x1 - x0, y1 - y0
            length2 = dx * dx + dy * dy
            t = ((w[0] - x0) * dx + (w[1] - y0) * dy) / length2 if length2 else 0
            t = min(max(t, Fraction(0)), Fraction(1))
            ex, ey = w[0] - x0 - t * dx, w[1] - y0 - t * dy
            if best is None or ex * ex + ey * ey < best:
                best = ex * ex + ey * ey
        return best

    slope = bb * k * a ** (k - 1) + n * a ** (n - 1) + cc * m * a ** (m - 1) + 1
    d1 = big_m(a + r) - big_m(a)
    return big_m(a), d1, d1 - slope * r, dist2


class _RecordingStack(list):
    """A walk's stack that logs, in `events`, each cell popped as
    ("pop", center, half) and each quarter pushed as ("push", center,
    half).  With push=False a quarter is logged but not pushed, so a walk
    from one cell tests that cell alone."""

    def __init__(self, cells, events, push=True):
        super().__init__(cells)
        self.events, self.push = events, push

    def pop(self):
        cell = super().pop()
        self.events.append(("pop", *cell))
        return cell

    def append(self, cell):
        self.events.append(("push", *cell))
        if self.push:
            super().append(cell)


def _recorded(walk, events):
    """walk, logging its pops and pushes through a `_RecordingStack` and
    each call of its settle as ("settle", z, step, result), all in
    `events` in the order they happen."""

    def recorded_walk(stack, settle):
        def recorded_settle(z, step):
            result = settle(z, step)
            events.append(("settle", z, step, result))
            return result

        walk(_RecordingStack(stack, events), recorded_settle)

    return recorded_walk


def _walk_cell(walk, center, half):
    """The events of walking the one cell center +- half, as `_recorded`
    logs them, with its quarters logged but not pushed and a settle that
    answers False.  The cell is its own root, above the floor, so it is
    dropped (no other event), certified (a settle call at the Kantorovich
    iterate) or split (the quarters its Newton box meets)."""
    events = []

    def settle(z, step):
        events.append(("settle", z, step))
        return False

    walk(_RecordingStack([(center, half)], events, push=False), settle)
    return events


def _walk_stage(events):
    """A one-cell walk's answer: 0 certified, 1 split and 2 dropped."""
    kinds = {e[0] for e in events}
    return 0 if "settle" in kinds else 1 if "push" in kinds else 2


def _quarters(center, half):
    """The four quarters of the cell center +- half, in the walk's push
    order, as (o, (center + o, half/2)), o each one's offset from the
    centre."""
    h2 = 0.5 * half
    return [
        (complex(ox, oy), (complex(center.real + ox, center.imag + oy), h2))
        for oy in (h2, -h2)
        for ox in (h2, -h2)
    ]


class _Work:
    """What find_zeros does as it runs: each walk, as (p, events) with the
    events `_recorded` logs, in `walks`; each Newton run, as (p, z, step,
    found, result) in run order, found the found zeros it ran against, in
    `runs`; and the Newton steps the runs tried in `steps`."""

    def __init__(self):
        self.walks, self.runs, self.steps = [], [], 0

    @property
    def cells(self):
        """Each cell tested, as (p, center, half), in test order."""
        return [
            (p, e[1], e[2]) for p, events in self.walks for e in events if e[0] == "pop"
        ]


@pytest.fixture
def work(monkeypatch):
    """A `_Work` that records every find_zeros call, through the walk and
    the run that `solver._kernels` builds."""
    work = _Work()

    def recording_kernels(p):
        walk, run = _kernels(p)
        events = []
        work.walks.append((p, events))

        def recorded_run(z, step, found):
            result = run(z, step, found)
            work.runs.append((p, z, step, tuple(found), result))
            work.steps += result[2]
            return result

        return _recorded(walk, events), recorded_run

    monkeypatch.setattr(solver, "_kernels", recording_kernels)
    return work


def _corner_gain(hp, gp):
    """sqrt(2(|h'|^2 + |g'|^2 + 2|Im(h'g')|)) for h' = hp and g' = gp: the
    largest |h'd + conj(g'd)| over the square |Re d|, |Im d| <= 1, reached
    at the corner 1 + i or 1 - i (solver module docstring)."""
    u, w = abs(hp), abs(gp)
    return math.sqrt(2.0 * (u * u + w * w + 2.0 * abs((hp * gp).imag)))


def _reference_cell(p, maj):
    """The cell test composed from its helpers, `_Majorant.value`, `slope`
    and `margin`, `_corner_gain`, `solver._newton_update` and
    `_kantorovich`, as the solver's docstrings state it; q, h' and
    g' are read from the solver module when the cell runs.  It gives
    (kept, z1, box), as the solver's walk decides a cell: kept is False
    when the cell is dropped, z1 the Kantorovich iterate when it is
    certified, and box (d*, rho) its Newton box, or (0j, inf) without one,
    when it is split."""
    value, slope, gamma = maj.value, maj.slope, maj.gamma

    def cell(center, half):
        v = solver.evaluate(p, center)
        a = abs(center)
        r = half * solver._SQRT2
        m0 = value(a)
        m1 = value(a + r)
        lower = abs(v) - gamma * m0
        if lower > m1 - m0 + gamma * (m1 + m0):
            return False, None, None
        fz = solver.analytic_derivative(p, center)
        gz = solver.coanalytic_derivative(p, center)
        s0 = slope(a)
        d0 = s0 * r
        drop = half * _corner_gain(fz, gz) + 2.0 * gamma * s0 * r + (m1 - m0 - d0)
        if lower > drop + gamma * (m1 + m0 + d0):
            return False, None, None
        sigma = maj.margin(center, fz, gz)
        if not sigma > 0:
            return True, None, (0j, math.inf)
        d = solver._newton_update(v, fz, gz)
        slack = 2.0 * (m1 + m0 + d0) + s0 * abs(d) + abs(v)
        rho = (m1 - m0 - d0 + gamma * slack) / sigma
        if max(abs(d.real), abs(d.imag)) > half + rho:
            return False, None, None
        z1 = _kantorovich(maj, center, solver._CERT_RADIUS * r, sigma, d)
        return True, z1, None if z1 is not None else (d, rho)

    return cell


def _reference_walk(p, maj):
    """The quadtree walk as find_zeros looped over a cell test before the
    walk inlined it, over `_reference_cell`: each stack entry's depth kept
    beside it, the roots at depth 1, and each quarter built as
    center + o.  The solver's flat walk must pop, push and settle bitwise
    as it does."""
    cell = _reference_cell(p, maj)

    def walk(stack, settle):
        depths = [1] * len(stack)
        while stack:
            center, half = stack.pop()
            depth = depths.pop()
            kept, z1, box = cell(center, half)
            if not kept:
                continue
            if z1 is not None:
                settle(z1, math.inf)
                continue
            if depth >= solver._FLOOR_DEPTH:
                if not settle(center, math.inf) or depth >= solver._MAX_DEPTH:
                    continue
            h2 = 0.5 * half
            dx, dy, reach = box[0].real, box[0].imag, h2 + box[1]
            for oy in (h2, -h2):
                if abs(dy - oy) > reach:
                    continue
                for ox in (h2, -h2):
                    if abs(dx - ox) > reach:
                        continue
                    stack.append((center + complex(ox, oy), h2))
                    depths.append(depth + 1)

    return walk


def _reference_run(p, maj):
    """The Newton run composed from `newton_step`, `_certify`,
    `_Majorant.orientation` and `_Majorant.value`, as the solver's
    docstrings state it: run(z, step, found) is (hit, entry, steps) as for
    `solver._kernels`' run, steps the calls of `newton_step`, which is read
    from the solver module as the run steps.  The solver's flat run must
    give bitwise the same."""
    cap = solver._NEWTON_CAP

    def run(z, step, found):
        steps = 0
        for taken in range(cap + 1):
            w = complex(z.real, abs(z.imag))
            for entry in found:
                if abs(w - entry[0]) < entry[1]:
                    return entry, None, steps
            if taken == cap or step <= _UNIT_ROUNDOFF * max(1.0, abs(z)):
                break
            steps += 1
            try:
                z1 = solver.newton_step(p, z)
            except DegenerateJacobian:
                break
            d = abs(z1 - z)
            if not d < step:
                break
            z, step = z1, d
        if z.imag < 0:
            z = z.conjugate()
        v, fz, gz = _jet(p, z)
        r, z1 = _certify(maj, z, v, fz, gz)
        rho = 1e-7 * max(1.0, abs(z))
        if z1 is not None:
            return None, (z, r, z1, maj.orientation(z, fz, gz)), steps
        if step <= rho and abs(v) <= 4.0 * maj.gamma * maj.value(abs(z)):
            return None, (z, rho, z, OrientationClass.SINGULAR), steps
        return None, None, steps

    return run


def _bits(x):
    """x, a walk's events or a run's (hit, entry, steps), with every float,
    complex parts included, as its bit pattern, so that -0.0 and NaN
    compare exactly."""
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, complex):
        return _bits(x.real), _bits(x.imag)
    if isinstance(x, (tuple, list)):
        return tuple(_bits(y) for y in x)
    return x


def _switches(flat, ref, make, ladder, kind=_walk_stage):
    """The switches (below, above) of kind(answer) for the reference's
    answer, by default a one-cell walk's `_walk_stage`, between
    neighbouring scales of the increasing positive `ladder`, for the
    arguments make(t) at scale t.  Each is bisected over the scale's bit patterns down to two adjacent
    floats, and at both the flat function must answer bit for bit as the
    reference."""

    def scale(i):  # non-negative floats order as their bit patterns
        return struct.unpack("<d", struct.pack("<q", i))[0]

    def stage(i):
        return kind(ref(*make(scale(i))))

    found = set()
    ladder = [struct.unpack("<q", struct.pack("<d", t))[0] for t in ladder]
    for lo, hi in zip(ladder, ladder[1:]):
        below = stage(lo)
        if stage(hi) == below:
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if stage(mid) == below:
                lo = mid
            else:
                hi = mid
        for i in (lo, hi):
            cell = make(scale(i))
            assert _bits(flat(*cell)) == _bits(ref(*cell)), cell
        found.add((below, stage(hi)))
    return found


def _workloads():
    """perfbench/workloads.py, the benchmark's seeded instance pools."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _screened(center, half, events):
    """The quarters o +- half/2, as (o, half/2) with o the offset from the
    centre, that a one-cell walk from center +- half skips, given its
    events: where it splits the cell, those that miss its Newton box
    d* +- rho on an axis (solver module docstring)."""
    if _walk_stage(events) != 1:
        return []
    pushed = {e[1:] for e in events if e[0] == "push"}
    return [(o, q[1]) for o, q in _quarters(center, half) if q not in pushed]


signs = st.sampled_from((-1.0, 1.0))
near_unit = st.floats(min_value=-1e-3, max_value=1e-3).map(lambda e: 1.0 + e)


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=1, max_value=n - 1))
    # k = n + 1 (and b = 0) are where Theorem 3.3's bound is proven.
    k = draw(st.one_of(st.just(n + 1), st.integers(min_value=1, max_value=6)))
    # Tiny |b| puts far zeros near R = 1/|b|, up to 1e16.
    b = draw(signs) * draw(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.1, max_value=5.0),
            st.floats(min_value=-16.0, max_value=-4.0).map(lambda e: 10.0**e),
        )
    )
    # The |b| -> 1 cliff at k = n is slow; the cliff tests cover it.
    assume(k != n or abs(abs(b) - 1.0) > 0.2)
    c = draw(signs) * draw(
        st.one_of(
            st.floats(min_value=0.1, max_value=5.0), st.just(1.0), near_unit
        )
    )
    return HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=m)


class TestNewtonStep:
    def test_quadratic_convergence_to_origin(self):
        z = 0.1 + 0.1j
        for _ in range(6):
            z = newton_step(CUBIC, z)
        assert abs(z) < 1e-14

    def test_basin_of_unimodular_zero(self):
        z = 0.9 * cmath.exp(1j * math.pi / 4)
        for _ in range(40):
            z = newton_step(CUBIC, z)
        assert abs(z - cmath.exp(1j * math.pi / 4)) < 1e-12

    def test_degenerate_at_singular_circle(self):
        # |h'| = |g'| within rounding: the margin is not positive.
        cases = [(CUBIC, CUBIC_SINGULAR_RADIUS * cmath.exp(t * 1j)) for t in (0.0, 0.3, 2.0)]
        cases += [
            (HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=1), 0j)
            for b, c, k, n, _ in SINGULAR_ORIGINS
        ]
        for p, z in cases:
            assert classify_point(p, z) is OrientationClass.SINGULAR
            with pytest.raises(DegenerateJacobian):
                newton_step(p, z)


# On CUBIC's singular circle and within 1e-12 (relative) of it, where the
# margin's sign changes and a rule other than the margin would disagree.
near_singular_circle = st.builds(
    lambda t, e, sign: CUBIC_SINGULAR_RADIUS * (1.0 + sign * 10.0**e) * cmath.exp(t * 1j),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=-17.0, max_value=-12.0),
    signs,
)
points = st.one_of(
    st.just(0j),
    near_singular_circle,
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)


@given(st.one_of(instances(), st.just(CUBIC), st.just(UNIT_C)), points)
@example(CUBIC, CUBIC_SINGULAR_RADIUS * cmath.exp(0.3j))
@example(UNIT_C, 0j)
@settings(max_examples=300)
def test_newton_step_refuses_exactly_the_singular_points(p, z):
    # One rule for a singular Jacobian: the margin that classify_point reads.
    singular = classify_point(p, z) is OrientationClass.SINGULAR
    try:
        newton_step(p, z)
    except DegenerateJacobian:
        assert singular
    else:
        assert not singular


@pytest.mark.parametrize(
    "p",
    [HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=1) for b, c, k, n, _ in SINGULAR_ORIGINS]
    + [CENSUS_CASE],
    ids=lambda p: f"{p.b!r},{p.c!r},{p.k},{p.n},{p.m}",
)
def test_newton_updates_follow_a_positive_margin(monkeypatch, p):
    # Every caller reads the margin at h' and g' and takes the Newton
    # update with those same values only where it is positive.  The
    # callers here are newton_step and _certify, in find_zeros's runs made
    # by `_reference_run`, and, on CENSUS_CASE, whose critical circle
    # exists, critical._zero_disk.  The solver's walk and run inline both
    # helpers; TestFlatCell and TestFlatRun check them against
    # `_reference_walk` and `_reference_run`, which call them.
    last = {}
    calls = []
    real_margin, real_update = _Majorant.margin, solver._newton_update

    def margin(self, z, hp, gp):
        last.update(hp=hp, gp=gp, sigma=real_margin(self, z, hp, gp))
        return last["sigma"]

    def update(v, fz, gz):
        assert last["hp"] is fz and last["gp"] is gz
        assert last["sigma"] > 0
        calls.append(last["sigma"])
        return real_update(v, fz, gz)

    monkeypatch.setattr(_Majorant, "margin", margin)
    monkeypatch.setattr(solver, "_newton_update", update)
    monkeypatch.setattr(critical, "_newton_update", update)
    real_kernels = solver._kernels

    def kernels(p):
        return real_kernels(p)[0], _reference_run(p, _Majorant(p))

    monkeypatch.setattr(solver, "_kernels", kernels)
    report = find_zeros(p)
    assert calls
    if p == CENSUS_CASE:
        calls.clear()
        modular_root_census(p, report)
        assert calls


class TestFindZeros:
    def test_closed_form_quintet(self):
        report = find_zeros(CUBIC)
        assert report.count == 5
        assert report.n_plus == 1
        assert report.n_minus == 4
        assert report.n_singular == 0
        assert report.winding_check == "passed"
        assert report.disk.winding == -3
        expected = [0j] + [
            cmath.exp(1j * math.pi * (2 * j + 1) / 4) for j in range(4)
        ]
        for want in expected:
            assert min(abs(rec.location - want) for rec in report.zeros) < 1e-10

    def test_degree_five_coanalytic(self):
        p = HarmonicQuadrinomial(b=0.0, c=0.0, k=1, n=5, m=1)
        report = find_zeros(p)
        # origin plus the six roots of z^6 = -1
        assert report.count == 7
        assert report.disk.winding == -5

    def test_origin_always_returned(self):
        for p in (
            CUBIC,
            HarmonicQuadrinomial(b=2.0, c=1.0, k=2, n=2, m=1),
            HarmonicQuadrinomial(b=2.0, c=3.0, k=4, n=3, m=1),
        ):
            report = find_zeros(p)
            assert min(abs(rec.location) for rec in report.zeros) < 1e-12

    def test_residuals_within_tolerance(self):
        p = HarmonicQuadrinomial(b=2.0, c=3.0, k=4, n=3, m=1)
        report = find_zeros(p)
        for rec in report.zeros:
            assert abs(evaluate(p, rec.location)) <= 1e-10

    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_zero_set_conjugation_symmetric(self, p):
        # Real b and c: q(conj z) = conj q(z).  The solver finds zeros in
        # the upper half-plane and mirrors them, so every reported zero
        # has its exact conjugate in the set, with the same orientation,
        # certificate, residual and Jacobian.
        report = find_zeros(p)
        by_location = {rec.location: rec for rec in report.zeros}
        assert len(by_location) == report.count
        for rec in report.zeros:
            twin = by_location[rec.location.conjugate()]
            assert twin.orientation is rec.orientation
            assert twin.certified == rec.certified
            assert twin.residual == rec.residual
            assert twin.jacobian == rec.jacobian

    def test_cells_tile_the_upper_half_plane(self, work):
        # Only cells of [-R', R'] x [0, R'] are tested; the lower half's
        # zeros are the mirror images of the upper half's.
        p = HarmonicQuadrinomial(b=1.4, c=-2.2, k=5, n=3, m=2)
        report = find_zeros(p)
        tested = [(center, half) for _, center, half in work.cells]
        # The root half-width is R'/2, R' the least float >= R whose
        # significand fits in 53 - _MAX_DEPTH bits.
        radius = Fraction(report.disk.radius)
        unit = Fraction(2) ** (math.frexp(report.disk.radius)[1] - 53 + solver._MAX_DEPTH)
        h = max(half for _, half in tested)
        assert (2 * Fraction(h) / unit).denominator == 1
        assert radius < 2 * Fraction(h) < radius + unit  # R' is rounded up here
        roots = [(complex(-h, h), h), (complex(h, h), h)]  # in the order tested
        assert [t for t in tested if t[1] == h] == roots
        assert all(center.imag >= half for center, half in tested)
        assert any(rec.location.imag < 0 for rec in report.zeros)

    def test_counts_are_consistent(self):
        p = HarmonicQuadrinomial(b=2.0, c=3.0, k=2, n=2, m=1)
        report = find_zeros(p)
        assert report.count == len(report.zeros)
        assert report.n_plus + report.n_minus + report.n_singular == report.count
        assert 1 <= report.count <= 4  # Wilmshurst k^2 with k = 2
        # frozen after cross-checking against the dense-grid oracle:
        # zeros at 0, -4/3, and 1 +- i*sqrt(7/3)
        assert report.count == 4
        assert report.winding_check == "passed"

    def test_determinism(self):
        p = HarmonicQuadrinomial(b=-0.7, c=1.9, k=5, n=4, m=2)
        a = find_zeros(p)
        b = find_zeros(p)
        assert a == b

    def test_bound_unavailable(self):
        p = HarmonicQuadrinomial(b=1.0, c=2.0, k=3, n=3, m=1)
        with pytest.raises(BoundUnavailable):
            find_zeros(p)


class TestOrientationBookkeeping:
    def test_singular_zero_marks_inconclusive(self):
        # c = 1, m = 1, b = 0: J(0) = 1 - c^2 = 0, the origin is singular
        p = HarmonicQuadrinomial(b=0.0, c=1.0, k=1, n=3, m=1)
        report = find_zeros(p)
        assert report.n_singular >= 1
        assert report.winding_check == "inconclusive"

    def test_double_zero_marks_inconclusive(self):
        # a double zero at 1, J(1) = 0: no certificate proves the
        # orientation of the point where its run stopped
        p = HarmonicQuadrinomial(b=0.0, c=-2.0, k=4, n=3, m=2)
        report = find_zeros(p)
        assert report.n_singular >= 1
        assert report.winding_check == "inconclusive"

    def test_lost_singular_pair_is_not_passed(self):
        # 0,-2,1,5,2: q = conj(z)^5 - 2conj(z)^2 + z has a singular pair at
        # exp(+-2 pi i/3), where |h'| = |g'| = 1, besides its 4 certified
        # zeros.  The runs that end nearest the pair stop with |q| from
        # 1e-13 to 6e-12, above the settle gate, so the pair may go
        # unreported; the check must then not pass.
        report = find_zeros(HarmonicQuadrinomial(b=0.0, c=-2.0, k=1, n=5, m=2))
        assert report.n_certified == 4
        assert report.winding_check != "passed"

    @pytest.mark.parametrize(
        "b", [-0.3225352274058966, -0.3225352175058966, -0.3225342275058966]
    )
    def test_no_confident_wrong_count_past_a_fold(self, b):
        # At b0 = -0.3225352275058966 a +- pair of zeros is born: 5 zeros
        # below b0, 7 above.  Just above it, the newborn pair sits too
        # close together to tell apart; the answer may lose it or leave it
        # uncertified, but then the check must not pass.
        report = find_zeros(HarmonicQuadrinomial(b=b, c=1.6144435975470686, k=3, n=2, m=1))
        assert report.winding_check != "passed" or report.count == 7

    def test_orientation_matches_jacobian_sign(self):
        p = HarmonicQuadrinomial(b=2.0, c=3.0, k=4, n=3, m=1)
        for rec in find_zeros(p).zeros:
            if rec.orientation is OrientationClass.SENSE_PRESERVING:
                assert rec.jacobian > 0
            elif rec.orientation is OrientationClass.SENSE_REVERSING:
                assert rec.jacobian < 0


# Instances whose cells around certified zeros are checked in rational
# arithmetic; the last is near-singular (|c| near 1, m = 1).
STAGE_CASES = [
    (0.0, 0.0, 1, 3, 1),
    (2.0, 3.0, 4, 3, 1),
    (-1.051, -0.158, 5, 2, 1),
    (1.4, -2.2, 5, 3, 2),
    (0.5, 1.0, 4, 2, 1),
    (4.768367665318943, -1.0014553254194767, 4, 3, 1),
]


def _cells_around(z0):
    """Cells (center, half) of many sizes around z0: centred on it, off
    it, and one beside it whose lower edge lies on the real axis, as the
    quadtree's do."""
    for decade in range(-14, 0):
        half = 10.0**decade
        for ox, oy in ((0.0, 0.0), (0.3, -0.7), (-0.9, 0.2)):
            yield z0 + complex(ox, oy) * half, half
        yield complex(z0.real + 0.4 * half, half), half


class TestExclusion:
    @pytest.mark.parametrize(
        "b, c, k, n, m, lo, hi",
        [
            (-1.051, -0.158, 5, 2, 1, -0.66, -0.64),
            (-3.162, 1.958, 6, 2, 1, 1.04, 1.06),
        ],
    )
    def test_cell_holding_a_zero_is_never_pruned(self, b, c, k, n, m, lo, hi):
        # A real zero, bracketed in exact rational arithmetic.  The cell is
        # centred on a float next to it and just wide enough to hold the
        # bracket, so the computed |q(centre)| is mostly rounding error,
        # several times the Lipschitz drop across the cell.
        p = HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=m)

        def q(x):
            return Fraction(b) * x**k + x**n + Fraction(c) * x**m + x

        lo, hi = Fraction(lo), Fraction(hi)
        assert q(lo) * q(hi) < 0
        while hi - lo > Fraction(1, 2**80):
            mid = (lo + hi) / 2
            if q(mid) * q(lo) > 0:
                lo = mid
            else:
                hi = mid
        x = float((lo + hi) / 2)
        half = 2.0 * float(max(Fraction(x) - lo, hi - Fraction(x)))
        center = complex(x, 0.0)
        maj = _Majorant(p)
        v, fz, gz = _jet(p, center)
        a, r = abs(center), half * math.sqrt(2.0)
        drop = maj.value(a + r) - maj.value(a)  # stage 1, without rounding
        drop2 = (abs(fz) + abs(gz)) * r + drop - maj.slope(a) * r  # stage 2
        # Without the rounding margins either stage would prune the cell.
        assert abs(v) > drop
        assert abs(v) > drop2
        assert _walk_stage(_walk_cell(_kernels(p)[0], center, half)) != 2

    def test_second_order_stage_prunes_what_the_first_keeps(self):
        # Around -1-2j the terms of h' and g' partly cancel, so the drop of
        # |q| across the cell is smaller than the majorant's first-order
        # drop M(a+r) - M(a): stage 1 keeps the cell and stage 2 prunes it.
        p = HarmonicQuadrinomial(b=2.0, c=3.0, k=4, n=3, m=1)
        center, half = -1 - 2j, 0.25
        maj = _Majorant(p)
        a, r = abs(center), half * math.sqrt(2.0)
        m0, m1 = maj.value(a), maj.value(a + r)
        assert abs(evaluate(p, center)) - maj.gamma * m0 < m1 - m0
        assert _walk_stage(_walk_cell(_kernels(p)[0], center, half)) == 2

    def test_cell_without_a_margin_keeps_a_whole_cell_box(self):
        # conj(z)^2 + z has h' = 1 and g' = 2z, so |h'| = |g'| on
        # |z| = 1/2 and the margin at the centre 0.5j is -gamma*M'(1/2):
        # stages 3 and 4 cannot run.  The cell is kept with a box that
        # covers all of it, so its split pushes all four quarters.
        p = HarmonicQuadrinomial(b=0.0, c=0.0, k=1, n=2, m=1)
        maj = _Majorant(p)
        center, half = 0.5j, 0.25
        _, fz, gz = _jet(p, center)
        assert abs(fz) == abs(gz) == 1.0
        assert maj.margin(center, fz, gz) < 0
        events = _walk_cell(_kernels(p)[0], center, half)
        pushed = [e[1:] for e in events if e[0] == "push"]
        assert pushed == [q for _, q in _quarters(center, half)]
        assert _walk_stage(events) == 1

    def test_cell_iterate_is_newton_step(self):
        # The cell test's Newton iterate comes from the q, h' and g' it
        # evaluated for exclusion, by the formula newton_step uses.
        center = 0.7 + 0.7j  # 0.01 from the zero exp(i*pi/4) per axis
        events = _walk_cell(_kernels(CUBIC)[0], center, 0.01)
        assert events[1:] == [("settle", newton_step(CUBIC, center), math.inf)]

    @pytest.mark.parametrize(
        "b, c, depth, ix, iy",
        [
            (2.0, 1.0, 12, 1, 67),  # left edge on the imaginary axis
            (2.5, -1.0, 7, -11, 1),  # lower edge on the real axis
        ],
    )
    def test_corner_stage_prunes_beside_the_singular_origin(
        self, b, c, depth, ix, iy
    ):
        # |c| = 1, m = 1, k = n = 3: h' and g' are near 1 and c at the
        # origin, so A(d) = h'd + conj(g'd) is near 2 Re d (c = 1) or
        # 2i Im d (c = -1), and q stays small along the imaginary or the
        # real axis.  There the largest |A| over the disk of the cell,
        # (|h'| + |g'|)r, is sqrt(2) times that over the square cell, and
        # stage 2 drops a cell that the disk's bound keeps even without
        # its rounding margins.
        p = HarmonicQuadrinomial(b=b, c=c, k=3, n=3, m=1)
        maj = _Majorant(p)
        half = radius_bound(p).radius / 2**depth
        center = complex(ix * half, iy * half)
        v, fz, gz = _jet(p, center)
        a, r = abs(center), half * math.sqrt(2.0)
        bracket = maj.value(a + r) - maj.value(a) - maj.slope(a) * r
        assert abs(v) < (abs(fz) + abs(gz)) * r + bracket
        assert _walk_stage(_walk_cell(_kernels(p)[0], center, half)) == 2

    def test_corner_stage_halves_the_cells_at_a_singular_origin(self, work):
        # 2,1,3,3,1 took 2 010 cell tests under the disk's bound.
        report = find_zeros(HarmonicQuadrinomial(b=2.0, c=1.0, k=3, n=3, m=1))
        assert report.count == 5
        assert len(work.cells) <= 1_100

    @pytest.mark.parametrize(
        "b, cells, steps",
        [(1.01, 2_000, 100), (1.001, 6_000, None)],
    )
    def test_newton_stage_prunes_the_unit_b_cliff(self, work, b, cells, steps):
        # k = n = 3 with b near 1: q is small along the rays of Re z^3 ~ 0
        # next to a large gradient, where stage 2 keeps cells and their
        # floor runs.  Without stage 3, b = 1.01 took 13 738 cell tests and
        # 2 199 Newton steps, b = 1.001 28 882 cell tests.
        report = find_zeros(HarmonicQuadrinomial(b=b, c=2.0, k=3, n=3, m=1))
        assert report.n_certified == report.count == 5
        assert len(work.cells) <= cells
        assert work.steps > 0
        assert steps is None or work.steps <= steps

    def test_newton_box_screens_the_quarters(self, work):
        # A split cell pushes only the quarters its Newton box meets;
        # pushing all four took 142 cell tests.
        report = find_zeros(HarmonicQuadrinomial(b=2.0, c=3.0, k=4, n=3, m=1))
        assert report.n_certified == report.count == 6
        assert report.winding_check == "passed"
        assert len(work.cells) <= 100

    @pytest.mark.parametrize(
        "p, depth",
        [
            # Singular origin: floor runs end in its uncertified disk.
            (HarmonicQuadrinomial(b=2.0, c=1.0, k=3, n=3, m=1), solver._FLOOR_DEPTH),
            # R near 1e16.
            (HarmonicQuadrinomial(b=1e-16, c=2.0, k=4, n=3, m=1), solver._FLOOR_DEPTH),
            # Zeros at 0 and -1.43e-5 share floor cells: split past the floor.
            (HarmonicQuadrinomial(b=1.4275698133347674e-05, c=-1.0, k=1, n=2, m=1),
             solver._MAX_DEPTH),
        ],
        ids=["singular-origin", "tiny-b", "split-past-floor"],
    )
    def test_tested_cells_are_exact_quarters(self, work, p, depth):
        # The cell test takes its cell as given, with no slack for rounded
        # centres, so every (center, half) the solver tests must be exact:
        # in rational arithmetic, each quarter the walk pushes is a
        # quarter of the cell it popped last, and the two roots tile
        # [-R', R'] x [0, R'].  Every pushed quarter is tested once, and a
        # split cell's other quarters are those its Newton box screens out
        # (`test_screened_quarters_hold_no_zero`).  By induction the tested and screened cells tile their parents
        # exactly, down to the deepest, at the floor or, for the last
        # instance, at _MAX_DEPTH, which sets R''s bits.
        def exact(center, half):
            return Fraction(center.real), Fraction(center.imag), Fraction(half)

        find_zeros(p)
        [(_, events)] = work.walks
        tested, pushed, splits = [], [], {}
        for kind, *args in events:
            if kind == "settle":
                continue
            cell = exact(*args)
            if kind == "pop":
                tested.append(cell)
            else:
                x, y, e = tested[-1]
                four = {
                    (x + sx * e / 2, y + sy * e / 2, e / 2)
                    for sx in (-1, 1) for sy in (-1, 1)
                }
                assert cell in four, (tested[-1], cell)
                pushed.append(cell)
                splits[tested[-1]] = splits.get(tested[-1], 0) + 1
        h = max(half for _, _, half in tested)
        roots = [(-h, h, h), (h, h, h)]
        assert [t for t in tested if t[2] == h] == roots
        assert len(set(tested)) == len(tested)
        assert sorted(tested) == sorted(roots + pushed)
        assert any(n < 4 for n in splits.values())  # some quarter is screened
        assert max(2 * h / half for _, _, half in tested) == 2**depth

    @pytest.mark.parametrize("b, c, k, n, m", STAGE_CASES)
    def test_stage_bounds_cover_the_exact_drops(self, monkeypatch, b, c, k, n, m):
        # The reference cell, which reads q, h' and g' from the solver
        # module as it runs, is fed chosen values v of q at the centre,
        # each a multiple t of a fixed direction; t is the least |v| at
        # which it drops the cell.  (The solver's walk computes q, h' and
        # g' itself; `TestFlatCell` ties it to the reference bit for
        # bit.)  Dropping at t is sound when every q(center)
        # within the rounding bound gamma*M(a) of v rules out a zero in the
        # cell, in rational arithmetic: stage 1 when t - gamma*M(a)
        # exceeds the drop D1 across the cell, stages 2 and 3 when the
        # distance from -v to A(square) less gamma*M(a) exceeds the
        # bracket.  Stage 1 alone (h' and g' infinite, so stages 2 and 3
        # drop nothing) must beat D1.  Stage 3 reads the direction of v, as
        # its Newton update does, so v is fed along several.  Cells of many
        # sizes around certified zeros, and one beside each whose lower edge
        # lies on the real axis, as the quadtree's do; the last case is
        # near-singular (|c| near 1, m = 1).
        p = HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=m)
        zeros = [rec.location for rec in find_zeros(p).zeros if rec.certified]
        assert zeros
        maj = _Majorant(p)
        gamma = Fraction(maj.gamma)
        fed = {"v": 0j, "derivative": None}
        monkeypatch.setattr(solver, "evaluate", lambda p, z: fed["v"])
        for name in ("analytic_derivative", "coanalytic_derivative"):
            real = getattr(solver, name)
            monkeypatch.setattr(
                solver, name,
                lambda p, z, real=real: fed["derivative"] or real(p, z),
            )
        cell = _reference_cell(p, maj)
        directions = [1.0, 1j, -0.6 + 0.8j, 0.28 - 0.96j]  # -v drops as v

        def dropped_at(i, u):  # non-negative floats order as their bit patterns
            t = struct.unpack("<d", struct.pack("<q", i))[0]
            fed["v"] = complex(t * u.real, t * u.imag)
            return not cell(center, half)[0]

        def least_dropped(u):
            lo, hi = 0, struct.unpack("<q", struct.pack("<d", 1e300))[0]
            assert not dropped_at(lo, u) and dropped_at(hi, u)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if dropped_at(mid, u):
                    hi = mid
                else:
                    lo = mid
            dropped_at(hi, u)
            v = fed["v"]
            return Fraction(v.real), Fraction(v.imag)

        for z0 in zeros:
            for center, half in _cells_around(z0):
                m0, d1, bracket, dist2 = _exact_stage_bounds(p, center, half)
                fed["derivative"] = complex(math.inf)
                t1 = least_dropped(1.0)[0]
                assert t1 - gamma * m0 > d1, (z0, center, half)
                fed["derivative"] = None
                for u in directions:
                    v = least_dropped(u)
                    assert (
                        v[0] ** 2 + v[1] ** 2 > (d1 + gamma * m0) ** 2
                        or dist2((-v[0], -v[1])) > (bracket + gamma * m0) ** 2
                    ), (z0, center, half, u)

    @pytest.mark.parametrize("b, c, k, n, m", STAGE_CASES)
    def test_screened_quarters_hold_no_zero(self, b, c, k, n, m):
        # A split cell pushes only the quarters that its Newton box
        # center + d* +- rho meets.  Each quarter a one-cell walk skips,
        # where it splits the cell, must rule out a
        # zero in rational arithmetic: the distance from -q(center) to
        # A(quarter), less the rounding bound gamma*M(a) of q(center),
        # exceeds the bracket.  A zero at the centre lies on a corner of
        # every quarter, so there rho alone keeps its quarters.
        p = HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=m)
        zeros = [rec.location for rec in find_zeros(p).zeros if rec.certified]
        maj = _Majorant(p)
        gamma = Fraction(maj.gamma)
        walk = _kernels(p)[0]
        screened = 0
        for z0 in zeros:
            for center, half in _cells_around(z0):
                v = _jet(p, center)[0]
                events = _walk_cell(walk, center, half)
                w = (-Fraction(v.real), -Fraction(v.imag))
                for part in _screened(center, half, events):
                    m0, _, bracket, dist2 = _exact_stage_bounds(p, center, half, part)
                    assert dist2(w) > (bracket + gamma * m0) ** 2, (center, half, part)
                    screened += 1
        assert screened


_POOLS = {
    "stage": lambda: STAGE_CASES,
    "degenerate": lambda: _workloads().degenerate_pool(),
    "batch": lambda: _workloads().batch_pool(100),
    "batch-720": lambda: _workloads().batch_pool(720),
    "singular-origins": lambda: [(b, c, k, n, 1) for b, c, k, n, _ in SINGULAR_ORIGINS],
    "conj-45": lambda: [(0.0, 0.0, 1, 45, 1)],  # conj(z)^45 + z
}


def _pool(name):
    """The instances of a named pool: STAGE_CASES, perfbench's degenerate
    pool, the first 100 or 720 of its batch pool, the SINGULAR_ORIGINS
    cases, or conj(z)^45 + z, whose converged runs can fail the
    certificate with a positive margin (`_certify`)."""
    return [HarmonicQuadrinomial(*t) for t in _POOLS[name]()]


def _walk_outcomes(events):
    """What a walk did with each cell it popped: "dropped"; "certified",
    a settle call at the Kantorovich iterate; "split", quarters pushed;
    "floor", a floor run from the centre; or "floor-split", a floor run
    that a certified disk dropped, then quarters pushed."""
    outcomes = []
    for e in events:
        if e[0] == "pop":
            center, kinds = e[1], []
            outcomes.append(kinds)
        elif e[0] == "settle":
            kinds.append("floor" if e[1] == center else "certified")
        elif not kinds or kinds[-1] != "split":
            kinds.append("split")
    return {"-".join(kinds) or "dropped" for kinds in outcomes}


class TestFlatCell:
    """The solver's walk runs the cell test inline, with its helpers
    inlined too; it must pop, push and settle bitwise as `_reference_walk`,
    the quadtree loop over their composition, does."""

    @pytest.mark.parametrize(
        "pool, outcomes",
        [
            ("stage", {"dropped", "certified", "split", "floor"}),
            ("degenerate", {"dropped", "certified", "split", "floor", "floor-split"}),
            ("batch", {"dropped", "certified", "split"}),
        ],
        ids=["stage", "degenerate", "batch"],
    )
    def test_every_tested_cell_matches_the_reference(
        self, work, monkeypatch, pool, outcomes
    ):
        # Each instance is solved twice, through the flat walk and then
        # through the reference walk, both with the solver's run.  The two
        # must pop the same cells, push the same quarters and call settle
        # with the same arguments, getting the same answers, in the same
        # order, bit for bit.
        ps = _pool(pool)
        for p in ps:
            find_zeros(p)
        refs = []

        def reference_kernels(p):
            events = []
            refs.append((p, events))
            return _recorded(_reference_walk(p, _Majorant(p)), events), _kernels(p)[1]

        monkeypatch.setattr(solver, "_kernels", reference_kernels)
        for p in ps:
            find_zeros(p)
        assert [p for p, _ in work.walks] == [p for p, _ in refs] == ps
        seen = set()
        for (p, events), (_, ref) in zip(work.walks, refs):
            for i, (e, f) in enumerate(zip(events, ref)):
                assert _bits(e) == _bits(f), (p, i, e, f)
            assert len(events) == len(ref), p
            seen |= _walk_outcomes(events)
        assert seen == outcomes

    @pytest.mark.parametrize("b, c, k, n, m", STAGE_CASES)
    def test_thresholds_match_the_reference(self, work, b, c, k, n, m):
        # The cells find_zeros tests, each walked alone and scaled in two
        # ways: its half-width by 2^-30 to 2^8, its centre fixed, and its
        # centre by 2^-2 to 2^2 in steps of 2^(1/4), its half-width fixed.
        # At every switch of the reference's answer between neighbouring
        # scales the two walks agree bit for bit (`_switches`).  A change
        # of any bound, even by gamma*(M(a + r) - M(a)), moves a switch by
        # many floats, so it shows here where the cells of a real tree may
        # not reach it.  Switches to a drop and to a certificate both occur.
        p = HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=m)
        find_zeros(p)
        flat = partial(_walk_cell, _kernels(p)[0])
        ref = partial(_walk_cell, _reference_walk(p, _Majorant(p)))
        switches = set()
        for center, half in {(center, half) for _, center, half in work.cells}:
            switches |= _switches(
                flat, ref, lambda t: (center, t),
                [math.ldexp(half, j) for j in range(-30, 9)],
            )
            switches |= _switches(
                flat, ref, lambda t: (complex(t * center.real, t * center.imag), half),
                [2.0 ** (j / 4) for j in range(-8, 9)],
            )
        assert [s for s in switches if 2 in s] and [s for s in switches if 0 in s]

    def test_stage_one_threshold_matches_the_reference(self):
        # Stage 1 decides a drop only where stages 2 and 3 cannot: the
        # corner gain G reaches sqrt(2)*M'(a) and the margin is not
        # positive.  On real cells stage 3 or stage 2 drops first almost
        # everywhere, so this takes a centre where both conditions hold:
        # CUBIC at (1 + i)/sqrt(6), on its diagonal and its critical circle
        # (h' = 1, g' = 3z^2 = i).  There the switch from a drop to a split
        # as the half-width grows is stage 1's, and both walks agree at it.
        maj = _Majorant(CUBIC)
        x = 1.0 / math.sqrt(6.0)
        center = complex(x, x)
        _, fz, gz = _jet(CUBIC, center)
        assert not maj.margin(center, fz, gz) > 0
        flat = partial(_walk_cell, _kernels(CUBIC)[0])
        ref = partial(_walk_cell, _reference_walk(CUBIC, maj))
        found = _switches(flat, ref, lambda t: (center, t), [1e-6, 1.0])
        assert found == {(2, 1)}


def _outcome(result):
    """A run's (hit, entry, steps) by kind: dropped by a certified or a
    singular disk, or adding a certified or a singular zero, or neither."""
    hit, entry, _ = result
    zero = hit or entry
    if zero is None:
        return "none"
    kind = "singular" if zero[3] is OrientationClass.SINGULAR else "certified"
    return f"{'dropped' if hit else 'adds'}-{kind}"


EVERY_OUTCOME = {
    "dropped-certified", "dropped-singular", "adds-certified", "adds-singular", "none",
}


class TestFlatRun:
    """The solver's Newton run inlines `newton_step` and the certificate;
    it must answer bitwise as `_reference_run`, their composition, does."""

    @pytest.mark.parametrize(
        "pool, outcomes",
        [
            ("batch-720", {"dropped-certified", "adds-certified"}),
            ("degenerate", EVERY_OUTCOME),
            ("singular-origins", EVERY_OUTCOME),
            ("conj-45", EVERY_OUTCOME - {"none"}),
        ],
    )
    def test_every_run_matches_the_reference(self, work, pool, outcomes):
        # Through the factory seam: each run find_zeros makes is also put
        # to the reference, from the same point and last step against the
        # same found zeros, and the two (hit, entry, steps) must agree bit
        # for bit: the entry's centre, radius, location and orientation,
        # and the number of Newton steps tried.
        for p in _pool(pool):
            find_zeros(p)
        seen, refs = set(), {}
        for p, z, step, found, out in work.runs:
            if p not in refs:
                refs[p] = _reference_run(p, _Majorant(p))
            assert _bits(out) == _bits(refs[p](z, step, list(found))), (p, z, step)
            seen.add(_outcome(out))
        assert seen == outcomes

    @pytest.mark.parametrize("pool", ["stage", "singular-origins", "conj-45"])
    def test_thresholds_match_the_reference(self, pool):
        # Runs near each zero find_zeros reports, z0 with s0 = max(1, |z0|),
        # along four directions u, against no found zero.  From
        # z0 + t*s0*u with a last step of 0 a run takes no step and tests
        # the certificate at its start: t runs over 2^-60 to 2^-1.  From
        # z0 + 2^-20*s0*u with a last step of t*s0 it meets the rounding
        # floor and the longer-step stop: t runs over 2^-60 to 1.  From
        # conj(w) + t*s0*u, against the one zero (w, r, ...) that the first
        # kind of run finds at z0, it is dropped by w's mirror image up to
        # about t = r/s0.  At every switch of the reference's outcome and
        # step count between neighbouring scales the two runs agree bit for
        # bit (`_switches`).  Real runs end where the certificate passes by
        # far; a change of its bounds moves these switches.
        switches = set()
        for p in _pool(pool):
            maj = _Majorant(p)
            flat, ref = _kernels(p)[1], _reference_run(p, maj)
            for rec in find_zeros(p).zeros:
                z0, s0 = rec.location, max(1.0, abs(rec.location))
                for u in (1.0, 1j, -0.6 + 0.8j, 0.28 - 0.96j):
                    switches |= _switches(
                        flat, ref, lambda t: (z0 + t * s0 * u, 0.0, []),
                        [2.0**j for j in range(-60, 0)], _outcome,
                    )
                    z = z0 + 2.0**-20 * s0 * u
                    switches |= _switches(
                        flat, ref, lambda t: (z, t * s0, []),
                        [2.0**j for j in range(-60, 1)],
                        lambda out: (_outcome(out), out[2]),
                    )
                    entry = ref(z0, 0.0, [])[1]
                    if entry:
                        switches |= _switches(
                            flat, ref,
                            lambda t: (entry[0].conjugate() + t * s0 * u, 0.0, [entry]),
                            [2.0**j for j in range(-60, 0)], _outcome,
                        )
        assert {("adds-certified", "none"), ("adds-singular", "none")} <= switches
        assert any(a in ("dropped-certified", "dropped-singular") for a, _ in switches)
        assert any(isinstance(a, tuple) and a[1] != b[1] for a, b in switches)

    @pytest.mark.parametrize(
        "pool, cells, steps",
        [("batch-720", 109_865, 12_055), ("degenerate", 9_361, 1_428)],
        ids=["batch-720", "degenerate"],
    )
    def test_pool_work_is_pinned(self, work, pool, cells, steps):
        # Cell tests and Newton steps tried on perfbench's first 720 batch
        # instances and its degenerate pool, as tools/answers.py lists
        # them: a change that keeps the answers but does more or less work
        # shows here.
        for p in _pool(pool):
            find_zeros(p)
        assert (len(work.cells), work.steps) == (cells, steps)


class TestMirror:
    # solver._mirror on found zeros (centre w, radius r, location z1,
    # orientation o): synthetic ones of CUBIC, whose zeros are 0 and
    # exp(i*pi/4)*i^j, and disks that `_certify` builds.
    PLUS = OrientationClass.SENSE_PRESERVING
    MINUS = OrientationClass.SENSE_REVERSING
    SINGULAR = OrientationClass.SINGULAR

    def mirror(self, w, r, z1, o):
        return solver._mirror(w, r, z1, o)

    def test_disk_near_the_axis_holds_a_real_zero(self):
        # |Im w| < 0.9r: the zero's mirror is another zero near the disk,
        # which the certificate rules out, so the zero is real; counted
        # once, on the axis.
        z1 = complex(1e-17, 3e-18)
        got = self.mirror(0.04e-2j, 1e-2, z1, self.PLUS)
        assert got == [(complex(1e-17, 0.0), self.PLUS)]

    def test_disk_far_from_the_axis_holds_a_pair(self):
        # |Im w| >= 0.9r: the zero is not real, and its mirror is another.
        z1 = cmath.exp(1j * math.pi / 4)
        got = self.mirror(z1 + 1e-9, 1e-2, z1, self.MINUS)
        assert got == [(z1, self.MINUS), (z1.conjugate(), self.MINUS)]
        w = complex(0.2, 0.9 * 1e-2)  # the band's edge
        assert len(self.mirror(w, 1e-2, w, self.MINUS)) == 2

    def test_undecided_disk_proven_real_by_a_wider_test(self):
        # 0.05r < |Im w| < 0.9r, for disks that `_certify` builds at
        # w = i*t*r0 above the real zero 0, r0 its radius at 0.  Its zeta
        # lies within 0.9r of w, so conj zeta, also a zero, lies within
        # 0.9r + 2|Im w| < 2.7r.  r <= min(s/3, sigma/(4L)) keeps the
        # Jacobian within 2.7rL <= 0.675sigma of its value at w, whose least
        # singular value is at least sigma, on D(w, 2.7r): the mean Jacobian
        # on the segment from zeta to conj zeta is invertible, so
        # conj zeta = zeta, real, reported once.
        got = self.mirror(0.3e-2j, 1e-2, complex(0.0, 1e-18), self.PLUS)
        assert got == [(0j, self.PLUS)]
        p = HarmonicQuadrinomial(b=2.0, c=0.5, k=6, n=5, m=1)
        maj = _Majorant(p)
        r0, _ = _certify(maj, 0j, *_jet(p, 0j))
        for t in (0.1, 0.5, 0.89):
            w = complex(0.0, t * r0)
            v, fz, gz = _jet(p, w)
            r, z1 = _certify(maj, w, v, fz, gz)
            assert z1 is not None and 0.05 * r < w.imag < 0.9 * r
            assert abs(z1) < 1e-12  # near the real zero 0
            o = maj.orientation(w, fz, gz)
            assert self.mirror(w, r, z1, o) == [(complex(z1.real, 0.0), o)]

    def test_singular_zero_is_its_own_mirror_within_its_disk(self):
        rho = 1e-7
        z = complex(1.0, 0.5e-7)
        assert self.mirror(z, rho, z, self.SINGULAR) == [(1 + 0j, self.SINGULAR)]
        z = complex(1.0, 1e-7)
        assert self.mirror(z, rho, z, self.SINGULAR) == [
            (z, self.SINGULAR), (z.conjugate(), self.SINGULAR)
        ]


class TestCertification:
    def test_zero_on_shared_cell_edge_reported_once(self):
        # The real axis is a cell edge at every depth; this zero sits on it
        # and is found from the cells on both sides.
        p = HarmonicQuadrinomial(
            b=-3.6336954423642998, c=1.0581275863701707, k=5, n=3, m=2
        )
        report = find_zeros(p)
        near = [rec for rec in report.zeros if abs(rec.location + 0.671881) < 1e-5]
        assert len(near) == 1
        assert near[0].certified
        assert report.count == 5
        assert report.winding_check == "passed"

    @pytest.mark.parametrize(
        "p",
        [CUBIC, HarmonicQuadrinomial(b=2.0, c=3.0, k=4, n=3, m=1)],
        ids=["cubic", "b2-c3-k4-n3-m1"],
    )
    def test_regular_zeros_are_certified(self, p):
        report = find_zeros(p)
        assert all(rec.certified for rec in report.zeros)
        assert report.n_certified == report.count

    def test_singular_origin_not_certified(self):
        p = HarmonicQuadrinomial(b=0.0, c=1.0, k=1, n=3, m=1)
        report = find_zeros(p)
        origin = min(report.zeros, key=lambda rec: abs(rec.location))
        assert origin.location == 0j
        assert not origin.certified
        assert report.n_certified < report.count

    def test_no_certificate_radius_where_the_orientation_is_unproven(self):
        # CUBIC's Jacobian 1 - 9|z|^4 vanishes on |z| = 1/sqrt(3).  Just
        # past it the computed ||h'| - |g'|| is 2.2e-16, but the margin,
        # lowered by the rounding bound of h' and g', is -4.2e-15: the
        # radius reads the margin, so it is not positive where
        # classify_point calls the point singular.
        z = complex(math.nextafter(math.sqrt(1 / 3), 1.0), 0.0)
        v, fz, gz = _jet(CUBIC, z)
        assert abs(abs(fz) - abs(gz)) > 0
        assert classify_point(CUBIC, z) is OrientationClass.SINGULAR
        r, _ = _certify(_Majorant(CUBIC), z, v, fz, gz)
        assert r <= 0

    def test_near_unit_b_cliff(self):
        # k = n with |b| -> 1: the disk radius is 17.32 here.
        p = HarmonicQuadrinomial(b=1.01, c=2.0, k=3, n=3, m=1)
        report = find_zeros(p)
        assert report.count == 5
        assert report.winding_check == "passed"

    @pytest.mark.parametrize(
        "p, count",
        [
            (HarmonicQuadrinomial(b=1.05, c=2.0, k=3, n=3, m=1), 5),
            (HarmonicQuadrinomial(b=1.05, c=1.5, k=4, n=4, m=1), 6),
            (HarmonicQuadrinomial(b=1.01, c=2.0, k=3, n=3, m=1), 5),
            (HarmonicQuadrinomial(b=1.001, c=2.0, k=3, n=3, m=1), 5),
        ],
        ids=["b1.05-c2-k3", "b1.05-c1.5-k4", "b1.01-c2-k3", "b1.001-c2-k3"],
    )
    def test_cliff_zeros_certified(self, p, count):
        # k = n with |b| near 1: the zeros certify only in disks smaller
        # than a floor cell (R = 7.75, 3.68, 17.3 and 54.8 here), so the
        # test has to be centred at each zero, not at a cell.
        report = find_zeros(p)
        assert report.count == count
        assert report.n_certified == count
        assert report.winding_check == "passed"

    @pytest.mark.parametrize(
        "p, count",
        [
            (HarmonicQuadrinomial(b=2.6, c=-0.99935, k=4, n=2, m=1), 6),
            (HarmonicQuadrinomial(b=4.8, c=-1.0006, k=5, n=2, m=1), 7),
            (HarmonicQuadrinomial(b=-3.084, c=-0.99324, k=6, n=4, m=1), 10),
            (HarmonicQuadrinomial(
                b=-4.077946842625792, c=0.9999943886934131, k=3, n=3, m=1), 3),
            (HarmonicQuadrinomial(
                b=3.695214146417557, c=-1.0000278613634654, k=5, n=3, m=1), 7),
            (HarmonicQuadrinomial(
                b=4.792960812136874, c=0.9998777716731656, k=8, n=3, m=1), 8),
            (HarmonicQuadrinomial(b=1.4275698133347674e-05, c=-1.0, k=1, n=2, m=1), 4),
            (HarmonicQuadrinomial(b=8.065959996400468e-05, c=-1.0, k=1, n=5, m=1), 7),
            (HarmonicQuadrinomial(
                b=-2.9705760447161733, c=-1.0000132504428423, k=2, n=2, m=1), 4),
        ],
        ids=[
            "b2.6-c-0.99935", "b4.8-c-1.0006", "b-3.084-c-0.99324",
            "b-4.078-c0.999994", "b3.695-c-1.000028", "b4.793-c0.999878",
            "b1.4e-5-c-1-k1-n2", "b8.1e-5-c-1-k1-n5", "b-2.971-c-1.0000133-k2",
        ],
    )
    def test_near_singular_close_zeros_certified_once(self, p, count):
        # |c| near 1 with m = 1: zeros close to the origin and to each
        # other, where Newton runs from many floor cells end up to 1e-6
        # apart; each zero is certified once, by its own disk.  Near such
        # a zero |q| <= 1e-10 holds on a set wider than its certified
        # disk (7.7e-6 against 4.2e-7 at the origin of the last case), so
        # a run that stopped there could be reported as a second zero:
        # the counts are the dense-grid oracle's.
        report = find_zeros(p)
        assert report.count == count
        assert report.n_certified == count
        assert report.winding_check == "passed"

    def test_newton_work_near_close_pair(self, work):
        # Floor cells around a close pair of zeros each make a Newton run;
        # undamped, each run takes a few steps, not up to the step cap.
        p = HarmonicQuadrinomial(b=4.768, c=-1.00146, k=4, n=3, m=1)
        report = find_zeros(p)
        assert report.n_certified == report.count == 8
        assert 0 < work.steps <= 12_000

    def test_tiny_b_keeps_far_zeros(self):
        # R = 1/b: near |z| = R rounding keeps |q| near 1e-4 (b = 1e-4) or
        # 4e14 (b = 1e-10), far above 1e-10, for all 7 far zeros.  At
        # b = 1e-10 the first Newton step from a far certified cell
        # lands 1.1 beyond R, so a run must not stop at the disk's edge.
        for b in (1e-4, 1e-10):
            p = HarmonicQuadrinomial(b=b, c=2.0, k=4, n=3, m=1)
            report = find_zeros(p)
            assert report.count == 10
            assert report.n_certified == 10
            assert report.winding_check == "passed"
            far = sum(1 for rec in report.zeros if abs(rec.location) > 0.1 / b)
            assert far == 7

    def test_ledger_flags_lost_zeros_at_tinier_b(self):
        # R = 1e10: zeros lie within 1e-16 (relative) of C(0, R+1), where
        # a sampled winding meets q = 0 and gives up.  The dominant index
        # needs no sampling, so a run that lost far zeros would be flagged
        # by the check instead of left inconclusive; with every zero found
        # and certified it passes.
        p = HarmonicQuadrinomial(b=1e-10, c=2.0, k=4, n=3, m=1)
        report = find_zeros(p)
        assert report.disk.winding == 4
        assert report.winding_check != "inconclusive"
        p = HarmonicQuadrinomial(b=1e-10, c=0.5, k=6, n=5, m=2)
        report = find_zeros(p)
        assert report.disk.winding == 6
        assert report.count == report.n_certified == 18
        assert report.winding_check == "passed"

    @pytest.mark.parametrize(
        "b, c, k, n, m, count, certified",
        [(b, 2.0, 4, 3, 1, 10, 8) for b in (1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16)]
        + [(b, 0.5, 6, 5, 2, 12, 12) for b in (1e-14, 1e-15, 1e-16)]
        + [(b, -3.0, 5, 2, 1, 10, 8) for b in (1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15)],
    )
    def test_tiny_b_zeros_settle_at_their_own_scale(
        self, b, c, k, n, m, count, certified
    ):
        # R = 1/|b|, up to 1e16.  An uncertified zero's disk and the keep
        # gate read |z|, not R: a disk of radius 1e-7*R at the origin would
        # swallow the zeros near it, and a far zero's |q| lies far above any
        # absolute gate.  Not all zeros are found yet: 2,4,3,1 has all 10
        # with its near-singular pair near +-i uncertified, but 0.5,6,5,2
        # loses the 6 of its 18 zeros near the origin, which lie inside
        # floor cells of width R/4096, and -3,5,2,1 one of its 11.
        p = HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=m)
        report = find_zeros(p)
        assert report.count == count
        assert report.n_certified == certified
        assert not any(0 < abs(rec.location) < 1e-3 for rec in report.zeros)

    @pytest.mark.parametrize("b, c, k, n, count", SINGULAR_ORIGINS)
    def test_singular_origin_reported_once(self, b, c, k, n, count):
        # |c| = 1 with m = 1: the origin is a singular zero, where Newton
        # converges only linearly and |q| <= 1e-10 holds up to 3e-4 away,
        # so a run that stopped at that tolerance would report another
        # piece of it; at k = n >= 4 runs stall on a plateau of such
        # points.  The counts are the certified zeros plus the origin,
        # which is the dense-grid oracle's count for the first six.
        p = HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=1)
        report = find_zeros(p)
        assert report.count == count
        assert report.n_certified == count - 1
        loose = [rec for rec in report.zeros if not rec.certified]
        assert len(loose) == 1
        assert abs(loose[0].location) <= 1e-7 * max(1.0, report.disk.radius)


parts = st.floats(min_value=-1e3, max_value=1e3)
unit_offset = st.floats(min_value=-1.0, max_value=1.0)


@given(parts, parts, parts, parts, unit_offset, unit_offset)
def test_corner_gain_is_the_largest_linear_term_on_the_square(
    hx, hy, gx, gy, dx, dy
):
    # In rational arithmetic: |A(d)|^2 for A(d) = h'd + conj(g'd) at the
    # corners 1 +- i and at a d in the square |Re d|, |Im d| <= 1.  The
    # computed gain is the larger corner value and bounds the rest, within
    # its rounding (a few u, against 2^-48, about 32u, and the underflow
    # of squares below 2^-1022), and never exceeds the disk's
    # (|h'| + |g'|)*sqrt(2).
    hx, hy, gx, gy = map(Fraction, (hx, hy, gx, gy))

    def a_squared(x, y):
        re = hx * x - hy * y + gx * x - gy * y
        im = hx * y + hy * x - gx * y - gy * x
        return re * re + im * im

    gain = Fraction(_corner_gain(complex(hx, hy), complex(gx, gy))) ** 2
    tol, tiny = Fraction(1, 2**48), Fraction(1, 2**1000)
    exact = max(a_squared(1, 1), a_squared(1, -1))
    assert abs(gain - exact) <= tol * exact + tiny
    assert a_squared(Fraction(dx), Fraction(dy)) <= (1 + tol) * gain + tiny
    disk = abs(complex(hx, hy)) + abs(complex(gx, gy))
    assert gain <= (1 + tol) * 2 * Fraction(disk) ** 2 + tiny


@given(instances())
@settings(max_examples=60, deadline=None)
def test_certified_disks_hold_one_reported_zero(p):
    report = find_zeros(p)
    maj = _Majorant(p)
    for rec in report.zeros:
        assert rec.certified == (rec.orientation is not OrientationClass.SINGULAR)
        if not rec.certified:
            continue
        preserving = rec.orientation is OrientationClass.SENSE_PRESERVING
        assert rec.jacobian > 0 if preserving else rec.jacobian < 0
        assert classify_point(p, rec.location) is rec.orientation
        r, z1 = _certify(maj, rec.location, *_jet(p, rec.location))
        assert z1 is not None
        others = [o for o in report.zeros if o is not rec]
        assert all(abs(o.location - rec.location) >= r for o in others)
    if report.bound is not None and report.bound.upper_is_proven:
        assert report.n_certified <= report.bound.upper
    if report.winding_check == "passed":
        assert report.n_certified == report.count


offsets = st.lists(st.tuples(unit_offset, unit_offset), min_size=1, max_size=4)


@given(instances(), offsets)
@settings(max_examples=40, deadline=None)
def test_cells_holding_a_certified_zero_are_kept(p, offsets):
    # The certificate at a reported zero z0 (kappa <= 1/4) puts the zero
    # within eta/(1 - kappa) of z0, eta the exact Newton step: at most the
    # computed |z1 - z0| plus the rounding of q(z0) over sigma.  e doubles
    # that.  Every cell that holds D(z0, e), checked in exact arithmetic,
    # must survive both exclusion stages; cell sizes are taken relative to
    # the zero's scale max(1, |z0|), which reaches 1e16 at tiny |b|.
    report = find_zeros(p)
    maj = _Majorant(p)
    walk = _kernels(p)[0]
    tested = 0
    for rec in report.zeros:
        if not rec.certified:
            continue
        z0 = rec.location
        v, fz, gz = _jet(p, z0)
        r, z1 = _certify(maj, z0, v, fz, gz)
        assert z1 is not None
        sigma = maj.margin(z0, fz, gz)
        e = 2.0 * (abs(z1 - z0) + maj.gamma * maj.value(abs(z0)) / sigma)
        assert e < r
        for decade in range(-16, 0):
            half = 10.0**decade * max(1.0, abs(z0))
            for ox, oy in offsets:
                center = z0 + complex(ox, oy) * (half - e)
                reach = Fraction(e) - Fraction(half)
                if (
                    abs(Fraction(center.real) - Fraction(z0.real)) + reach > 0
                    or abs(Fraction(center.imag) - Fraction(z0.imag)) + reach > 0
                ):
                    continue  # the cell does not hold D(z0, e)
                tested += 1
                kept = _walk_stage(_walk_cell(walk, center, half)) != 2
                assert kept, (z0, center, half)
    if report.n_certified:
        assert tested > 0
