"""Winding number of q along closed contours, proven piece by piece.

A contour is a closed curve point(t), 0 <= t <= 1, traced counterclockwise
at the constant speed `length`: every exact point of the piece [ta, tb]
lies within length*(tb - ta) of the exact point(ta).  The computed
point(t) is within 6u*length + u*|point(t)| of the exact one, u the unit
roundoff.

`winding_number` splits [0, 1] into eighths and tests each piece with
stage 1 of the solver's cell test, on `model`'s majorant M and rounding
factor gamma.  For the piece from the computed point za, with a = |za|,
s = length*(tb - ta) + gamma*(length + a) and m0, m1 = M(a), M(a + s):
gamma >= 16u (n >= 2) and tb - ta <= 1/8, so the disk D(za, s) holds the
exact piece and the computed end point zb, rounding included.  If the
computed |q(za)| minus gamma*m0 exceeds m1 - m0 + gamma*(m1 + m0), q maps
that disk into a disk around q(za) that excludes 0: the piece passes and
adds the principal argument of q(zb)/q(za), both computed, to the total.
A piece that fails is bisected.  When no float lies strictly between its
ends, q cannot be told from 0 on or next to the contour: ZeroOnContour.
Past `_SAMPLE_CAP` evaluations of q: SampleCapExceeded.

Why the total is exact:
- each piece's disk holds its exact piece, both its ends and no zero, so
  the exact contour and the polygon through the computed samples wind
  alike around 0 under q;
- the exact increment of arg q along a passing piece is below pi/2 in
  size, as q stays in a disk around q(za) that excludes 0;
- every sample starts a passing piece, whose test makes the computed
  |q(za)| exceed 3*gamma*M(a), three times its error; so the angle error
  of every computed value is below arcsin(1/3) < pi/6;
- so each computed quotient's angle is the exact increment plus two such
  errors, below 5*pi/6 in size, and no principal value wraps past pi;
- round the closed contour each sample's error enters once with each
  sign and cancels: the total is 2*pi times the winding number up to the
  float error of the sum, far below pi.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Union

from .errors import SampleCapExceeded, ZeroOnContour
from .model import HarmonicQuadrinomial, _Majorant, evaluate

_SAMPLE_CAP = 2**20


class Circle(NamedTuple("Circle", [("center", complex), ("radius", float)])):
    __slots__ = ()

    def __new__(cls, center: complex, radius: float):
        self = super().__new__(cls, center, radius)
        if not self.radius > 0:
            raise ValueError("circle radius must be positive")
        if not (cmath.isfinite(self.center) and math.isfinite(self.length)):
            raise ValueError("circle center and circumference must be finite")
        return self

    @property
    def length(self) -> float:
        return 2.0 * math.pi * self.radius

    def point(self, t: float) -> complex:
        return self.center + self.radius * cmath.exp(2j * math.pi * t)


class Rectangle(NamedTuple("Rectangle", [("lo", complex), ("hi", complex)])):
    """Axis-aligned rectangle with corners lo (bottom-left), hi (top-right)."""

    __slots__ = ()

    def __new__(cls, lo: complex, hi: complex):
        self = super().__new__(cls, lo, hi)
        if not (self.hi.real > self.lo.real and self.hi.imag > self.lo.imag):
            raise ValueError("rectangle must be nondegenerate with lo < hi")
        if not math.isfinite(self.length):
            raise ValueError("rectangle corners and perimeter must be finite")
        return self

    @property
    def length(self) -> float:
        return 2.0 * ((self.hi.real - self.lo.real) + (self.hi.imag - self.lo.imag))

    def point(self, t: float) -> complex:
        w = self.hi.real - self.lo.real
        h = self.hi.imag - self.lo.imag
        s = (t % 1.0) * self.length
        if s < w:
            return complex(self.lo.real + s, self.lo.imag)
        s -= w
        if s < h:
            return complex(self.hi.real, self.lo.imag + s)
        s -= h
        if s < w:
            return complex(self.hi.real - s, self.hi.imag)
        s -= w
        return complex(self.lo.real, self.hi.imag - s)


Contour = Union[Circle, Rectangle]


class WindingReport(NamedTuple):
    winding: int
    min_modulus: float
    samples_used: int
    refined: bool  # some eighth of the contour was bisected


def winding_number(p: HarmonicQuadrinomial, contour: Contour) -> WindingReport:
    """Winding number of q along the contour, counterclockwise, proven as
    the module docstring sets out.

    Raises ZeroOnContour where a piece fails down to adjacent floats,
    SampleCapExceeded past `_SAMPLE_CAP` evaluations of q, and
    OverflowError where q or M overflows.
    """
    maj = _Majorant(p)
    value, gamma = maj.value, maj.gamma
    length = contour.length
    zs = [contour.point(j / 8) for j in range(8)]
    vs = [evaluate(p, z) for z in zs]
    samples = len(vs)
    min_mod = min(abs(v) for v in vs)
    # Depth-first, leftmost piece first; the last piece ends at the first
    # sample, so every sample starts a piece.
    stack = [(j / 8, zs[j], vs[j], (j + 1) / 8, vs[(j + 1) % 8]) for j in range(8)]
    stack.reverse()
    total = 0.0
    while stack:
        ta, za, va, tb, vb = stack.pop()
        a = abs(za)
        m0 = value(a)
        m1 = value(a + (tb - ta) * length + gamma * (length + a))
        if abs(va) - gamma * m0 > m1 - m0 + gamma * (m1 + m0):
            total += cmath.phase(vb / va)
            continue
        if not math.isfinite(m1):
            raise OverflowError(f"the majorant of q overflows near z = {za!r}")
        tm = 0.5 * (ta + tb)
        if not ta < tm < tb:
            raise ZeroOnContour(
                f"q cannot be told from 0 on the contour near z = {za!r}"
            )
        if samples >= _SAMPLE_CAP:
            raise SampleCapExceeded(
                f"adaptive refinement exceeded {_SAMPLE_CAP} samples"
            )
        zm = contour.point(tm)
        vm = evaluate(p, zm)
        samples += 1
        min_mod = min(min_mod, abs(vm))
        stack.append((tm, zm, vm, tb, vb))
        stack.append((ta, za, va, tm, vm))
    return WindingReport(round(total / (2.0 * math.pi)), min_mod, samples, samples > 8)
