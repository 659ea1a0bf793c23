"""Real-coefficient polynomial utilities for the radius equations.

Only what the zero-inclusion radii need: Descartes sign counting, synthetic
deflation by (x - 1), and bracketed isolation of a unique positive root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoSignChange, NonConvergence, NotARootAtOne, ZeroPolynomial

_MAX_ITER = 500


@dataclass(frozen=True)
class RealPoly:
    """Dense real polynomial, coefficients in ascending degree order."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ZeroPolynomial("empty coefficient list")
        for a in self.coeffs:
            if not math.isfinite(a):
                raise ValueError("coefficients must be finite")
        if self.coeffs[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero (trim first)")

    @classmethod
    def from_coeffs(cls, coeffs) -> "RealPoly":
        """Build from an ascending coefficient sequence, trimming trailing zeros."""
        cs = list(coeffs)
        while cs and cs[-1] == 0.0:
            cs.pop()
        if not cs:
            raise ZeroPolynomial("the zero polynomial has no well-defined degree")
        return cls(tuple(float(a) for a in cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: float) -> float:
        acc = 0.0
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    def derivative(self) -> "RealPoly":
        if self.degree == 0:
            raise ZeroPolynomial("derivative of a constant is the zero polynomial")
        return RealPoly(tuple(i * a for i, a in enumerate(self.coeffs) if i > 0))


@dataclass(frozen=True)
class PositiveRoot:
    value: float
    residual: float
    iterations: int


def sign_changes(p: RealPoly) -> int:
    """Number of sign alternations in the coefficient sequence, zeros skipped."""
    count = 0
    prev = 0
    for a in p.coeffs:
        if a == 0.0:
            continue
        s = 1 if a > 0 else -1
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def deflate_at_one(p: RealPoly) -> RealPoly:
    """Quotient of p by (x - 1); p must vanish at 1 to near machine precision."""
    scale = sum(abs(a) for a in p.coeffs)
    if abs(p(1.0)) >= 1e-12 * scale:
        raise NotARootAtOne(f"p(1) = {p(1.0):.3e} is not a root within tolerance")
    # Synthetic division on descending coefficients.
    desc = list(reversed(p.coeffs))
    quot = [desc[0]]
    for a in desc[1:-1]:
        quot.append(a + quot[-1])
    remainder = desc[-1] + quot[-1]
    if abs(remainder) >= 1e-12 * scale:
        raise NotARootAtOne(f"deflation remainder {remainder:.3e} too large")
    return RealPoly.from_coeffs(list(reversed(quot)))


def positive_root_bracketed(p: RealPoly) -> PositiveRoot:
    """The unique positive root of a polynomial with one Descartes sign change.

    Bracket expansion, bisection to width 1e-3, then Newton polish.  One
    sign change guarantees p(0+) and p(+inf) have opposite signs, so the
    bracket always exists.
    """
    if sign_changes(p) != 1:
        raise NoSignChange(
            f"expected exactly one sign change, got {sign_changes(p)}"
        )
    iterations = 0

    # Strip a factor x^t so the constant term is nonzero; positive roots
    # are unchanged.
    coeffs = list(p.coeffs)
    t = 0
    while coeffs[0] == 0.0:
        coeffs.pop(0)
        t += 1
    q = RealPoly(tuple(coeffs))

    lead_sign = 1 if q.coeffs[-1] > 0 else -1
    lo, f_lo = 0.0, q.coeffs[0]
    hi = 1.0
    while True:
        f_hi = q(hi)
        if f_hi == 0.0:
            return PositiveRoot(hi, 0.0, iterations)
        if (f_hi > 0) == (lead_sign > 0):
            break
        lo, f_lo = hi, f_hi
        hi *= 2.0
        iterations += 1
        if iterations > _MAX_ITER:
            raise NonConvergence("bracket expansion exceeded iteration cap")

    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: the bracket cannot shrink
            break
        f_mid = q(mid)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        iterations += 1
        if iterations > _MAX_ITER:
            raise NonConvergence("bisection exceeded iteration cap")

    x = 0.5 * (lo + hi)
    dq = q.derivative()
    # The residual is judged against sum |a_i| x^i, the size of q's terms
    # at x.  One sign change makes the root well conditioned (x q'(x) is
    # at least half that size there), so the root is relatively accurate.
    size = RealPoly(tuple(abs(a) for a in q.coeffs))

    while True:
        fx = q(x)
        if abs(fx) <= 1e-13 * size(x):
            break
        dfx = dq(x)
        if dfx == 0.0:
            raise NonConvergence("Newton polish hit a stationary point")
        step = fx / dfx
        x_new = x - step
        if not (lo - 1e-3 <= x_new <= hi + 1e-3) or not math.isfinite(x_new):
            x_new = 0.5 * (lo + hi)  # fall back inside the bracket
            if q(x_new) * f_lo > 0:
                lo = x_new
            else:
                hi = x_new
        x = x_new
        iterations += 1
        if iterations > _MAX_ITER:
            raise NonConvergence("Newton polish exceeded iteration cap")

    return PositiveRoot(x, abs(p(x)), iterations)
