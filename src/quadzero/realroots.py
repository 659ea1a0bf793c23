"""Real-coefficient polynomial utilities for the radius equations.

Only what the zero-inclusion radii need: Descartes sign counting, synthetic
deflation by (x - 1), and one search, `first_true`, for the float where a
test on the positive reals switches from false to true.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NoSignChange, NonConvergence, NotARootAtOne, ZeroPolynomial


class RealPoly(NamedTuple("RealPoly", [("coeffs", tuple[float, ...])])):
    """Dense real polynomial, coefficients in ascending degree order."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[float, ...]):
        if not coeffs:
            raise ZeroPolynomial("empty coefficient list")
        for a in coeffs:
            if not math.isfinite(a):
                raise ValueError("coefficients must be finite")
        if coeffs[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero (trim first)")
        return super().__new__(cls, coeffs)

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
    # Synthetic division on descending coefficients.  Its remainder,
    # desc[-1] + quot[-1], adds the same floats in the same order as the
    # Horner value p(1.0), so the test above bounds it.
    desc = list(reversed(p.coeffs))
    quot = [desc[0]]
    for a in desc[1:-1]:
        quot.append(a + quot[-1])
    return RealPoly.from_coeffs(list(reversed(quot)))


def first_true(pred, lo: float) -> float:
    """The float x >= lo where pred switches from false to true.

    pred must be false on [lo, x) and true from x on, up to rounding
    where it switches.  Steps out from lo by doubling to bracket the
    switch, then bisects until no float lies between the two ends, and
    returns the end where pred is true (lo itself if pred(lo)).  Raises
    NonConvergence only if doubling reaches inf.  lo must be >= 0.
    """
    if pred(lo):
        return lo
    hi = max(1.0, 2.0 * lo)
    while not pred(hi):
        lo, hi = hi, 2.0 * hi
        if math.isinf(hi):
            raise NonConvergence("no switch below the largest float")
    while True:
        mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            return hi
        if pred(mid):
            hi = mid
        else:
            lo = mid


def positive_root_bracketed(p: RealPoly) -> float:
    """The unique positive root of a polynomial with one Descartes sign change.

    One sign change puts the lowest nonzero coefficient's sign opposite
    the leading one's, so p(x)*lead <= 0 on [0, root] and > 0 beyond it.
    The answer is the float where p(x), as evaluated, takes the sign of
    its leading coefficient; the float below it does not.
    """
    if sign_changes(p) != 1:
        raise NoSignChange(
            f"expected exactly one sign change, got {sign_changes(p)}"
        )
    sign = math.copysign(1.0, p.coeffs[-1])
    return first_true(lambda x: p(x) * sign > 0.0, 0.0)
