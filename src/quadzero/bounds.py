"""Zero-inclusion disks and zero-count bounds for the quadrinomial family.

One route gives the disk for every instance: the triangle inequality
leaves a minorant with one sign change, and the disk's radius is the
least float >= 1 at which that minorant is provably positive under
rounding.  k = n with |b| = 1 has none (unavailable).
Where b, c != 0 and k > n the paper's radius equation |b|x^(k+1) -
(|b|+C)x^k + C = 0, C = |c| (or 1 when |c| <= 1), is (x - 1) times
|b|x^k - C(1 + x + ... + x^(k-1)); delta, `radius_delta`, is that exact
quotient's one positive root, and for k >= 4 the minorant's root is never
larger.  The disk does not need delta, and `radius_bound` does not
solve for it.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple, Optional

from .errors import HypothesisViolation
from .model import _UNIT_ROUNDOFF, HarmonicQuadrinomial
from .realroots import RealPoly, first_true, positive_root_bracketed


class BoundSource(enum.Enum):
    THM31 = "Thm31"
    THM32 = "Thm32"
    # No theorem delta; the disk comes from the minorant, as on every route.
    FALLBACK_CAUCHY = "FallbackCauchy"
    UNAVAILABLE = "Unavailable"


class CountBranch(enum.Enum):
    B_ZERO = "BZero"
    B_NONZERO_CONJECTURAL = "BNonzeroConjectural"
    B_NONZERO_WILMSHURST = "BNonzeroWilmshurst"


class DiskBound(NamedTuple):
    """Closed disk D(0, radius) containing every zero of q.

    source names the paper's theorem (`radius_delta`) where it applies.
    radius is +inf when source is UNAVAILABLE.
    winding, None only when source is UNAVAILABLE, is the winding of q on
    every circle |z| = r >= radius: the dominant term's index (Rouche).
    """

    radius: float
    source: BoundSource
    winding: Optional[int]


class CountBound(NamedTuple):
    upper: int
    upper_is_proven: bool
    lower: int
    branch: CountBranch


def _theorem(p: HarmonicQuadrinomial) -> Optional[BoundSource]:
    """THM31 (|c| > 1) or THM32 (|c| <= 1) where Theorems 3.1/3.2 apply,
    b != 0, c != 0 and k > n; else None."""
    if p.b == 0.0 or p.c == 0.0 or not p.k > p.n:
        return None
    return BoundSource.THM31 if abs(p.c) > 1.0 else BoundSource.THM32


def radius_polynomial(p: HarmonicQuadrinomial) -> tuple[RealPoly, BoundSource]:
    """The undeflated radius equation for instances meeting b,c != 0, k > n.

    Both variants vanish identically at x = 1 by construction (the middle
    coefficient is minus the sum of the outer two).
    """
    source = _theorem(p)
    if source is None:
        raise HypothesisViolation(
            "Theorems 3.1/3.2 require b != 0, c != 0 and k > n"
        )
    bb = abs(p.b)
    const = abs(p.c) if source is BoundSource.THM31 else 1.0
    coeffs = [const] + [0.0] * (p.k - 1) + [-(bb + const), bb]
    return RealPoly(tuple(coeffs)), source


def _minorant(p: HarmonicQuadrinomial) -> Optional[tuple[RealPoly, int]]:
    """P(x), a*x^d minus every other |term| of q at |z| = x, and the index
    of the dominant term; None if a = 0.

    a*x^d bounds the dominant term below: |b|x^k (index +k) when k > n,
    x^n (index -n) when k < n or b = 0, ||b| - 1|x^k when k = n (index +k
    if |b| > 1, -k if |b| < 1).  |q(z)| >= P(|z|).
    """
    bb, cc = abs(p.b), abs(p.c)
    if bb == 0.0 or p.k < p.n:
        lead, d, index, rest = 1.0, p.n, -p.n, ((bb, p.k), (cc, p.m), (1.0, 1))
    elif p.k > p.n:
        lead, d, index, rest = bb, p.k, p.k, ((1.0, p.n), (cc, p.m), (1.0, 1))
    else:
        lead, d, rest = abs(bb - 1.0), p.k, ((cc, p.m), (1.0, 1))
        index = p.k if bb > 1.0 else -p.k
    if lead == 0.0:
        return None
    coeffs = [0.0] * d + [lead]
    for coef, deg in rest:
        if coef:
            coeffs[deg] -= coef
    return RealPoly(tuple(coeffs)), index


def radius_bound(p: HarmonicQuadrinomial) -> DiskBound:
    """The disk of the minorant P of `_minorant`; UNAVAILABLE if it has none.

    P's only positive coefficient is its leading one, so P is negative
    below its one positive root rho and positive above it: every zero has
    |z| <= rho.  R is the least float >= 1 at which P(R) > gamma*sum
    |a_i| R^i in floating point; gamma*sum |a_i| R^i bounds the rounding
    of the coefficients and of Horner's rule (Higham, Accuracy and
    Stability of Numerical Algorithms, section 5.1), so P(R) > 0 holds
    exactly.  P - gamma*sum |a_i| x^i has one sign change too, so the test
    switches once, and `first_true` finds where.

    For k >= 4, rho <= max(1, delta), delta = `radius_delta(p)`, so no min
    is taken: at x = max(1, delta) the deflated radius equation gives
    |b|x^k >= C(1 + x + ... + x^(k-1)) >= x^n + |c|x^m + x,
    C = max(1, |c|).  At k = 3 delta can undershoot.
    """
    minorant = _minorant(p)
    if minorant is None:
        return DiskBound(math.inf, BoundSource.UNAVAILABLE, None)
    poly, winding = minorant
    gamma = 4.0 * (poly.degree + 2) * _UNIT_ROUNDOFF
    pairs = [(a, abs(a)) for a in reversed(poly.coeffs)]

    def positive(x: float) -> bool:
        """P(x) > gamma*sum |a_i| x^i, both by Horner's rule in one pass,
        each with `RealPoly.__call__`'s operations in its order."""
        acc = size = 0.0
        for a, s in pairs:
            acc = acc * x + a
            size = size * x + s
        return acc > gamma * size

    radius = first_true(positive, 1.0)
    source = _theorem(p)
    if source is None:
        source = BoundSource.FALLBACK_CAUCHY
    return DiskBound(radius, source, winding)


def radius_delta(p: HarmonicQuadrinomial) -> Optional[float]:
    """delta, the non-unit positive root of the paper's radius equation
    (Theorems 3.1/3.2), or None where they do not apply (b = 0, c = 0 or
    k <= n); `radius_bound` says which theorem as its source.

    delta is the root of the exact quotient |b|x^k - C(1 + ... + x^(k-1))
    of the equation by x - 1, whose coefficients are the equation's outer
    ones, C and |b|.  Deflating the equation numerically would round
    -(|b| + C) + |b| for |b| much larger than C.
    """
    if _theorem(p) is None:
        return None
    const, *_, bb = radius_polynomial(p)[0].coeffs
    return positive_root_bracketed(RealPoly((-const,) * p.k + (bb,)))


def count_bound(p: HarmonicQuadrinomial) -> CountBound:
    """Upper/lower bounds on the number of distinct zeros of q.

    The middle branch rests on Wilmshurst's conjecture and is flagged as
    unproven; asserting it in tests would encode an unproven claim as
    ground truth.
    """
    if p.b == 0.0:
        return CountBound(3 * p.n - 2, True, p.n, CountBranch.B_ZERO)
    if not (p.k > p.n > p.m):
        raise HypothesisViolation(
            f"Theorem 3.3 requires k > n > m when b != 0 "
            f"(got k={p.k}, n={p.n}, m={p.m})"
        )
    if p.n == p.k - 1:
        return CountBound(p.k * p.k, True, p.k, CountBranch.B_NONZERO_WILMSHURST)
    return CountBound(
        p.n * (p.n - 1) + 3 * p.k - 2, False, p.k, CountBranch.B_NONZERO_CONJECTURAL
    )
