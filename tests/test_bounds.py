import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadzero import (
    BoundSource,
    CountBranch,
    HarmonicQuadrinomial,
    count_bound,
    radius_bound,
    radius_delta,
    radius_polynomial,
    sign_changes,
    deflate_at_one,
)
from quadzero.errors import HypothesisViolation

from test_realroots import bisect_root


class TestRadiusBound:
    def test_large_c_route(self):
        p = HarmonicQuadrinomial(b=2.0, c=3.0, k=4, n=3, m=1)
        poly, source = radius_polynomial(p)
        assert source is BoundSource.THM31
        # 2x^5 - 5x^4 + 3
        assert poly.coeffs == (3.0, 0.0, 0.0, 0.0, -5.0, 2.0)
        expected = bisect_root(deflate_at_one(poly), 2.0, 2.5)
        db = radius_bound(p)
        assert db.source is BoundSource.THM31
        assert radius_delta(p) == pytest.approx(expected, abs=1e-10)
        assert db.radius == pytest.approx(1.4505401701440732, abs=1e-9)

    def test_small_c_route(self):
        p = HarmonicQuadrinomial(b=2.0, c=1.0, k=4, n=3, m=1)
        poly, source = radius_polynomial(p)
        assert source is BoundSource.THM32
        # 2x^5 - 3x^4 + 1, deflated to 2x^4 - x^3 - x^2 - x - 1
        q = deflate_at_one(poly)
        assert q.coeffs == pytest.approx((-1.0, -1.0, -1.0, -1.0, 2.0))
        assert q(1.0) == pytest.approx(-2.0)
        expected = bisect_root(q, 1.0, 2.0)
        db = radius_bound(p)
        assert db.source is BoundSource.THM32
        assert radius_delta(p) == pytest.approx(expected, abs=1e-10)
        # frozen from the bisection oracle
        assert radius_delta(p) == pytest.approx(1.3490344565611565, abs=1e-9)

    def test_fallback_when_analytic_degree_low(self):
        p = HarmonicQuadrinomial(b=0.0, c=3.0, k=1, n=3, m=2)
        db = radius_bound(p)
        assert db.source is BoundSource.FALLBACK_CAUCHY
        assert db.radius == pytest.approx((3.0 + math.sqrt(13.0)) / 2.0)
        assert radius_delta(p) is None

    def test_unavailable_when_degrees_tie_with_unit_b(self):
        p = HarmonicQuadrinomial(b=1.0, c=2.0, k=3, n=3, m=1)
        db = radius_bound(p)
        assert db.source is BoundSource.UNAVAILABLE
        assert db.winding is None

    def test_degree_tie_bound(self):
        p = HarmonicQuadrinomial(b=3.0, c=2.0, k=3, n=3, m=1)
        db = radius_bound(p)
        assert db.source is BoundSource.FALLBACK_CAUCHY
        assert db.radius == pytest.approx(math.sqrt(1.5))

    def test_radius_at_least_one(self):
        p = HarmonicQuadrinomial(b=5.0, c=0.1, k=6, n=2, m=1)
        assert radius_bound(p).radius >= 1.0

    def test_structural_zero_at_one(self):
        # positive coefficients sum first, then the negative middle: exact 0
        for b, c in [(0.1, 0.2), (2.0, 3.0), (0.37, 1.91), (4.9, 0.11)]:
            p = HarmonicQuadrinomial(b=b, c=c, k=5, n=3, m=1)
            poly, _ = radius_polynomial(p)
            positives = sum(a for a in poly.coeffs if a > 0)
            negatives = sum(a for a in poly.coeffs if a < 0)
            assert positives + negatives == 0.0

    def test_deflated_has_one_sign_change(self):
        for b, c in [(0.1, 0.2), (2.0, 3.0), (0.37, 1.91)]:
            p = HarmonicQuadrinomial(b=b, c=c, k=5, n=3, m=1)
            poly, _ = radius_polynomial(p)
            assert sign_changes(deflate_at_one(poly)) == 1

    def test_delta_monotone_in_c(self):
        last = 0.0
        for c in [1.5, 2.0, 3.0, 4.5, 7.0]:
            p = HarmonicQuadrinomial(b=1.3, c=c, k=5, n=3, m=1)
            delta = radius_delta(p)
            assert delta > last
            last = delta

    def test_hypothesis_violation_for_polynomial_outside_route(self):
        p = HarmonicQuadrinomial(b=0.0, c=3.0, k=5, n=3, m=1)
        with pytest.raises(HypothesisViolation):
            radius_polynomial(p)


def _exact_root_rounded_up(bb, const, k):
    """The least float at which bb*x^k - const*(1 + ... + x^(k-1)) is
    positive, by bisection over the bit patterns of the positive floats
    with exact signs: the quotient's root rounded up."""
    (bn, bd), (cn, cd) = bb.as_integer_ratio(), const.as_integer_ratio()

    def above(bits):
        # Horner's rule on the quotient times bd*cd*d^k, x = n/d: integers.
        n, d = struct.unpack("<d", struct.pack("<q", bits))[0].as_integer_ratio()
        acc, scale = bn * cd, cn * bd
        for _ in range(k):
            scale *= d
            acc = acc * n - scale
        return acc > 0

    lo, hi = 0, struct.unpack("<q", struct.pack("<d", math.inf))[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            hi = mid
        else:
            lo = mid
    return struct.unpack("<d", struct.pack("<q", hi))[0]


def test_delta_within_an_ulp_of_the_exact_root():
    # Seeded draws over k 3-10, |b| up to 1e16 and |c| up to 1e6, so
    # |b| >> C often.  delta is where the quotient, as evaluated, turns
    # positive; its rounding moves that by at most one float.
    rng = random.Random(36)
    for _ in range(1500):
        k = rng.randint(3, 10)
        b = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 16.0)
        c = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 6.0)
        p = HarmonicQuadrinomial(b=b, c=c, k=k, n=k - 1, m=1)
        exact = _exact_root_rounded_up(abs(b), max(1.0, abs(c)), k)
        assert abs(radius_delta(p) - exact) <= math.ulp(exact), (b, c, k)


def _exact_minorant(p, x):
    """A lower bound on |q(z)| at |z| = x, in exact rational arithmetic."""
    b, c = abs(Fraction(p.b)), abs(Fraction(p.c))
    rest = c * x**p.m + x
    if b != 0 and p.k > p.n:
        return b * x**p.k - x**p.n - rest
    if b != 0 and p.k == p.n:
        return abs(b - 1) * x**p.k - rest
    return x**p.n - b * x**p.k - rest


signs = st.sampled_from((-1.0, 1.0))
magnitudes = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def instances(draw):
    """The interior, and the boundaries b = 0, c = 0, |c| = 1, k = 1,
    k < n, m = 1, and k = n with |b| within 1e-3 of 1."""
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=n - 1)))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(min_value=1, max_value=10)))
    near_unit = st.floats(min_value=-1e-3, max_value=1e-3).map(lambda e: 1.0 + e)
    b = draw(signs) * draw(st.one_of(st.just(0.0), magnitudes, near_unit))
    c = draw(signs) * draw(st.one_of(st.just(0.0), st.just(1.0), magnitudes))
    return HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=m)


@given(instances())
@settings(max_examples=300, deadline=None)
def test_majorant_positive_at_radius(p):
    # The minorant has one positive root and is negative below it, so
    # being positive at R puts every zero strictly inside the disk.
    disk = radius_bound(p)
    if disk.source is BoundSource.UNAVAILABLE:
        assert p.k == p.n and abs(p.b) == 1.0
        return
    assert disk.radius >= 1.0
    assert _exact_minorant(p, Fraction(disk.radius)) > 0


@given(
    b=signs.flatmap(lambda s: magnitudes.map(lambda v: s * v)),
    c=signs.flatmap(lambda s: magnitudes.map(lambda v: s * v)),
    k=st.integers(min_value=4, max_value=10),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_radius_never_exceeds_the_theorems(b, c, k, data):
    n = data.draw(st.integers(min_value=2, max_value=k - 1))
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    p = HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=m)
    disk = radius_bound(p)
    assert disk.source in (BoundSource.THM31, BoundSource.THM32)
    assert disk.radius <= max(1.0, radius_delta(p))


class TestCountBound:
    def test_b_zero_branch(self):
        p = HarmonicQuadrinomial(b=0.0, c=1.0, k=1, n=5, m=2)
        cb = count_bound(p)
        assert cb.upper == 13
        assert cb.upper_is_proven
        assert cb.lower == 5
        assert cb.branch is CountBranch.B_ZERO

    def test_conjectural_branch(self):
        p = HarmonicQuadrinomial(b=1.0, c=1.0, k=5, n=3, m=1)
        cb = count_bound(p)
        assert cb.upper == 19
        assert not cb.upper_is_proven
        assert cb.lower == 5
        assert cb.branch is CountBranch.B_NONZERO_CONJECTURAL

    def test_wilmshurst_branch(self):
        p = HarmonicQuadrinomial(b=1.0, c=1.0, k=5, n=4, m=1)
        cb = count_bound(p)
        assert cb.upper == 25
        assert cb.upper_is_proven
        assert cb.branch is CountBranch.B_NONZERO_WILMSHURST

    def test_degree_ordering_enforced_for_nonzero_b(self):
        p = HarmonicQuadrinomial(b=1.0, c=1.0, k=2, n=4, m=1)
        with pytest.raises(HypothesisViolation):
            count_bound(p)

    def test_lower_never_exceeds_upper(self):
        for k in range(3, 8):
            for n in range(2, k):
                p = HarmonicQuadrinomial(b=0.5, c=0.5, k=k, n=n, m=1)
                cb = count_bound(p)
                assert cb.lower <= cb.upper
