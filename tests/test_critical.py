import cmath
import dataclasses
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadzero import (
    HarmonicQuadrinomial,
    OrientationClass,
    ZeroRecord,
    analytic_derivative,
    circle_image,
    classify_point,
    critical_radius,
    critical_radius_alt,
    find_zeros,
    modular_root_census,
    pure_imaginary_rays,
    univalence_radius,
    verify_theorem_34,
)
from quadzero.errors import BEqualsOne, BZero, HypothesisViolation

SINGULAR = OrientationClass.SINGULAR
GRID = (1.25, 1.5, 2.0, 3.0, 5.0)  # criterion 6's b and c, k in 2..6
near_unit = st.sampled_from((-1.0, 1.0)).flatmap(
    lambda s: st.floats(-1e-3, 1e-3).map(lambda e: s * (1.0 + e))
)


def exact_ratio(b: float, c: float) -> Fraction:
    """(c^2 - 1)/(b^2 - 1) of the float inputs, in exact arithmetic."""
    return (Fraction(c) ** 2 - 1) / (Fraction(b) ** 2 - 1)


def within_ulps(rho: float, ulps: int, target: Fraction, d: int) -> bool:
    """rho is within `ulps` ulps of target^(1/d), in exact arithmetic."""
    step = ulps * Fraction(math.ulp(rho))
    rho = Fraction(rho)
    return (rho - step) ** d <= target <= (rho + step) ** d


class TestCriticalRadius:
    def test_worked_example(self):
        cc = critical_radius(2.0, 3.0, 2)
        assert cc.exists
        assert cc.radius == pytest.approx(math.sqrt(8.0 / 12.0), abs=1e-12)

    def test_degenerate_when_c_squared_is_one(self):
        cc = critical_radius(2.0, 1.0, 2)
        assert not cc.exists

    def test_b_equals_one_rejected(self):
        with pytest.raises(BEqualsOne):
            critical_radius(1.0, 3.0, 2)
        with pytest.raises(BEqualsOne):
            critical_radius(-1.0, 3.0, 2)

    def test_non_existent_for_mixed_regimes(self):
        # |b| > 1 with |c| < 1 gives a negative ratio
        assert not critical_radius(2.0, 0.5, 3).exists

    def test_closed_form_equivalence(self):
        # Where no circle exists, c^2 - 1 and b^2 - 1 of opposite signs or
        # c = 1, both forms give 0.0.
        for k in range(2, 7):
            for b in (0.2, 0.5, 1.5, 2.0, 5.0):
                for c in (0.3, 0.8, 1.0, 1.2, 2.5, 4.0):
                    cc = critical_radius(b, c, k)
                    alt = critical_radius_alt(b, c, k)
                    assert abs(cc.radius - alt) <= 1e-12 * alt
                    assert (alt > 0) == cc.exists

    @given(
        st.one_of(st.floats(-1e100, 1e100), near_unit).filter(lambda b: abs(b) != 1.0),
        st.one_of(st.floats(-1e100, 1e100), near_unit),
        st.integers(2, 8),
    )
    @example(1.00000001, 3.0, 2)  # the plain (c*c - 1)/(b*b - 1) is 2.5e-9 off
    @settings(max_examples=300, deadline=None)
    def test_plain_formulas_where_nothing_overflows(self, b, c, k):
        # Within 2 ulps of the exact radius of the float inputs: k^2 (rho -+
        # 2 ulp)^(2k-2) brackets (c^2 - 1)/(b^2 - 1) in exact arithmetic;
        # 4 ulps for the second closed form.
        ratio = exact_ratio(b, c)
        cc = critical_radius(b, c, k)
        assert cc.exists == (ratio > 0)
        if cc.exists:
            alt = critical_radius_alt(b, c, k)
            assert within_ulps(cc.radius, 2, ratio / (k * k), 2 * k - 2)
            assert within_ulps(alt, 4, ratio / (k * k), 2 * k - 2)

    @pytest.mark.parametrize(
        "b, c, k, radius",
        [
            (2.0, 1e160, 2, 1e160 / (2.0 * math.sqrt(3.0))),  # ratio inf
            (1e200, 1e200, 3, 3.0**-0.5),  # inf/inf
            (1e200, 3.0, 2, math.sqrt(2.0) * 1e-200),  # 8/inf = 0
            (1e200, 0.5, 2, 0.0),  # no circle: c^2 - 1 < 0 < b^2 - 1
            (1.5, 1.7e308, 3, math.sqrt(1.7e308) / 11.25**0.25),  # (c^2/11.25)^(1/4)
            (1.1, 1.5e308, 2, 1.5e308 / (2.0 * math.sqrt(0.21))),  # 2^1024 > radius
        ],
        ids=["ratio-inf", "ratio-nan", "ratio-zero", "no-circle", "c-squared-inf",
             "radius-near-max"],
    )
    def test_squares_overflow_but_not_the_radius(self, b, c, k, radius):
        cc = critical_radius(b, c, k)
        assert cc.exists == (radius > 0)
        assert cc.radius == pytest.approx(radius, rel=1e-14)
        assert critical_radius_alt(b, c, k) == pytest.approx(radius, rel=1e-14)

    def test_radius_overflow_raises(self):
        # (c^2 - 1)/(b^2 - 1) is 2^2050.09, so the radius, sqrt(ratio/4), is
        # 2^1024.05, past the largest float.
        with pytest.raises(OverflowError):
            critical_radius(1.1, 1.7e308, 2)
        with pytest.raises(OverflowError):
            critical_radius_alt(1.1, 1.7e308, 2)

    @pytest.mark.parametrize(
        "b, c",
        [(1.3e154, 1.0000000001), (1e154, 1.0000001), (-1.3e154, -1.0000000001)],
        ids=["2e-318", "2e-315", "2e-318-negative"],
    )
    def test_subnormal_ratio_keeps_its_precision(self, b, c):
        # The ratio (c^2 - 1)/(b^2 - 1) is subnormal, the radius normal and
        # within 2 ulps of the exact radius of the float inputs (4 for the
        # second closed form).
        ratio = exact_ratio(b, c)
        assert 0 < ratio < sys.float_info.min
        assert within_ulps(critical_radius(b, c, 2).radius, 2, ratio / 4, 2)
        assert within_ulps(critical_radius_alt(b, c, 2), 4, ratio / 4, 2)

    @pytest.mark.parametrize("k", [600, 2000])
    def test_large_k(self, k):
        # d = 2k - 2 > 1022, so r * 2^s would overflow inside the root
        # although the radius is near 1.
        target, d = Fraction(3, 8) / (k * k), 2 * k - 2  # c = 2, b = 3
        assert within_ulps(critical_radius(3.0, 2.0, k).radius, 2, target, d)
        assert within_ulps(critical_radius_alt(3.0, 2.0, k), 4, target, d)

    def test_within_ulps_on_seeded_draws(self):
        # 20 000 draws, k in 2..8, a quarter each with |b| near 1, |c| near
        # 1, |b| and |c| in 1e+-300, and both in 1e+-3.  critical_radius is
        # within 2 ulps of the exact radius of the float inputs, and
        # critical_radius_alt within 4; every radius here is normal.
        rng = random.Random(34)

        def modulus(kind: str) -> float:
            if kind == "near-1":
                return 1.0 + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-16, -1)
            return 10.0 ** rng.uniform(*{"wide": (-300, 300), "ordinary": (-3, 3)}[kind])

        kinds = [("near-1", "ordinary"), ("ordinary", "near-1"), ("wide", "wide"),
                 ("ordinary", "ordinary")]
        for i in range(20_000):
            b, c = (rng.choice((-1.0, 1.0)) * modulus(kind) for kind in kinds[i % 4])
            k = rng.randint(2, 8)
            if abs(b) == 1.0:
                continue
            ratio, d = exact_ratio(b, c), 2 * k - 2
            if ratio <= 0:
                assert not critical_radius(b, c, k).exists
                assert critical_radius_alt(b, c, k) == 0.0
                continue
            assert within_ulps(critical_radius(b, c, k).radius, 2, ratio / (k * k), d)
            assert within_ulps(critical_radius_alt(b, c, k), 4, ratio / (k * k), d)

    @pytest.mark.parametrize(
        "b, c, k, error",
        [
            (2.0, 0.5, 1, ValueError),
            (2.0, 3.0, 1, ValueError),
            (1.0, 3.0, 2, BEqualsOne),
            (-1.0, 0.5, 3, BEqualsOne),
        ],
    )
    def test_closed_forms_raise_alike(self, b, c, k, error):
        with pytest.raises(error):
            critical_radius(b, c, k)
        with pytest.raises(error):
            critical_radius_alt(b, c, k)


class TestRays:
    def test_k2(self):
        assert pure_imaginary_rays(2) == pytest.approx([math.pi / 2, 3 * math.pi / 2])

    def test_k3(self):
        assert pure_imaginary_rays(3) == pytest.approx(
            [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4]
        )

    def test_k_below_2_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            pure_imaginary_rays(1)

    def test_count_and_pure_imaginarity(self):
        for k in range(2, 7):
            rays = pure_imaginary_rays(k)
            assert len(rays) == 2 * (k - 1)
            assert len(set(round(a, 12) for a in rays)) == len(rays)
            for theta in rays:
                for r in (0.3, 1.0, 2.7):
                    z = r * cmath.exp(1j * theta)
                    w = z**k * z.conjugate()
                    assert abs(w.real) <= 1e-12 * abs(w)


class TestVerifyTheorem34:
    def test_worked_point(self):
        rep = verify_theorem_34(2.0, 3.0, 2)
        assert rep.passed
        # |2z + 3| = |4z + 1| at z = i*sqrt(2/3): both moduli sqrt(35/3)
        z = rep.circle.radius * 1j
        assert abs(2 * z + 3) == pytest.approx(abs(4 * z + 1), abs=1e-12)
        assert abs(2 * z + 3) == pytest.approx(math.sqrt(35.0 / 3.0), abs=1e-12)

    def test_small_parameters(self):
        rep = verify_theorem_34(0.5, 0.2, 3)
        assert rep.circle.radius == pytest.approx(
            (1.0 / 3.0) ** 0.5 * 1.28 ** 0.25, abs=1e-12
        )
        assert rep.passed

    def test_off_circle_deviates(self):
        # Theorem 3.4: on each ray the circle point is singular, and the
        # points at radius/1.1 and 1.1 * radius have opposite, proven
        # orientations.
        rep = verify_theorem_34(2.0, 3.0, 2)
        assert [ch.angle for ch in rep.checks] == pure_imaginary_rays(2)
        for ch in rep.checks:
            assert ch.on is SINGULAR
            assert SINGULAR not in (ch.inside, ch.outside)
            assert ch.inside is not ch.outside

    @pytest.mark.parametrize("k", range(2, 7))
    def test_criterion_6_grid(self, k):
        for b in GRID:
            for c in GRID:
                assert verify_theorem_34(b, c, k).passed, (b, c, k)

    def test_propagates_b_equals_one(self):
        with pytest.raises(BEqualsOne):
            verify_theorem_34(1.0, 3.0, 2)

    def test_nonexistent_circle_rejected(self):
        with pytest.raises(HypothesisViolation):
            verify_theorem_34(2.0, 0.5, 2)


class TestUnivalenceRadius:
    def test_b_one_k_two(self):
        radius, points = univalence_radius(1.0, 2)
        assert radius == pytest.approx(0.5)
        assert points == [pytest.approx(-0.5 + 0j)]

    def test_quarter_b(self):
        radius, points = univalence_radius(0.25, 2)
        assert radius == pytest.approx(2.0)
        assert points == [pytest.approx(-2.0 + 0j)]

    def test_k_times_b_overflows(self):
        # 3 * 1e308 overflows, but the radius 1/sqrt(3e308) is normal, and
        # the two roots of z^2 = -1/(3e308) lie on the imaginary axis.
        radius, points = univalence_radius(1e308, 3)
        assert radius == 5.773502691896258e-155
        assert within_ulps(radius, 1, Fraction(1, 3) / Fraction(1e308), 2)
        assert points == [pytest.approx(radius * 1j), pytest.approx(-radius * 1j)]

    @pytest.mark.parametrize("k", [1100, 3000])
    def test_large_k(self, k):
        # d = k - 1 > 1022: the root is near 1, with no overflow on the way.
        radius, points = univalence_radius(3.0, k)
        assert within_ulps(radius, 2, Fraction(1, 3 * k), k - 1)
        assert len(points) == k - 1

    def test_radius_overflow_raises(self):
        # 1/(2 * 5e-324) is past the largest float.
        with pytest.raises(OverflowError):
            univalence_radius(5e-324, 2)

    def test_b_zero_rejected(self):
        with pytest.raises(BZero):
            univalence_radius(0.0, 3)

    def test_k_below_2_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            univalence_radius(1.0, 1)

    def test_h_prime_vanishes_at_returned_points(self):
        for b in (0.5, -1.2, 3.0):
            for k in (2, 3, 5):
                radius, points = univalence_radius(b, k)
                p = HarmonicQuadrinomial(b=b, c=0.0, k=k, n=2, m=1)
                for z in points:
                    assert abs(z) == pytest.approx(radius, rel=1e-12)
                    assert abs(analytic_derivative(p, z)) <= 1e-12 * (
                        1.0 + abs(b) * k
                    )


class TestCircleImage:
    def test_closed_polyline(self):
        p = HarmonicQuadrinomial(b=0.0, c=0.0, k=1, n=3, m=1)
        pts = circle_image(p, 1.0, 64)
        assert len(pts) == 65
        assert pts[0] == pts[-1]

    def test_passes_near_zero_on_unit_circle(self):
        p = HarmonicQuadrinomial(b=0.0, c=0.0, k=1, n=3, m=1)
        pts = circle_image(p, 1.0, 4096)
        near_zero = sum(1 for w in pts[:-1] if abs(w) < 5e-3)
        assert near_zero >= 4  # the four unimodular zeros

    def test_radius_not_positive_is_refused(self):
        # A circle of radius 0 or less has no image to draw, as in
        # contour.Circle.
        p = HarmonicQuadrinomial(b=1.0, c=1.0, k=3, n=2, m=1)
        for radius in (0.0, -1.0):
            with pytest.raises(ValueError, match="radius must be positive"):
                circle_image(p, radius, 16)

    def test_minimum_samples(self):
        p = HarmonicQuadrinomial(b=1.0, c=1.0, k=3, n=2, m=1)
        with pytest.raises(ValueError):
            circle_image(p, 1.0, 8)


class TestModularRootCensus:
    def test_partition_is_complete(self):
        for p in (
            HarmonicQuadrinomial(b=2.0, c=3.0, k=2, n=2, m=1),
            HarmonicQuadrinomial(b=0.5, c=0.2, k=3, n=3, m=1),
        ):
            report = find_zeros(p)
            on, inside, outside = modular_root_census(p, report=report)
            assert on + inside + outside == report.count
            assert modular_root_census(p) == (on, inside, outside)

    @pytest.mark.parametrize(
        "p",
        [
            HarmonicQuadrinomial(b=2.0, c=3.0, k=2, n=2, m=1),
            HarmonicQuadrinomial(b=0.5, c=0.2, k=3, n=3, m=1),
            HarmonicQuadrinomial(b=-0.25, c=-0.6, k=4, n=4, m=1),
        ],
        ids=["2,3,2,2,1", "b-below-1", "c-below-1"],
    )
    def test_placed_zeros_lie_on_their_side(self, p):
        # A census of each zero alone: a zero placed inside lies inside the
        # circle, one placed outside lies outside.  These cases have no
        # zero near the circle, so every zero is placed.
        report = find_zeros(p)
        radius = critical_radius(p.b, p.c, p.k).radius
        for rec in report.zeros:
            one = dataclasses.replace(report, zeros=(rec,), count=1)
            on, inside, outside = modular_root_census(p, report=one)
            assert on == 0
            if inside:
                assert abs(rec.location) < radius
            else:
                assert abs(rec.location) > radius

    def test_uncertified_zero_is_not_placed(self):
        # A singular record has no disk, even at the origin, q(0) = 0.
        p = HarmonicQuadrinomial(b=2.0, c=3.0, k=2, n=2, m=1)
        report = find_zeros(p)
        rec = ZeroRecord(location=0j, residual=0.0, jacobian=0.0, orientation=SINGULAR)
        one = dataclasses.replace(report, zeros=(rec,), count=1)
        assert modular_root_census(p, report=one) == (1, 0, 0)

    def test_record_without_a_margin_is_not_placed(self):
        # A record that claims an orientation at a point of the critical
        # circle, where classify_point finds no margin, has no disk.
        p = HarmonicQuadrinomial(b=2.0, c=3.0, k=2, n=2, m=1)
        z = critical_radius(2.0, 3.0, 2).radius * 1j
        assert classify_point(p, z) is SINGULAR
        report = find_zeros(p)
        rec = ZeroRecord(location=z, residual=0.0, jacobian=0.0,
                         orientation=OrientationClass.SENSE_PRESERVING)
        one = dataclasses.replace(report, zeros=(rec,), count=1)
        assert modular_root_census(p, report=one) == (1, 0, 0)

    def test_degenerate_circle_propagates(self):
        p = HarmonicQuadrinomial(b=2.0, c=1.0, k=2, n=2, m=1)
        with pytest.raises(HypothesisViolation):
            modular_root_census(p)

    @pytest.mark.parametrize(
        "p",
        [
            HarmonicQuadrinomial(b=2.0, c=3.0, k=4, n=3, m=1),
            HarmonicQuadrinomial(b=2.0, c=3.0, k=3, n=3, m=2),
        ],
        ids=["n-ne-k", "m-ne-1"],
    )
    def test_family_without_critical_circle(self, p):
        # Theorem 3.4's circle is defined for n = k, m = 1 only.
        with pytest.raises(HypothesisViolation, match="n = k and m = 1"):
            modular_root_census(p)


signs = st.sampled_from((-1.0, 1.0))
# |b| and |c| in [1e-3, 30], and within 1e-3 of 1, where the circle
# runs off to infinity (|b| -> 1) or shrinks to the origin (|c| -> 1)
moduli = st.one_of(
    st.floats(min_value=1e-3, max_value=30.0),
    st.floats(min_value=-1e-3, max_value=1e-3).map(lambda e: 1.0 + e),
)


@given(
    k=st.integers(min_value=2, max_value=9),
    b=signs.flatmap(lambda s: moduli.map(lambda v: s * v)),
    c=signs.flatmap(lambda s: moduli.map(lambda v: s * v)),
)
@settings(max_examples=300, deadline=None)
def test_theorem_34_wherever_the_circle_exists(k, b, c):
    assume(abs(b) != 1.0 and critical_radius(b, c, k).exists)
    rep = verify_theorem_34(b, c, k)
    for ch in rep.checks:
        assert ch.on is SINGULAR
        # No ray has the same proven orientation on both sides.
        assert ch.inside is not ch.outside or ch.inside is SINGULAR
    # On a ray J = (c^2 - 1)(t - 1), t = (|z|/radius)^(2k-2): within
    # rounding of |c| = 1 the flip across the circle is too, and as
    # |b| -> 1 the circle, and the rounding bound there, grow without end.
    # A side is then unproven; a scan of k 2..9 found that only within
    # 2e-14 of 1, far inside 1e-9.
    if min(abs(abs(b) - 1.0), abs(abs(c) - 1.0)) > 1e-9:
        assert rep.passed
