import math
import random

import pytest

from quadzero import (
    Circle,
    HarmonicQuadrinomial,
    OrientationClass,
    Rectangle,
    find_zeros,
    radius_bound,
    winding_number,
)
from quadzero.errors import NumericalError, SampleCapExceeded, ZeroOnContour

CUBIC = HarmonicQuadrinomial(b=0.0, c=0.0, k=1, n=3, m=1)  # conj(z)^3 + z
QUAD = HarmonicQuadrinomial(b=1.0, c=1.0, k=3, n=2, m=1)  # zeros 0, 1 +- i, -0.5 +- 1.32i


class TestCircles:
    def test_analytic_degree_dominates(self):
        rep = winding_number(QUAD, Circle(0j, radius_bound(QUAD).radius + 1.0))
        assert rep.winding == 3

    def test_coanalytic_dominance_negative_winding(self):
        rep = winding_number(CUBIC, Circle(0j, 2.0))
        assert rep.winding == -3

    def test_small_circle_sees_only_the_origin_zero(self):
        rep = winding_number(CUBIC, Circle(0j, 0.5))
        assert rep.winding == 1

    def test_zero_on_contour_rejected(self):
        # the unimodular zeros sit exactly on the unit circle
        with pytest.raises(ZeroOnContour):
            winding_number(CUBIC, Circle(0j, 1.0))

    def test_zeros_next_to_the_contour_are_resolved(self):
        # the four unimodular zeros lie 1e-10 outside, then inside
        assert winding_number(CUBIC, Circle(0j, 1.0 - 1e-10)).winding == 1
        assert winding_number(CUBIC, Circle(0j, 1.0 + 1e-10)).winding == -3

    def test_min_modulus_positive(self):
        rep = winding_number(CUBIC, Circle(0j, 2.0))
        assert rep.min_modulus > 0

    def test_overflow_is_raised_at_once(self):
        # b * 100**3 overflows to inf with no exception from Python
        p = HarmonicQuadrinomial(b=1e306, c=1.0, k=3, n=2, m=1)
        with pytest.raises(OverflowError):
            winding_number(p, Circle(0j, 100.0))

    def test_rejects_degenerate(self):
        for center, radius in [
            (0j, 0.0),
            (0j, -1.0),
            (0j, math.inf),
            (0j, math.nan),
            (complex(math.nan, 0), 1.0),
            (complex(0, math.inf), 1.0),
            (0j, 1e308),  # the circumference overflows
        ]:
            with pytest.raises(ValueError):
                Circle(center, radius)


class TestRectangles:
    def test_additivity_under_edge_split(self):
        # Re z = 0.5 holds no zero of QUAD
        whole = Rectangle(complex(-3, -3), complex(3, 3))
        left = Rectangle(complex(-3, -3), complex(0.5, 3))
        right = Rectangle(complex(0.5, -3), complex(3, 3))
        w = winding_number(QUAD, whole).winding
        wl = winding_number(QUAD, left).winding
        wr = winding_number(QUAD, right).winding
        assert (w, wl, wr) == (3, 1, 2)

    def test_edge_through_the_singular_origin_is_refused(self, monkeypatch):
        # |c| = 1 and m = 1 make q(0) = 0 a singular zero; Re z = 0 runs
        # through it, so that winding is not defined
        import quadzero.contour as contour_mod

        monkeypatch.setattr(contour_mod, "_SAMPLE_CAP", 5000)
        with pytest.raises(NumericalError):
            winding_number(QUAD, Rectangle(complex(-3, -3), complex(0, 3)))

    def test_rejects_degenerate(self):
        for lo, hi in [
            (complex(0, 0), complex(0, 1)),
            (complex(-math.inf, -1), 1 + 1j),
            (complex(-1, -1), complex(1, math.inf)),
            (complex(math.nan, -1), 1 + 1j),
            (complex(-1, -1), complex(1, math.nan)),
            (complex(-1e308, -1), complex(1e308, 1)),  # the width overflows
        ]:
            with pytest.raises(ValueError):
                Rectangle(lo, hi)


class TestSolverAgreement:
    def test_rectangles_inside_the_disk(self):
        # On rectangles inside D(0, R) the proven winding is the signed
        # count of the certified zeros the solver reports inside.
        sign = {
            OrientationClass.SENSE_PRESERVING: 1,
            OrientationClass.SENSE_REVERSING: -1,
        }
        rng = random.Random(16)
        checked = nonzero = 0
        for _ in range(100):
            k = rng.randint(3, 7)
            n = rng.randint(2, k - 1)
            m = rng.randint(1, n - 1)
            b = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 5.0)
            c = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 5.0)
            p = HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=m)
            report = find_zeros(p)
            half = report.disk.radius / math.sqrt(2.0)
            for _ in range(5):
                x0, x1 = sorted(rng.uniform(-half, half) for _ in range(2))
                y0, y1 = sorted(rng.uniform(-half, half) for _ in range(2))
                inside = [
                    rec
                    for rec in report.zeros
                    if x0 < rec.location.real < x1 and y0 < rec.location.imag < y1
                ]
                if not all(rec.certified for rec in inside):
                    continue
                try:
                    rep = winding_number(p, Rectangle(complex(x0, y0), complex(x1, y1)))
                except NumericalError:
                    continue
                checked += 1
                nonzero += bool(inside)
                assert rep.winding == sum(sign[rec.orientation] for rec in inside)
        assert checked >= 400 and nonzero >= 120


class TestStability:
    def test_dominance_law(self):
        # Past the disk radius R one term dominates q, so the winding on
        # every circle |z| >= R is that term's index: radius_bound's
        # closed form must match the proven winding on C(0, R) and
        # C(0, R+1) on every branch of the dominant term.  R is the least
        # float where the majorant is provably positive, and with real b
        # and c the terms nearly align somewhere on C(0, R), so q can come
        # within rounding of 0 there and the proof may refuse that circle.
        at_r = []

        def closed_form(p):
            disk = radius_bound(p)
            try:
                at_r.append(winding_number(p, Circle(0j, disk.radius)).winding)
            except ZeroOnContour:
                pass
            else:
                assert at_r[-1] == disk.winding
            return disk.winding

        rng = random.Random(3)
        for _ in range(20):
            k = rng.randint(4, 7)
            n = rng.randint(2, k - 1)
            m = rng.randint(1, n - 1) if n > 1 else 1
            b = rng.choice([-1, 1]) * rng.uniform(0.2, 4)
            c = rng.choice([-1, 1]) * rng.uniform(0.2, 4)
            p = HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=m)
            rep = winding_number(p, Circle(0j, radius_bound(p).radius + 1.0))
            assert rep.winding == k
            assert closed_form(p) == rep.winding
        for _ in range(10):
            n = rng.randint(2, 6)
            m = rng.randint(1, n - 1)
            c = rng.choice([-1, 1]) * rng.uniform(0.2, 4)
            p = HarmonicQuadrinomial(b=0.0, c=c, k=1, n=n, m=m)
            rep = winding_number(p, Circle(0j, radius_bound(p).radius + 1.0))
            assert rep.winding == -n
            assert closed_form(p) == rep.winding
        for _ in range(10):  # k < n, b != 0
            n = rng.randint(3, 6)
            k = rng.randint(1, n - 1)
            m = rng.randint(1, n - 1)
            b = rng.choice([-1, 1]) * rng.uniform(0.2, 4)
            c = rng.choice([-1, 1]) * rng.uniform(0.2, 4)
            p = HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=m)
            rep = winding_number(p, Circle(0j, radius_bound(p).radius + 1.0))
            assert rep.winding == -n
            assert closed_form(p) == rep.winding
        for low, high, index in ((1.5, 4.0, 1), (0.1, 0.7, -1)):
            for _ in range(5):  # k = n, |b| on either side of 1
                k = rng.randint(2, 6)
                m = rng.randint(1, k - 1)
                b = rng.choice([-1, 1]) * rng.uniform(low, high)
                c = rng.choice([-1, 1]) * rng.uniform(0.2, 4)
                p = HarmonicQuadrinomial(b=b, c=c, k=k, n=k, m=m)
                rep = winding_number(p, Circle(0j, radius_bound(p).radius + 1.0))
                assert rep.winding == index * k
                assert closed_form(p) == rep.winding
        assert len(at_r) >= 30  # of 50 instances

    def test_sample_cap(self, monkeypatch):
        # 1e-12 from the four unimodular zeros takes about 450 samples
        import quadzero.contour as contour_mod

        monkeypatch.setattr(contour_mod, "_SAMPLE_CAP", 100)
        with pytest.raises(SampleCapExceeded):
            winding_number(CUBIC, Circle(0j, 1.0 - 1e-12))
