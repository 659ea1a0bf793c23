import pytest

from quadzero import Circle, HarmonicQuadrinomial, Rectangle, winding_number
from quadzero.errors import SampleCapExceeded, ZeroOnContour

CUBIC = HarmonicQuadrinomial(b=0.0, c=0.0, k=1, n=3, m=1)  # conj(z)^3 + z


class TestCircles:
    def test_analytic_degree_dominates(self):
        rep = winding_number(lambda z: z**3 + z, Circle(0j, 10.0))
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
            winding_number(CUBIC, Circle(0j, 1.0), initial_samples=1024)

    def test_min_modulus_positive(self):
        rep = winding_number(CUBIC, Circle(0j, 2.0))
        assert rep.min_modulus > 0


class TestRectangles:
    def test_additivity_under_edge_split(self):
        p = HarmonicQuadrinomial(b=1.0, c=1.0, k=3, n=2, m=1)
        whole = Rectangle(complex(-3, -3), complex(3, 3))
        left = Rectangle(complex(-3, -3), complex(0, 3))
        right = Rectangle(complex(0, -3), complex(3, 3))
        w = winding_number(p, whole).winding
        wl = winding_number(p, left).winding
        wr = winding_number(p, right).winding
        assert w == wl + wr

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Rectangle(complex(0, 0), complex(0, 1))


class TestStability:
    def test_doubling_samples_keeps_integer(self):
        for r in (0.5, 2.0, 5.0):
            a = winding_number(CUBIC, Circle(0j, r), initial_samples=256)
            b = winding_number(CUBIC, Circle(0j, r), initial_samples=512)
            assert a.winding == b.winding

    def test_dominance_law(self):
        # Past the disk radius R one term dominates q, so the winding on
        # every circle |z| >= R is that term's index: radius_bound's
        # closed form must match the sampled winding on C(0, R) and
        # C(0, R+1) on every branch of the dominant term.  R is the least
        # float where the majorant is provably positive, and with real b
        # and c the terms nearly align somewhere on C(0, R), so q can come
        # within rounding of 0 there and the sampler may refuse that circle.
        import random

        from quadzero import radius_bound

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

    def test_sample_cap(self):
        import quadzero.contour as contour_mod

        old = contour_mod._SAMPLE_CAP
        contour_mod._SAMPLE_CAP = 100
        try:
            with pytest.raises(SampleCapExceeded):
                winding_number(
                    lambda z: z**40, Circle(0j, 1.0), initial_samples=64
                )
        finally:
            contour_mod._SAMPLE_CAP = old
