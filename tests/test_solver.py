import cmath
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadzero import (
    HarmonicQuadrinomial,
    OrientationClass,
    classify_point,
    evaluate,
    find_zeros,
    newton_step,
    radius_bound,
)
from quadzero import solver
from quadzero.errors import BoundUnavailable, DegenerateJacobian
from quadzero.model import analytic_derivative, coanalytic_derivative
from quadzero.solver import (
    _Majorant,
    _cell_test,
    _certificate_radius,
    _kantorovich_step,
)

CUBIC = HarmonicQuadrinomial(b=0.0, c=0.0, k=1, n=3, m=1)  # conj(z)^3 + z


def _jet(p, z):
    """q, h' and g' at z, as the Kantorovich test takes them."""
    return evaluate(p, z), analytic_derivative(p, z), coanalytic_derivative(p, z)


def _sqrt_above(x):
    """A rational just above sqrt(x) for a rational x >= 0, within 2^-200."""
    n = math.isqrt(x.numerator * (1 << 400) // x.denominator)
    return Fraction(n + 1, 1 << 200)


def _abs_above(w):
    """A rational just above |w| for a complex w of rational parts."""
    return _sqrt_above(w[0] * w[0] + w[1] * w[1])


def _exact_stage_bounds(p, center, half):
    """Rational upper bounds on M(a) and on the drops of |q| across the
    closed cell center +- half that stages 1 and 2 of the cell test bound:
    D1 = M(a + r) - M(a) and D2 = (|h'| + |g'|)r + M(a + r) - M(a) - M'(a)r
    at the centre, a = |center| and r = half*sqrt(2).  D1 and D2 grow with
    a and r, so bounds above a and r bound them."""

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

    slope = bb * k * a ** (k - 1) + n * a ** (n - 1) + cc * m * a ** (m - 1) + 1
    d1 = big_m(a + r) - big_m(a)
    d2 = (_abs_above(hp) + _abs_above(gp)) * r + d1 - slope * r
    return big_m(a), d1, d2


signs = st.sampled_from((-1.0, 1.0))
near_unit = st.floats(min_value=-1e-3, max_value=1e-3).map(lambda e: 1.0 + e)


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=1, max_value=n - 1))
    # k = n + 1 (and b = 0) are where Theorem 3.3's bound is proven.
    k = draw(st.one_of(st.just(n + 1), st.integers(min_value=1, max_value=6)))
    b = draw(signs) * draw(
        st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=5.0))
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
        z = 9.0 ** (-0.25) * cmath.exp(0.3j)  # |h'|^2 = |g'|^2 there
        with pytest.raises(DegenerateJacobian):
            newton_step(CUBIC, z)


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

    def test_cells_tile_the_upper_half_plane(self, monkeypatch):
        # Only cells of [-R, R] x [0, R] are tested; the lower half's
        # zeros are the mirror images of the upper half's.
        p = HarmonicQuadrinomial(b=1.4, c=-2.2, k=5, n=3, m=2)
        tested = []
        real = solver._cell_test

        def recording(p, maj):
            cell = real(p, maj)

            def wrapped(center, half):
                tested.append((center, half))
                return cell(center, half)

            return wrapped

        monkeypatch.setattr(solver, "_cell_test", recording)
        report = find_zeros(p)
        h = 0.5 * report.disk.radius
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

    def test_orientation_matches_jacobian_sign(self):
        p = HarmonicQuadrinomial(b=2.0, c=3.0, k=4, n=3, m=1)
        for rec in find_zeros(p).zeros:
            if rec.orientation is OrientationClass.SENSE_PRESERVING:
                assert rec.jacobian > 0
            elif rec.orientation is OrientationClass.SENSE_REVERSING:
                assert rec.jacobian < 0


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
        kept, _ = _cell_test(p, maj)(center, half)
        assert kept

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
        kept, z1 = _cell_test(p, maj)(center, half)
        assert not kept
        assert z1 is None

    def test_cell_iterate_is_newton_step(self):
        # The cell test's Newton iterate comes from the q, h' and g' it
        # evaluated for exclusion, by the formula newton_step uses.
        center = 0.7 + 0.7j  # 0.01 from the zero exp(i*pi/4) per axis
        kept, z1 = _cell_test(CUBIC, _Majorant(CUBIC))(center, 0.01)
        assert kept
        assert z1 is not None
        assert z1 == newton_step(CUBIC, center)

    def test_child_centres_within_one_ulp_of_exact(self):
        # Child centres are rounded, so sibling cells need not tile their
        # parent exactly.  The cell test widens its half-diagonal by
        # ulp(|centre|), which covers a centre within that distance of its
        # exact position parent +- h2.
        p = HarmonicQuadrinomial(b=2.0, c=3.0, k=4, n=3, m=1)
        level = [0j]
        half = radius_bound(p).radius
        moved = 0
        for _ in range(6):
            h2 = 0.5 * half
            children = []
            for center in level:
                for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                    child = center + complex(sx * h2, sy * h2)
                    dx = Fraction(child.real) - Fraction(center.real) - sx * Fraction(h2)
                    dy = Fraction(child.imag) - Fraction(center.imag) - sy * Fraction(h2)
                    assert dx * dx + dy * dy <= Fraction(math.ulp(abs(child))) ** 2
                    moved += dx != 0 or dy != 0
                    children.append(child)
            level, half = children, h2
        assert len(level) == 4**6
        assert moved > 0


    @pytest.mark.parametrize(
        "b, c, k, n, m",
        [
            (0.0, 0.0, 1, 3, 1),
            (2.0, 3.0, 4, 3, 1),
            (-1.051, -0.158, 5, 2, 1),
            (1.4, -2.2, 5, 3, 2),
            (0.5, 1.0, 4, 2, 1),
        ],
    )
    def test_stage_bounds_cover_the_exact_drops(self, monkeypatch, b, c, k, n, m):
        # The cell test is fed chosen values v of q at the centre; t is the
        # least |v| at which it drops the cell.  Dropping at t is sound when
        # t less the rounding bound gamma*M(a) of q, that is every |q| the
        # computed t can stand for, exceeds the exact drop of |q| across
        # the cell, computed in rational arithmetic.  Stage 1 alone (h' and
        # g' infinite, so stage 2 drops nothing) must beat D1, both stages
        # together min(D1, D2).  Cells of many sizes around certified zeros.
        p = HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=m)
        zeros = [rec.location for rec in find_zeros(p).zeros if rec.certified]
        assert zeros
        maj = _Majorant(p)
        gamma = Fraction(maj.gamma)
        fed = {"v": 0.0, "derivative": None}
        monkeypatch.setattr(solver, "evaluate", lambda p, z: complex(fed["v"]))
        for name in ("analytic_derivative", "coanalytic_derivative"):
            real = getattr(solver, name)
            monkeypatch.setattr(
                solver, name,
                lambda p, z, real=real: fed["derivative"] or real(p, z),
            )
        cell = _cell_test(p, maj)

        def dropped_at(i):  # non-negative floats order as their bit patterns
            fed["v"] = struct.unpack("<d", struct.pack("<q", i))[0]
            return not cell(center, half)[0]

        def least_dropped():
            lo, hi = 0, struct.unpack("<q", struct.pack("<d", 1e300))[0]
            assert not dropped_at(lo) and dropped_at(hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if dropped_at(mid):
                    hi = mid
                else:
                    lo = mid
            dropped_at(hi)
            return Fraction(fed["v"])

        for z0 in zeros:
            for decade in range(-14, 0):
                half = 10.0**decade
                for ox, oy in ((0.0, 0.0), (0.3, -0.7), (-0.9, 0.2)):
                    center = z0 + complex(ox, oy) * half
                    m0, d1, d2 = _exact_stage_bounds(p, center, half)
                    fed["derivative"] = complex(math.inf)
                    t1 = least_dropped()
                    fed["derivative"] = None
                    t = least_dropped()
                    assert t1 - gamma * m0 > d1, (z0, center, half)
                    assert t - gamma * m0 > min(d1, d2), (z0, center, half)


class TestMirror:
    # solver._mirror on synthetic found zeros (centre w, radius r, location
    # z1, orientation o) of CUBIC, whose zeros are 0 and exp(i*pi/4)*i^j.
    PLUS = OrientationClass.SENSE_PRESERVING
    MINUS = OrientationClass.SENSE_REVERSING
    SINGULAR = OrientationClass.SINGULAR

    def mirror(self, w, r, z1, o):
        return solver._mirror(CUBIC, _Majorant(CUBIC), w, r, z1, o)

    def test_disk_near_the_axis_holds_a_real_zero(self):
        # |Im w| <= 0.05r: the zero's mirror lies in the same disk, so the
        # zero is real; counted once, on the axis.
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
        # 0.05r < |Im w| < 0.9r: the Kantorovich test at Re w = 0 passes
        # with radius r + |Im w|, a disk that is its own mirror.
        got = self.mirror(0.3e-2j, 1e-2, complex(0.0, 1e-18), self.PLUS)
        assert got == [(0j, self.PLUS)]

    def test_undecided_disk_falls_back_to_singular(self):
        # q(0.5) = 0.625: the test at Re w fails, so whether the zero is
        # real is unknown; reported once, uncertified.
        got = self.mirror(complex(0.5, 0.03), 0.1, complex(0.5, 0.02), self.PLUS)
        assert got == [(complex(0.5, 0.0), self.SINGULAR)]

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

    def test_newton_work_near_close_pair(self, monkeypatch):
        # Floor cells around a close pair of zeros each make a Newton run;
        # undamped, each run takes a few steps, not up to the step cap.
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return newton_step(*args)

        monkeypatch.setattr(solver, "newton_step", counting)
        p = HarmonicQuadrinomial(b=4.768, c=-1.00146, k=4, n=3, m=1)
        report = find_zeros(p)
        assert report.n_certified == report.count == 8
        assert calls <= 12_000

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
        "b, c, k, n, count",
        [
            (2.0, 1.0, 3, 3, 5),
            (1.0, 1.0, 4, 2, 6),
            (1.5, 1.0, 3, 2, 5),
            (2.0, -1.0, 3, 2, 4),
            (2.5, -1.0, 3, 3, 3),
            (0.5, 1.0, 4, 2, 6),
            (2.5078960234123966, -1.0, 5, 5, 5),
            (-2.3294154425619276, 1.0, 5, 4, 7),
            (-3.0817953258295665, -1.0, 7, 7, 9),
        ],
    )
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
        v, fz, gz = _jet(p, rec.location)
        r = _certificate_radius(maj, rec.location, fz, gz)
        assert _kantorovich_step(maj, rec.location, r, v, fz, gz) is not None
        others = [o for o in report.zeros if o is not rec]
        assert all(abs(o.location - rec.location) >= r for o in others)
    if report.bound is not None and report.bound.upper_is_proven:
        assert report.n_certified <= report.bound.upper
    if report.winding_check == "passed":
        assert report.n_certified == report.count


unit_offset = st.floats(min_value=-1.0, max_value=1.0)
offsets = st.lists(st.tuples(unit_offset, unit_offset), min_size=1, max_size=4)


@given(instances(), offsets)
@settings(max_examples=40, deadline=None)
def test_cells_holding_a_certified_zero_are_kept(p, offsets):
    # The certificate at a reported zero z0 (kappa <= 1/4) puts the zero
    # within eta/(1 - kappa) of z0, eta the exact Newton step: at most the
    # computed |z1 - z0| plus the rounding of q(z0) over sigma.  e doubles
    # that.  Every cell that holds D(z0, e), checked in exact arithmetic,
    # must survive both exclusion stages.
    report = find_zeros(p)
    maj = _Majorant(p)
    cell = _cell_test(p, maj)
    tested = 0
    for rec in report.zeros:
        if not rec.certified:
            continue
        z0 = rec.location
        v, fz, gz = _jet(p, z0)
        r = _certificate_radius(maj, z0, fz, gz)
        z1 = _kantorovich_step(maj, z0, r, v, fz, gz)
        assert z1 is not None
        sigma = abs(abs(fz) - abs(gz))
        e = 2.0 * (abs(z1 - z0) + maj.gamma * maj.value(abs(z0)) / sigma)
        assert e < r
        for decade in range(-16, 0):
            half = 10.0**decade
            for ox, oy in offsets:
                center = z0 + complex(ox, oy) * (half - e)
                reach = Fraction(e) - Fraction(half)
                if (
                    abs(Fraction(center.real) - Fraction(z0.real)) + reach > 0
                    or abs(Fraction(center.imag) - Fraction(z0.imag)) + reach > 0
                ):
                    continue  # the cell does not hold D(z0, e)
                tested += 1
                kept, _ = cell(center, half)
                assert kept, (z0, center, half)
    if report.n_certified:
        assert tested > 0
