import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadzero import (
    HarmonicQuadrinomial,
    OrientationClass,
    analytic_derivative,
    classify_point,
    coanalytic_derivative,
    dilatation,
    evaluate,
    jacobian,
)
from quadzero.errors import PoleAtCriticalPoint

CUBIC = HarmonicQuadrinomial(b=0.0, c=0.0, k=1, n=3, m=1)  # q = conj(z)^3 + z


class TestConstruction:
    def test_rejects_n_not_greater_than_m(self):
        with pytest.raises(ValueError):
            HarmonicQuadrinomial(b=1.0, c=1.0, k=2, n=2, m=2)

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            HarmonicQuadrinomial(b=1.0, c=1.0, k=0, n=3, m=1)

    def test_rejects_non_integer_degrees(self):
        with pytest.raises(TypeError):
            HarmonicQuadrinomial(b=1.0, c=1.0, k=2.0, n=3, m=1)

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError):
            HarmonicQuadrinomial(b=math.inf, c=1.0, k=2, n=3, m=1)

    def test_zero_coefficients_admitted(self):
        HarmonicQuadrinomial(b=0.0, c=0.0, k=1, n=2, m=1)


class TestEvaluate:
    def test_origin_always_a_zero(self):
        assert evaluate(CUBIC, 0j) == 0j

    def test_eighth_root_of_unity_is_zero(self):
        # z^4 = -1 forces conj(z)^3 = -z on the unit circle
        z = cmath.exp(1j * math.pi / 4)
        assert abs(evaluate(CUBIC, z)) < 1e-15

    def test_all_terms_one_at_z_equals_one(self):
        p = HarmonicQuadrinomial(b=1.0, c=1.0, k=2, n=2, m=1)
        assert evaluate(p, 1 + 0j) == 4 + 0j

    def test_hand_expansion_at_i(self):
        # i^2 + (-i)^2 + (-i) + i = -2
        p = HarmonicQuadrinomial(b=1.0, c=1.0, k=2, n=2, m=1)
        v = evaluate(p, 1j)
        assert v.real == pytest.approx(-2.0)
        assert v.imag == pytest.approx(0.0)


class TestDerivatives:
    def test_analytic_derivative_direct(self):
        p = HarmonicQuadrinomial(b=2.0, c=0.0, k=2, n=3, m=1)
        assert analytic_derivative(p, 1 + 0j) == 5 + 0j

    def test_coanalytic_derivative_direct(self):
        p = HarmonicQuadrinomial(b=0.0, c=3.0, k=1, n=2, m=1)
        z = 0.81650j
        got = coanalytic_derivative(p, z)
        assert got == pytest.approx(3 + 2 * 0.81650j)

    def test_coanalytic_derivative_vanishes_at_origin_for_m_above_one(self):
        p = HarmonicQuadrinomial(b=0.0, c=5.0, k=1, n=4, m=2)
        assert coanalytic_derivative(p, 0j) == 0j

    def test_m_equals_one_gives_constant_c_at_origin(self):
        p = HarmonicQuadrinomial(b=0.0, c=7.0, k=1, n=3, m=1)
        assert coanalytic_derivative(p, 0j) == 7 + 0j


class TestJacobian:
    def test_at_origin(self):
        assert jacobian(CUBIC, 0j) == 1.0

    def test_on_unit_circle(self):
        z = cmath.exp(0.3j)
        assert jacobian(CUBIC, z) == pytest.approx(1.0 - 9.0)

    def test_degree_one_analytic_part_constant_h_prime(self):
        p = HarmonicQuadrinomial(b=2.0, c=0.0, k=1, n=3, m=1)
        for z in (0j, 1 + 2j, -0.5j):
            hp = analytic_derivative(p, z)
            assert hp == 3 + 0j


class TestDilatation:
    def test_zero_at_origin(self):
        assert dilatation(CUBIC, 0j) == 0j

    def test_unimodular_at_critical_circle_point(self):
        p = HarmonicQuadrinomial(b=2.0, c=3.0, k=2, n=2, m=1)
        z = 0.816496580927726j  # sqrt(2/3)
        assert abs(dilatation(p, z)) == pytest.approx(1.0, abs=1e-9)

    def test_pole_at_critical_point(self):
        p = HarmonicQuadrinomial(b=1.0, c=0.0, k=2, n=3, m=1)
        with pytest.raises(PoleAtCriticalPoint):
            dilatation(p, -0.5 + 0j)  # h' = 2z + 1 vanishes


class TestClassifyPoint:
    def test_sense_preserving_at_origin(self):
        assert classify_point(CUBIC, 0j) is OrientationClass.SENSE_PRESERVING

    def test_sense_reversing_on_unit_circle(self):
        z = cmath.exp(1j * math.pi / 4)
        assert classify_point(CUBIC, z) is OrientationClass.SENSE_REVERSING

    def test_singular_on_jacobian_null_circle(self):
        # |g'| = 3|z|^2 = 1 on |z| = 9^(-1/4)
        r = 9.0 ** (-0.25)
        z = r * cmath.exp(0.7j)
        assert classify_point(CUBIC, z) is OrientationClass.SINGULAR


finite_coeff = st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
)
points = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


@st.composite
def degrees(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    m = draw(st.integers(min_value=1, max_value=n - 1))
    return draw(st.integers(min_value=1, max_value=9)), n, m


# |z| from 1e-8 to 1e8, at any argument
wide_points = st.builds(
    lambda e, t: 10.0**e * cmath.exp(1j * t),
    st.floats(min_value=-8, max_value=8),
    st.floats(min_value=-math.pi, max_value=math.pi),
)


@given(b=finite_coeff, c=finite_coeff, kmn=degrees(), z=wide_points)
@settings(max_examples=400, deadline=None)
def test_conjugation_symmetry(b, c, kmn, z):
    # Real b, c make q commute with conjugation, and h' and g' too, and
    # bitwise so in floating point: the solver reports the mirror image of
    # each zero it finds with the conjugate of its location, and the same
    # residual, Jacobian and certificate.
    p = HarmonicQuadrinomial(b, c, *kmn)
    zb = z.conjugate()
    assert evaluate(p, zb) == evaluate(p, z).conjugate()
    assert analytic_derivative(p, zb) == analytic_derivative(p, z).conjugate()
    assert coanalytic_derivative(p, zb) == coanalytic_derivative(p, z).conjugate()
    assert jacobian(p, zb) == jacobian(p, z)


@given(b=finite_coeff, c=finite_coeff, z=points)
@settings(max_examples=200, deadline=None)
def test_dilatation_consistency(b, c, z):
    # |omega| < 1 iff J > 0 wherever h' != 0
    p = HarmonicQuadrinomial(b=b, c=c, k=3, n=4, m=2)
    try:
        w = abs(dilatation(p, z))
    except PoleAtCriticalPoint:
        return
    j = jacobian(p, z)
    slack = 1e-9 * max(1.0, abs(j))
    if w < 1 - 1e-9:
        assert j > -slack
    elif w > 1 + 1e-9:
        assert j < slack


@given(b=finite_coeff, z=points)
@settings(max_examples=200, deadline=None)
def test_jacobian_nonnegative_without_coanalytic_part(b, z):
    # with the co-analytic part removed, J = |h'|^2 >= 0
    p = HarmonicQuadrinomial(b=b, c=0.0, k=4, n=2, m=1)
    hp = analytic_derivative(p, z)
    assert abs(hp) ** 2 >= 0.0
