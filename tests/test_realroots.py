import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadzero import (
    RealPoly,
    deflate_at_one,
    positive_root_bracketed,
    sign_changes,
)
from quadzero.errors import NoSignChange, NonConvergence, NotARootAtOne, ZeroPolynomial
from quadzero.realroots import first_true


def poly(*ascending):
    return RealPoly.from_coeffs(ascending)


class TestRealPoly:
    def test_trailing_zeros_trimmed(self):
        p = poly(1.0, 2.0, 0.0, 0.0)
        assert p.degree == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            poly(0.0, 0.0)

    @pytest.mark.parametrize(
        "coeffs, error, message",
        [
            ((), ZeroPolynomial, "empty"),
            ((math.nan,), ValueError, "finite"),
            ((1.0, 0.0), ValueError, "leading coefficient"),
        ],
        ids=["empty", "nan", "untrimmed"],
    )
    def test_constructor_rejects(self, coeffs, error, message):
        with pytest.raises(error, match=message):
            RealPoly(coeffs)

    def test_horner_evaluation(self):
        p = poly(3.0, 0.0, -5.0, 0.0, 0.0, 2.0)  # 2x^5 - 5x^2 + 3
        assert p(1.0) == pytest.approx(0.0)
        assert p(2.0) == pytest.approx(64.0 - 20.0 + 3.0)


class TestSignChanges:
    def test_radius_polynomial_has_two(self):
        # 2x^5 - 5x^4 + 3
        assert sign_changes(poly(3.0, 0.0, 0.0, 0.0, -5.0, 2.0)) == 2

    def test_all_positive_has_none(self):
        assert sign_changes(poly(1.0, 1.0, 1.0)) == 0

    def test_deflated_quotient_has_one(self):
        # 2x^4 - 3x^3 - 3x^2 - 3x - 3
        assert sign_changes(poly(-3.0, -3.0, -3.0, -3.0, 2.0)) == 1


class TestDeflateAtOne:
    def test_radius_polynomial(self):
        p = poly(3.0, 0.0, 0.0, 0.0, -5.0, 2.0)  # 2x^5 - 5x^4 + 3
        q = deflate_at_one(p)
        assert q.coeffs == pytest.approx((-3.0, -3.0, -3.0, -3.0, 2.0))

    def test_simple_difference_of_squares(self):
        assert deflate_at_one(poly(-1.0, 0.0, 1.0)).coeffs == pytest.approx(
            (1.0, 1.0)
        )

    def test_rejects_non_root(self):
        with pytest.raises(NotARootAtOne):
            deflate_at_one(poly(1.0, 0.0, 1.0))  # x^2 + 1


def bisect_root(f, lo, hi, iters=200):
    """Independent bisection oracle."""
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPositiveRootBracketed:
    def test_deflated_radius_quotient(self):
        p = poly(-3.0, -3.0, -3.0, -3.0, 2.0)
        # oracle: p(2) = -13, p(2.5) = +2
        assert p(2.0) == pytest.approx(-13.0)
        assert p(2.5) == pytest.approx(2.0)
        expected = bisect_root(p, 2.0, 2.5)
        root = positive_root_bracketed(p)
        assert root == pytest.approx(expected, abs=1e-12)
        assert root == pytest.approx(2.458972346378018, abs=1e-9)
        assert abs(p(root)) <= 1e-13 * sum(
            abs(a) for a in p.coeffs
        ) * max(1.0, root) ** p.degree

    def test_linear(self):
        assert positive_root_bracketed(poly(-2.0, 1.0)) == pytest.approx(2.0)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            positive_root_bracketed(poly(1.0, 1.0))


class TestFirstTrue:
    def test_switch_found_to_the_float(self):
        assert first_true(lambda x: x >= 3.0, 1.0) == 3.0
        assert first_true(lambda x: x > 1e300, 0.0) == math.nextafter(1e300, math.inf)
        assert first_true(lambda x: x > 0.0, 0.0) == 5e-324

    def test_true_at_start(self):
        assert first_true(lambda x: True, 1.0) == 1.0

    def test_never_true_raises(self):
        with pytest.raises(NonConvergence):
            first_true(lambda x: False, 0.0)


@st.composite
def one_sign_change_polys(draw):
    """Negative low coefficients, positive high ones, maybe a factor x^t,
    and an overall sign; zeros may sit anywhere but at the top."""
    mags = st.floats(min_value=1e-3, max_value=1e3)
    some = st.lists(st.one_of(st.just(0.0), mags), max_size=4)
    low = [-a for a in draw(some) + [draw(mags)]]
    high = draw(some) + [draw(mags)]
    t = draw(st.integers(min_value=0, max_value=2))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    return RealPoly.from_coeffs([sign * a for a in [0.0] * t + low + high])


@given(one_sign_change_polys())
@settings(max_examples=200, deadline=None)
def test_root_is_where_the_sign_switches(p):
    # No float is left between the answer and the last point below the root.
    lead = p.coeffs[-1]
    x = positive_root_bracketed(p)
    assert p(x) * lead > 0
    assert not p(math.nextafter(x, 0.0)) * lead > 0


@st.composite
def positive_rooted_polys(draw):
    """Product of (x - r_i) with r_i > 0 and a positive-definite quadratic."""
    roots = draw(
        st.lists(st.floats(min_value=0.05, max_value=10.0), min_size=1, max_size=4)
    )
    # (x - a)^2 + b with b > 0 has no real roots
    a = draw(st.floats(min_value=-3, max_value=3))
    b = draw(st.floats(min_value=0.1, max_value=5))
    coeffs = [a * a + b, -2 * a, 1.0]
    for r in roots:
        new = [0.0] * (len(coeffs) + 1)
        for i, ci in enumerate(coeffs):
            new[i] += -r * ci
            new[i + 1] += ci
        coeffs = new
    return RealPoly.from_coeffs(coeffs), len(roots)


@given(positive_rooted_polys())
@settings(max_examples=150, deadline=None)
def test_descartes_soundness(arg):
    p, n_pos = arg
    s = sign_changes(p)
    assert n_pos <= s
    assert (s - n_pos) % 2 == 0


@given(
    st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        min_size=2,
        max_size=8,
    )
)
@settings(max_examples=150, deadline=None)
def test_deflation_exactness(coeffs):
    # force p(1) = 0 by appending the negated coefficient sum
    coeffs = coeffs + [-sum(coeffs)]
    if coeffs[-1] == 0.0:
        coeffs[-1] = 1.0
        coeffs.append(-sum(coeffs))
        if coeffs[-1] == 0.0:
            return
    p = RealPoly.from_coeffs(coeffs)
    if abs(p(1.0)) >= 1e-12 * sum(abs(a) for a in p.coeffs):
        return  # rounding already broke exactness; out of contract
    q = deflate_at_one(p)
    # expand (x - 1) * q and compare coefficient-wise
    expanded = [0.0] * (q.degree + 2)
    for i, a in enumerate(q.coeffs):
        expanded[i] -= a
        expanded[i + 1] += a
    scale = max(1.0, max(abs(a) for a in p.coeffs))
    for got, want in zip(expanded, list(p.coeffs) + [0.0] * 2):
        assert got == pytest.approx(want, abs=1e-11 * scale)
