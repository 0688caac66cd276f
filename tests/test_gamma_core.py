import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import gamma as scipy_gamma

from steadychaos import (
    GammaParams,
    central_moment3,
    central_moment4,
    fit_from_moments,
    gamma_pdf,
    laplace_moment,
    raw_moment,
)

EPS = 2.0**-52
GRID_K = (0.3, 1.0, 2.0, 10.0, 100.0)
GRID_THETA = (0.1, 1.0, 3.0)

shapes = st.floats(min_value=1e-2, max_value=1e4)
scales = st.floats(min_value=1e-3, max_value=1e3)


def exact_raw_moments(k: float, theta: float, n_max: int) -> list[Fraction]:
    """Rational-arithmetic rising-factorial moments, exact for float inputs."""
    K, T = Fraction(k), Fraction(theta)
    return [T**n * math.prod([K + j for j in range(n)]) for n in range(n_max + 1)]


class TestParams:
    def test_mean_variance(self):
        p = GammaParams(2.0, 3.0)
        assert p.mean() == 6.0
        assert p.variance() == 18.0

    @pytest.mark.parametrize("k,theta", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0)])
    def test_rejects_bad_params(self, k, theta):
        with pytest.raises(ValueError):
            GammaParams(k, theta)


class TestPdf:
    def test_exponential_special_case(self):
        assert gamma_pdf(1.0, GammaParams(1.0, 1.0)) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            gamma_pdf(0.0, GammaParams(2.0, 1.0))
        with pytest.raises(ValueError):
            gamma_pdf(-1.0, GammaParams(2.0, 1.0))

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_rejects_nonfinite_x(self, x):
        with pytest.raises(ValueError, match="finite x > 0"):
            gamma_pdf(x, GammaParams(2.0, 1.0))

    def test_overflow_reported(self):
        # x^{k-1} at the smallest subnormal exceeds the float range for k = 0.01
        with pytest.raises(OverflowError, match="exceeds float range"):
            gamma_pdf(5e-324, GammaParams(0.01, 1.0))

    def test_lgamma_vs_mpmath(self):
        # absolute error scaled by 1 + |ln Gamma(k)|: ln Gamma has zeros at
        # k = 1 and 2, where no relative bound holds
        with mpmath.workdps(40):
            for j in range(-60, 71):
                k = 10.0 ** (j / 10)
                exact = mpmath.loggamma(mpmath.mpf(k))
                err = abs(mpmath.mpf(math.lgamma(k)) - exact)
                assert err <= 4 * EPS * (1 + abs(exact)), k

    @pytest.mark.parametrize("k", [1e-6, 1e-3, 0.5, 1.5, 2.0, 10.0, 1e3, 1e6, 1e7])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 3.0])
    def test_pdf_vs_mpmath(self, k, theta):
        p = GammaParams(k, theta)
        mean, sd = k * theta, math.sqrt(k) * theta
        points = [x for x in ((k - 1.0) * theta, mean, mean - 3 * sd, mean + 3 * sd) if x > 0]
        with mpmath.workdps(40):
            K, T = mpmath.mpf(k), mpmath.mpf(theta)
            for x in points:
                X = mpmath.mpf(x)
                exact = mpmath.exp((K - 1) * mpmath.log(X) - X / T - mpmath.loggamma(K) - K * mpmath.log(T))
                # conditioning of the log-space sum: each term's rounding
                # becomes a relative error of the density
                cond = 1 + abs(mpmath.loggamma(K)) + abs((K - 1) * mpmath.log(X)) + X / T + abs(K * mpmath.log(T))
                assert abs(gamma_pdf(x, p) - exact) <= 16 * EPS * cond * exact, (x, k, theta)

    @pytest.mark.parametrize("k", GRID_K)
    def test_normalization(self, k):
        p = GammaParams(k, 1.3)
        cut = scipy_gamma.ppf(1.0 - 1e-12, k, scale=1.3)
        total, _ = integrate.quad(lambda x: gamma_pdf(x, p), 0.0, cut, limit=300, epsabs=1e-10)
        assert abs(total - 1.0) < 1e-8

    def test_integrable_singularity_below_k1(self):
        p = GammaParams(0.5, 2.0)
        assert gamma_pdf(0.5, p) > 0.0
        cut = scipy_gamma.ppf(1.0 - 1e-12, 0.5, scale=2.0)
        total, _ = integrate.quad(lambda x: gamma_pdf(x, p), 0.0, cut, limit=300, epsabs=1e-10)
        assert abs(total - 1.0) < 1e-8

    def test_large_k_no_overflow(self):
        p = GammaParams(1e6, 1.0)
        val = gamma_pdf(1e6, p)
        assert math.isfinite(val) and val > 0.0


class TestRawMoment:
    def test_zeroth(self):
        assert raw_moment(GammaParams(7.0, 0.2), 0) == 1.0

    def test_second_moment_closed_form(self):
        # k(k+1) theta^2
        assert raw_moment(GammaParams(2.0, 3.0), 2) == pytest.approx(54.0, rel=1e-14)

    def test_third_moment_vs_quadrature(self, quad_moment):
        p = GammaParams(2.0, 3.0)
        assert raw_moment(p, 3) == pytest.approx(648.0, rel=1e-12)
        assert raw_moment(p, 3) == pytest.approx(quad_moment(p, 3, 0.0), rel=1e-10)

    @given(k=shapes, theta=scales)
    @settings(max_examples=100)
    def test_recurrence(self, k, theta):
        p = GammaParams(k, theta)
        for n in range(9):
            assert raw_moment(p, n + 1) == pytest.approx((k + n) * theta * raw_moment(p, n), rel=1e-12)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            raw_moment(GammaParams(1.0, 1.0), -1)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError, match=r"^raw moment n=4 of Gamma\(k=1.0, theta=1e\+300\) exceeds float range$"):
            raw_moment(GammaParams(1.0, 1e300), 4)

    def test_correctly_rounded_near_the_float_maximum(self):
        # (1e100)^3 as one product; a log-space sum gave 1.00000000000009e+300
        assert raw_moment(GammaParams(1e100, 1.0), 3) == 1e300

    def test_top_of_the_float_range_against_exact_product(self):
        # moments with ln E[X^n] in [0.95, 1.01] ln(max float): the product
        # keeps n roundings, and overflows exactly where the moment does
        rng = np.random.default_rng(20)
        log_max = math.log(sys.float_info.max)
        overflowed = 0
        for _ in range(1500):
            n = int(rng.integers(1, 13))
            k = float(10.0 ** rng.uniform(-3.0, 300.0 / n))
            log_m = rng.uniform(0.95, 1.01) * log_max
            log_theta = (log_m - math.fsum(math.log(k + j) for j in range(n))) / n
            if log_theta > 700.0:  # theta itself near the float maximum
                continue
            theta = math.exp(log_theta)
            exact = exact_raw_moments(k, theta, n)[n]
            try:
                want = float(exact)
            except OverflowError:
                overflowed += 1
                with pytest.raises(OverflowError, match=f"^raw moment n={n} "):
                    raw_moment(GammaParams(k, theta), n)
                continue
            got = Fraction(raw_moment(GammaParams(k, theta), n))
            assert abs(got - exact) <= 2 * n * EPS * exact, (k, theta, n, float(got / exact - 1))
        assert 0 < overflowed < 1500


class TestLaplaceMoment:
    @given(k=shapes, theta=scales, n=st.integers(min_value=0, max_value=6))
    @settings(max_examples=100)
    def test_s_zero_reduces_to_raw(self, k, theta, n):
        p = GammaParams(k, theta)
        assert laplace_moment(p, n, 0.0) == raw_moment(p, n)

    def test_known_values(self):
        assert laplace_moment(GammaParams(2.0, 1.0), 1, 1.0) == pytest.approx(0.25, rel=1e-13)
        assert laplace_moment(GammaParams(3.0, 0.5), 0, 2.0) == pytest.approx(0.125, rel=1e-13)

    def test_vs_quadrature(self, quad_moment):
        for p, n, s in [
            (GammaParams(2.0, 1.0), 1, 1.0),
            (GammaParams(3.0, 0.5), 0, 2.0),
            (GammaParams(0.7, 2.5), 2, 0.3),
        ]:
            assert laplace_moment(p, n, s) == pytest.approx(quad_moment(p, n, s), rel=1e-10)

    def test_rejects_negative_s(self):
        with pytest.raises(ValueError):
            laplace_moment(GammaParams(1.0, 1.0), 1, -0.1)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError, match="laplace moment n=4"):
            laplace_moment(GammaParams(1.0, 1e300), 4, 1e-320)


class TestCentralMoments:
    def test_values(self):
        assert central_moment3(GammaParams(3.0, 2.0)) == 48.0
        assert central_moment3(GammaParams(1.0, 1.0)) == 2.0
        assert central_moment4(GammaParams(2.0, 1.0)) == 24.0
        assert central_moment4(GammaParams(6.0, 1.0)) == pytest.approx(144.0, rel=1e-14)

    def test_raw_moment_combination_small_k(self):
        # checks the (k+2)(k+1) - 3k(k+1) + 2k^2 = 2 cancellation directly
        p = GammaParams(2.0, 1.0)
        m = [raw_moment(p, n) for n in range(5)]
        c3 = m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3
        c4 = m[4] - 4 * m[1] * m[3] + 6 * m[1] ** 2 * m[2] - 3 * m[1] ** 4
        assert central_moment3(p) == pytest.approx(c3, rel=1e-12)
        assert central_moment3(p) == 4.0
        assert central_moment4(p) == pytest.approx(c4, rel=1e-12)

    @pytest.mark.parametrize("k", GRID_K)
    @pytest.mark.parametrize("theta", GRID_THETA)
    def test_raw_moment_expansion_exact(self, k, theta):
        # expansion assembled in rationals: no cancellation in the oracle
        m = exact_raw_moments(k, theta, 4)
        c3 = m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3
        c4 = m[4] - 4 * m[1] * m[3] + 6 * m[1] ** 2 * m[2] - 3 * m[1] ** 4
        p = GammaParams(k, theta)
        assert central_moment3(p) == pytest.approx(float(c3), rel=1e-12)
        assert central_moment4(p) == pytest.approx(float(c4), rel=1e-12)

    @given(k=shapes, theta=scales)
    @settings(max_examples=100)
    def test_scaling_identities(self, k, theta):
        p = GammaParams(k, theta)
        var = p.variance()
        assert central_moment3(p) / var**1.5 == pytest.approx(2.0 / math.sqrt(k), rel=1e-12)
        assert central_moment4(p) / var**2 == pytest.approx(3.0 + 6.0 / k, rel=1e-12)


class TestSample:
    """NumPy's gamma sampler, which the package draws from, against the
    moments above."""

    def test_mean_within_4_se(self):
        p = GammaParams(4.0, 0.5)
        draws = np.random.default_rng(11).gamma(p.k, p.theta, size=10**6)
        se = math.sqrt(p.variance() / len(draws))
        assert abs(draws.mean() - 2.0) < 4 * se

    def test_small_k_variance_within_5_se(self):
        p = GammaParams(0.3, 1.0)
        draws = np.random.default_rng(12).gamma(p.k, p.theta, size=10**6)
        se_var = math.sqrt((central_moment4(p) - p.variance() ** 2) / len(draws))
        assert abs(draws.var(ddof=1) - 0.3) < 5 * se_var

    def test_third_central_moment_within_5_se(self):
        p = GammaParams(2.0, 0.7)
        n = 10**6
        draws = np.random.default_rng(13).gamma(p.k, p.theta, size=n)
        m3 = ((draws - draws.mean()) ** 3).mean()
        # SE of the third central moment estimator from the sample itself
        dev = (draws - draws.mean()) ** 3
        se = dev.std(ddof=1) / math.sqrt(n)
        assert abs(m3 - central_moment3(p)) < 5 * se

    def test_deterministic_for_fixed_stream(self):
        p = GammaParams(0.8, 2.0)
        a = np.random.default_rng(99).gamma(p.k, p.theta, size=100)
        b = np.random.default_rng(99).gamma(p.k, p.theta, size=100)
        assert np.array_equal(a, b)


class TestFitFromMoments:
    def test_known_values(self):
        p = fit_from_moments(6.0, 18.0)
        assert (p.k, p.theta) == (2.0, 3.0)
        p = fit_from_moments(1.0, 1.0)
        assert (p.k, p.theta) == (1.0, 1.0)

    @given(k=shapes, theta=scales)
    @settings(max_examples=100)
    def test_round_trip(self, k, theta):
        p = GammaParams(k, theta)
        q = fit_from_moments(p.mean(), p.variance())
        assert q.k == pytest.approx(k, rel=1e-14)
        assert q.theta == pytest.approx(theta, rel=1e-14)

    @pytest.mark.parametrize("mean,var", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0)])
    def test_rejects_nonpositive(self, mean, var):
        with pytest.raises(ValueError):
            fit_from_moments(mean, var)
