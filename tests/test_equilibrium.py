import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from steadychaos import (
    GammaParams,
    InfeasibleError,
    NoRootError,
    NoiseSpec,
    laplace_moment,
    logistic_feasibility,
    logistic_quadratic_residual,
    logistic_solve,
    raw_moment,
    ricker_noise_bound,
    ricker_residual,
    ricker_solve,
    ricker_theta,
)

# frozen from a 40-digit evaluation of the closed form
LOGISTIC_K2_V01_PLUS = 2.0431293675255978
LOGISTIC_K2_V01_MINUS = 1.1568706324744022
# frozen from a 40-digit root find of 2 e^{r/2} - e^{2r/3} - 1
RICKER_K1_ROOT = 3.6562671806160374

FEASIBILITY_K = (0.01, 1.0, 2.0, 10.0, 100.0)


class TestNoiseSpec:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(0.1, family="cauchy")

    def test_defaults(self):
        spec = NoiseSpec(0.2)
        assert spec.family == "gamma"


class TestLogisticFeasibility:
    def test_bound_k2(self):
        feasible, bound = logistic_feasibility(2.0, 0.3)
        assert bound == 0.25
        assert not feasible

    def test_bound_small_k(self):
        feasible, bound = logistic_feasibility(0.01, 0.4)
        assert bound == pytest.approx(1.0 / 2.01, rel=1e-15)
        assert feasible

    def test_half_cap(self):
        _, bound = logistic_feasibility(0.001, 0.0)
        assert bound == pytest.approx(1 / 2.001)
        # the 0.5 cap binds only for k below 0; min(1/(k+2), 0.5) = 1/(k+2) here
        assert logistic_feasibility(1e-12, 0.0)[1] <= 0.5

    def test_boundary_is_feasible(self):
        k = 2.0
        assert logistic_feasibility(k, 1.0 / (k + 2.0))[0]

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            logistic_feasibility(0.0, 0.1)
        with pytest.raises(ValueError):
            logistic_feasibility(1.0, -0.1)


class TestLogisticSolve:
    def test_degenerate_noise(self):
        sol = logistic_solve(1.0, 0.0)
        plus, minus = sol.branches
        assert plus.r == 2.0 and plus.label == "plus"
        assert minus.r == 1.0 and minus.label == "minus"
        assert minus.degenerate and minus.theta == 0.0
        # nontrivial branch matches (3k+5)/(k+3)
        assert plus.r == pytest.approx((3 * 1 + 5) / (1 + 3), rel=1e-15)

    def test_frozen_high_precision_values(self):
        sol = logistic_solve(2.0, 0.1)
        assert sol.branches[0].r == pytest.approx(LOGISTIC_K2_V01_PLUS, rel=1e-14)
        assert sol.branches[1].r == pytest.approx(LOGISTIC_K2_V01_MINUS, rel=1e-14)
        for b in sol.branches:
            assert abs(logistic_quadratic_residual(b.r, 2.0, 0.1)) < 1e-12

    def test_boundary_double_root(self):
        sol = logistic_solve(2.0, 0.25)
        assert sol.branches[0].r == pytest.approx(1.6, rel=1e-14)
        assert sol.branches[1].r == pytest.approx(1.6, rel=1e-14)

    def test_infeasible_raises_with_bound(self):
        with pytest.raises(InfeasibleError) as err:
            logistic_solve(2.0, 0.3)
        assert err.value.bound == 0.25

    @pytest.mark.parametrize("k", FEASIBILITY_K)
    def test_residual_and_range_over_grid(self, k):
        bound = logistic_feasibility(k, 0.0)[1]
        cap = (3 * k + 5) / (k + 3)
        for v in np.linspace(0.0, bound, 20):
            sol = logistic_solve(k, float(v))
            rp, rm = sol.branches[0].r, sol.branches[1].r
            assert abs(logistic_quadratic_residual(rp, k, float(v))) < 1e-10
            assert abs(logistic_quadratic_residual(rm, k, float(v))) < 1e-10
            assert 1.0 <= rm + 1e-12
            assert rm <= rp <= cap + 1e-12
            assert cap < 3.0

    @pytest.mark.parametrize("k", FEASIBILITY_K)
    def test_mean_stationarity_identity(self, k):
        # mu (1 - r) = -r E[X^2] with theta from the solved branch
        for v in (0.0, 0.05, 0.1):
            feasible, _ = logistic_feasibility(k, v)
            if not feasible:
                continue
            sol = logistic_solve(k, v)
            for b in sol.branches:
                if b.degenerate:
                    continue
                p = GammaParams(k, b.theta)
                lhs = p.mean() * (1.0 - b.r)
                rhs = -b.r * raw_moment(p, 2)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_theta_positive_for_growing_branches(self):
        for k in FEASIBILITY_K:
            bound = logistic_feasibility(k, 0.0)[1]
            sol = logistic_solve(k, min(0.05, 0.5 * bound))
            for b in sol.branches:
                if b.r > 1.0:
                    assert b.theta > 0.0

    def test_trivial_root_residual_all_k(self):
        for k in (0.2, 1.0, 5.0, 50.0):
            assert logistic_quadratic_residual(1.0, k, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert logistic_quadratic_residual(2.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)


class TestRickerResidual:
    def test_trivial_root(self):
        for k in (0.3, 1.0, 7.0, 100.0):
            assert ricker_residual(0.0, k, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_values(self):
        assert ricker_residual(0.0, 1.0, 0.1) == pytest.approx(-0.032280115456367159, rel=1e-13)
        assert ricker_residual(3.0, 1.0, 0.0) == pytest.approx(0.57432204174547942, rel=1e-13)

    def test_vectorized(self):
        vals = ricker_residual(np.array([0.0, 3.0]), 1.0, 0.0)
        assert vals.shape == (2,)
        assert vals[0] == pytest.approx(0.0, abs=1e-15)


class TestRickerSolve:
    def test_k1_no_noise_single_root(self):
        sol = ricker_solve(1.0, 0.0)
        assert len(sol.branches) == 1
        b = sol.branches[0]
        assert b.r == pytest.approx(RICKER_K1_ROOT, abs=1e-9)
        assert abs(ricker_residual(b.r, 1.0, 0.0)) < 1e-10
        # independent oracle: brentq on the directly-written equation
        oracle = brentq(lambda r: 2 * math.exp(r / 2) - math.exp(2 * r / 3) - 1, 1.0, 6.0, xtol=1e-13)
        assert b.r == pytest.approx(oracle, abs=1e-10)

    def test_k100_root_in_expected_window(self):
        sol = ricker_solve(100.0, 0.0)
        assert len(sol.branches) == 1
        assert 2.0 < sol.branches[0].r < 2.5

    def test_two_branches_with_noise(self):
        sol = ricker_solve(1.0, 0.05)
        assert len(sol.branches) == 2
        rp, rm = sol.branches[0].r, sol.branches[1].r
        assert rm < 2.0 < rp
        for b in sol.branches:
            assert abs(ricker_residual(b.r, 1.0, 0.05)) < 1e-10

    def test_monotone_decreasing_in_k_above_two(self):
        ks = (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0)
        roots = [ricker_solve(k, 0.0).branches[0].r for k in ks]
        assert all(r > 2.0 for r in roots)
        assert all(a > b for a, b in zip(roots, roots[1:]))

    def test_no_root_error_reports_interval(self):
        # k=0.1 at var_eps=0 has its only root near r ~ 26, beyond r_max
        with pytest.raises(NoRootError) as err:
            ricker_solve(0.1, 0.0)
        assert (err.value.r_lo, err.value.r_hi) == (0.0, 10.0)

    def test_above_bound_is_infeasible(self):
        with pytest.raises(InfeasibleError) as err:
            ricker_solve(1.0, 5.0)
        assert err.value.bound == pytest.approx(11.0 / 16.0, rel=1e-15)

    def test_root_beyond_rmax_reported(self):
        # k=0.01 at var_eps=0 has its root near r ~ 140
        with pytest.raises(NoRootError) as err:
            ricker_solve(0.01, 0.0, r_max=10.0)
        assert "beyond" in str(err.value)
        sol = ricker_solve(0.01, 0.0, r_max=200.0)
        assert sol.branches[0].r > 2.0

    def test_stationarity_system(self):
        # 1 + r theta = e^{r/(k+1)} and (1+2 r theta)^{k+2} = (1+v) e^{2r}
        for k, v in [(1.0, 0.0), (1.0, 0.05), (2.0, 0.1), (10.0, 0.02)]:
            sol = ricker_solve(k, v)
            for b in sol.branches:
                lhs = 1.0 + b.r * b.theta
                assert lhs == pytest.approx(math.exp(b.r / (k + 1.0)), rel=1e-10)
                log_lhs = (k + 2.0) * math.log1p(2.0 * b.r * b.theta)
                log_rhs = math.log1p(v) + 2.0 * b.r
                assert log_lhs == pytest.approx(log_rhs, abs=1e-9)

    def test_bound_var_is_existence_threshold(self):
        bound = ricker_noise_bound(1.0)
        assert len(ricker_solve(1.0, bound - 1e-4).branches) == 2
        with pytest.raises(InfeasibleError):
            ricker_solve(1.0, bound + 1e-4)

    def test_bound_below_tangency_depends_on_r_max(self):
        # r_max = 0.5 lies below the tangency r* = 2 ln 2: the bound is the
        # variance whose minus root sits at r_max; above it the roots exist
        # but lie beyond r_max
        bound = ricker_noise_bound(1.0, r_max=0.5)
        assert bound < ricker_noise_bound(1.0)
        sol = ricker_solve(1.0, bound * (1.0 - 1e-9), r_max=0.5)
        assert [b.label for b in sol.branches] == ["minus"]
        assert sol.branches[0].r == pytest.approx(0.5, rel=1e-6)
        assert sol.bound_var == bound
        with pytest.raises(NoRootError):
            ricker_solve(1.0, bound * (1.0 + 1e-9), r_max=0.5)

    def test_lone_root_labelled_by_side_of_tangency(self):
        # the plus root (~ 139) lies beyond r_max; the one in range is minus
        sol = ricker_solve(0.01, 0.1, r_max=10.0)
        assert len(sol.branches) == 1
        b = sol.branches[0]
        assert b.label == "minus"
        assert b.r == pytest.approx(0.0506, abs=1e-3)
        assert sol.roots_beyond_rmax

    def test_large_r_max_no_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = ricker_solve(1.0, 0.05, r_max=1500.0)
        assert [b.label for b in sol.branches] == ["plus", "minus"]
        assert sol.branches[0].r == pytest.approx(3.5222, abs=1e-4)
        assert sol.branches[1].r == pytest.approx(0.0507, abs=1e-4)
        assert not sol.roots_beyond_rmax


def _mp_ricker(r, k, v):
    return 2 * mpmath.exp(r / (k + 1)) - ((1 + v) * mpmath.exp(2 * r)) ** (1 / (k + 2)) - 1


def _mp_tangency(k):
    """(r*, v_max) where the residual and its r-derivative vanish together,
    by 50-digit Newton on the directly written equation."""
    k = mpmath.mpf(k)
    dr = lambda r, v: mpmath.diff(lambda x: _mp_ricker(x, k, v), r)
    guess = ((k + 1) * mpmath.log((k + 1) / k), ricker_noise_bound(float(k), r_max=math.inf))
    return mpmath.findroot([lambda r, v: _mp_ricker(r, k, v), dr], guess)


def _mp_roots(k, v, r_star):
    """50-digit (r+, r-) by bracketing either side of r*; r- is None at v = 0."""
    k, v = mpmath.mpf(k), mpmath.mpf(v)
    # scaled by the positive 2 e^{r/(k+1)} so that findroot's absolute
    # tolerance means the same at r ~ 140 as at r ~ 0.01
    f = lambda r: _mp_ricker(r, k, v) / (2 * mpmath.exp(r / (k + 1)))
    hi = 2 * r_star
    while f(hi) > 0:
        hi *= 2
    plus = mpmath.findroot(f, (r_star, hi), solver="illinois")
    minus = mpmath.findroot(f, (mpmath.mpf(0), r_star), solver="illinois") if v > 0 else None
    return plus, minus


def _rel_residual(r, k, v):
    # the residual divided by 2 e^{r/(k+1)}, in log space
    a = r / (k + 1.0)
    return 1.0 - 0.5 * math.exp((math.log1p(v) + 2.0 * r) / (k + 2.0) - a) - 0.5 * math.exp(-a)


class TestRickerOracles:
    def test_v_max_k1_is_eleven_sixteenths(self):
        assert ricker_noise_bound(1.0, r_max=math.inf) == pytest.approx(11.0 / 16.0, abs=1e-15)

    @pytest.mark.parametrize("k", (0.01, 0.1, 1.0, 10.0, 100.0))
    def test_roots_and_bound_against_mpmath(self, k):
        with mpmath.workdps(50):
            r_star, v_max = _mp_tangency(k)
            assert ricker_noise_bound(k, r_max=math.inf) == pytest.approx(float(v_max), rel=1e-14)
            for frac in (0.0, 1e-6, 0.3, 0.7, 0.99):
                v = frac * float(v_max)
                sol = ricker_solve(k, v, r_max=math.inf)
                plus, minus = _mp_roots(k, v, r_star)
                want = [("plus", plus)] + ([("minus", minus)] if minus is not None else [])
                assert [b.label for b in sol.branches] == [label for label, _ in want]
                for b, (_, r) in zip(sol.branches, want):
                    assert b.r == pytest.approx(float(r), rel=1e-13)

    def test_at_bound_both_branches_are_the_tangency(self):
        # v = v_max(1) = 11/16: the double root r* = 2 ln 2
        sol = ricker_solve(1.0, 11.0 / 16.0)
        assert [b.label for b in sol.branches] == ["plus", "minus"]
        for b in sol.branches:
            assert b.r == pytest.approx(2.0 * math.log(2.0), rel=1e-15)

    @given(
        k=st.floats(min_value=0.01, max_value=100.0),
        j=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=200)
    def test_near_bound_roots_straddle_tangency(self, k, j):
        v = ricker_noise_bound(k, r_max=math.inf) * (1.0 - 10.0 ** -j)
        p = 2.0 * (k + 1.0) / (k + 2.0)
        r_star = (k + 1.0) * math.log(p / (2.0 * (p - 1.0)))
        sol = ricker_solve(k, v, r_max=math.inf)
        plus, minus = sol.branches
        assert minus.r < r_star < plus.r
        for b in sol.branches:
            assert abs(_rel_residual(b.r, k, v)) <= 1e-10


class TestRickerTheta:
    def test_small_r_limit(self):
        k = 3.0
        assert ricker_theta(1e-9, k) == pytest.approx(1.0 / (k + 1.0), rel=1e-8)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            ricker_theta(0.0, 1.0)
        with pytest.raises(ValueError):
            ricker_theta(-1.0, 1.0)

    def test_mean_stationarity_via_laplace(self):
        sol = ricker_solve(1.0, 0.0)
        b = sol.branches[0]
        p = GammaParams(1.0, b.theta)
        ratio = math.exp(b.r) * laplace_moment(p, 1, b.r) / p.mean()
        assert ratio == pytest.approx(1.0, abs=1e-10)

    @given(
        r=st.floats(min_value=1e-3, max_value=20.0),
        k=st.floats(min_value=1e-2, max_value=1e3),
    )
    @settings(max_examples=100)
    def test_residual_rederivation(self, r, k):
        # substituting e^{r/(k+1)} = 1 + r*theta reproduces the defining
        # equation, validating the reconstructed theta formula
        theta = ricker_theta(r, k)
        for v in (0.0, 0.1):
            rebuilt = 2.0 * (1.0 + r * theta) - math.exp((math.log1p(v) + 2.0 * r) / (k + 2.0)) - 1.0
            assert rebuilt == pytest.approx(ricker_residual(r, k, v), rel=1e-12, abs=1e-12)

    def test_two_one_identity(self):
        for r, k in [(0.5, 1.0), (3.0, 2.0), (7.7, 0.3)]:
            theta = ricker_theta(r, k)
            assert 2.0 * (1.0 + r * theta) - (1.0 + 2.0 * r * theta) == pytest.approx(1.0, rel=1e-15)
