import math
import runpy
import sys
import warnings
from pathlib import Path

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
    logistic_noise_bound,
    logistic_quadratic_residual,
    logistic_solve,
    raw_moment,
    ricker_noise_bound,
    ricker_residual,
    ricker_solve,
    ricker_theta,
    solve,
)
from steadychaos import equilibrium
from steadychaos.equilibrium import FAMILIES, logistic_theta

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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_accepts_every_family(self, family):
        assert NoiseSpec(0.2, family=family).family == family


class TestLogisticFeasibility:
    def test_bound_k2(self):
        assert logistic_noise_bound(2.0) == 0.25
        with pytest.raises(InfeasibleError):
            logistic_solve(2.0, 0.3)

    def test_bound_small_k(self):
        assert logistic_noise_bound(0.01) == pytest.approx(1.0 / 2.01, rel=1e-15)
        logistic_solve(0.01, 0.4)

    def test_half_cap(self):
        # 1/(k+2) reaches 1/2 only in the limit k -> 0, so no 1/2 cap is needed
        assert logistic_noise_bound(0.001) == pytest.approx(1 / 2.001)
        assert logistic_noise_bound(1e-12) <= 0.5

    def test_boundary_is_feasible(self):
        k = 2.0
        sol = logistic_solve(k, logistic_noise_bound(k))
        assert sol.bound_var == logistic_noise_bound(k)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            logistic_noise_bound(0.0)
        with pytest.raises(ValueError):
            logistic_solve(1.0, -0.1)


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

    @pytest.mark.parametrize("k", [1e300, 1e308, 1.7e308])
    def test_k_near_the_float_maximum_against_mpmath(self, k):
        # 2k + 4 and r (1 + k) overflow from k ~ 9e307; at k = 1e308 the plus
        # branch is r = 3 with a subnormal theta
        for v in (0.0, 0.5 * logistic_noise_bound(k)):
            sol = logistic_solve(k, v)
            with mpmath.workdps(50):
                km, vm = mpmath.mpf(k), mpmath.mpf(v)
                half_width = (km + 1) * mpmath.sqrt((1 - vm * (km + 2)) / (vm + 1))
                for b, sign in zip(sol.branches, (1, -1)):
                    r = float((2 * km + 4 + sign * half_width) / (km + 3))
                    assert abs(b.r - r) <= math.ulp(r), (v, b.label)
                    if not b.degenerate:
                        rm = mpmath.mpf(b.r)
                        theta = float((rm - 1) / (rm * (1 + km)))
                        assert 0.0 < theta and abs(b.theta - theta) <= math.ulp(theta), (v, b.label)

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
        bound = logistic_noise_bound(k)
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
            if v > logistic_noise_bound(k):
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
            bound = logistic_noise_bound(k)
            sol = logistic_solve(k, min(0.05, 0.5 * bound))
            for b in sol.branches:
                if b.r > 1.0:
                    assert b.theta > 0.0

    def test_degenerate_iff_the_trivial_root(self):
        # r- = 1 exactly at v = 0 and never below 1; theta is (r-1)/(r(1+k)) on
        # every branch, and 0, the degenerate mark, only at r = 1. A 1e-10
        # tolerance on r once zeroed theta on branches at r = 1 + 5e-12. The
        # formula rounds r- of the two small k to 0.9999999999999999 at tiny v
        for k in [*np.geomspace(1e-6, 1e300, 300), 4.095492670900633e-06, 2.0237323614798062e-06]:
            k = float(k)
            for v in (0.0, 1e-17, 1e-16, 1e-15, 1e-13, 1e-11, 1e-9):
                if v > logistic_noise_bound(k):
                    continue
                plus, minus = logistic_solve(k, v).branches
                for b in (plus, minus):
                    assert b.theta == logistic_theta(b.r, k) >= 0.0, (k, v, b)
                    assert b.degenerate == (b.r == 1.0), (k, v, b)
                if v == 0.0:
                    assert minus.r == 1.0, k

    def test_trivial_root_residual_all_k(self):
        for k in (0.2, 1.0, 5.0, 50.0):
            assert logistic_quadratic_residual(1.0, k, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert logistic_quadratic_residual(2.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1e154, 1e200, 1e300, 1e308, 1.7976931348623157e308])
    def test_residual_at_huge_k_against_mpmath(self, k):
        # past k ~ 1.34e154 (k+1)^2 overflowed and the residual raised
        # OverflowError at these roots; a correct root's residual is about
        # 1e138 (k = 1e154) to 1e292 (k = 1e308), so it is measured relative to
        # the largest term
        bound = logistic_noise_bound(k)
        for v in (0.0, 1e-301 if k == 1e300 else 0.1 * bound, 0.5 * bound, bound):
            for b in logistic_solve(k, v).branches:
                got = logistic_quadratic_residual(b.r, k, v)
                assert math.isfinite(got), (k, v, b.label)
                with mpmath.workdps(60):
                    rm, km, vm = (mpmath.mpf(x) for x in (b.r, k, v))
                    terms = ((km + 3) * rm * rm, (4 * km + 8) * rm, 3 * km + 5 + vm / (vm + 1) * (km + 1) ** 2)
                    exact = terms[0] - terms[1] + terms[2]
                    largest = max(abs(t) for t in terms)
                    assert abs(got - exact) <= 1e-15 * largest, (k, v, b.label)
                    assert abs(got) <= 1e-15 * largest, (k, v, b.label)

    @given(
        log_k=st.floats(min_value=-300.0, max_value=154.1),
        r=st.floats(min_value=-1e3, max_value=1e3),
        v=st.floats(min_value=0.0, max_value=1e3),
    )
    @settings(max_examples=300)
    def test_residual_is_the_plain_quadratic_where_that_is_finite(self, log_k, r, v):
        # the scaling is exact: wherever the unscaled form is finite, so that
        # self-check's residuals stay as they were, the value is the same float
        k = 10.0**log_k
        try:
            plain = (k + 3.0) * r * r - (4.0 * k + 8.0) * r + (3.0 * k + 5.0 + v / (v + 1.0) * (k + 1.0) ** 2)
        except OverflowError:
            return
        if math.isfinite(plain):
            assert logistic_quadratic_residual(r, k, v) == plain


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
        with pytest.raises(NoRootError, match=r"^the roots of the Ricker equilibrium lie beyond r_max=10\.0$"):
            ricker_solve(0.1, 0.0)

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
    # 2 e^{r/(k+1)} - ((1+v) e^{2r})^{1/(k+2)} - 1, in expm1/log1p so that 1 + v
    # keeps its digits at v = 1e-300
    return 2 * mpmath.expm1(r / (k + 1)) - mpmath.expm1((mpmath.log1p(v) + 2 * r) / (k + 2))


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
    # f is of the order of ln(1+v) near the minus root: divided by it, findroot's
    # absolute tolerance is relative to that root at v = 1e-300 too; Anderson-Bjorck,
    # since Illinois takes a halving per step from the far end of (0, r*) there
    g = lambda r: f(r) / mpmath.log1p(v)
    minus = mpmath.findroot(g, (mpmath.mpf(0), r_star), solver="anderson") if v > 0 else None
    return plus, minus


def _rel_residual(r, k, v):
    # the residual divided by 2 e^{r/(k+1)}, in log space
    a = r / (k + 1.0)
    return 1.0 - 0.5 * math.exp((math.log1p(v) + 2.0 * r) / (k + 2.0) - a) - 0.5 * math.exp(-a)


class TestSolve:
    @pytest.mark.parametrize("k,v", [(0.01, 0.3), (2.0, 0.1), (100.0, 0.0)])
    def test_logistic_is_logistic_solve(self, k, v):
        assert solve("logistic", k, v) == logistic_solve(k, v)

    @pytest.mark.parametrize("k,v", [(0.5, 0.0), (1.0, 0.05), (10.0, 0.01)])
    def test_ricker_is_ricker_solve(self, k, v):
        assert solve("ricker", k, v) == ricker_solve(k, v)

    def test_passes_r_max_to_ricker(self):
        # k=0.1 at var_eps=0: one root, beyond the default r_max
        sol = solve("ricker", 0.1, 0.0, r_max=200.0)
        assert [(b.label, b.r) for b in sol.branches] == [("plus", 16.011694363437325)]
        with pytest.raises(NoRootError):
            solve("ricker", 0.1, 0.0)

    def test_unknown_kind_is_value_error(self):
        with pytest.raises(ValueError, match="unknown map kind 'henon'"):
            solve("henon", 1.0, 0.05)


class TestRickerOracles:
    def test_v_max_k1_is_eleven_sixteenths(self):
        assert ricker_noise_bound(1.0, r_max=math.inf) == pytest.approx(11.0 / 16.0, abs=1e-15)

    @pytest.mark.parametrize("k", (0.01, 0.1, 1.0, 10.0, 100.0))
    def test_roots_and_bound_against_mpmath(self, k):
        with mpmath.workdps(50):
            r_star, v_max = _mp_tangency(k)
            assert ricker_noise_bound(k, r_max=math.inf) == pytest.approx(float(v_max), rel=1e-14)
            fractions = [frac * float(v_max) for frac in (0.0, 1e-6, 0.3, 0.7, 0.99)]
            for v in fractions + [1e-300, 1e-100, 1e-20]:
                sol = ricker_solve(k, v, r_max=math.inf)
                plus, minus = _mp_roots(k, v, r_star)
                want = [("plus", plus)] + ([("minus", minus)] if minus is not None else [])
                assert [b.label for b in sol.branches] == [label for label, _ in want]
                for b, (_, r) in zip(sol.branches, want):
                    assert b.r == pytest.approx(float(r), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("k", (1e155, 1e160, 1e162, 1e163, 1e200, 1e300))
    def test_huge_k_root_and_bound_against_mpmath(self, k):
        # near the root s ~ 2/k, so q^2 = (1 - e^{-s})^2 is subnormal; the
        # log noise level cancels terms of size 1 down to 1/k, hence 2 log10(k)
        # digits more
        sol = solve("ricker", k, 0.0)
        with mpmath.workdps(int(2 * math.log10(k)) + 30):
            km = mpmath.mpf(k)
            log_var = lambda s: (km + 2) * mpmath.log(2 - mpmath.exp(-s)) - km * s
            s = mpmath.findroot(log_var, (1 / km, 3 / km), solver="illinois")
            root = float((km + 1) * s)
            v_max = float(mpmath.expm1(log_var(mpmath.log1p(1 / km))))
        [branch] = sol.branches
        assert abs(branch.r - root) <= 2 * math.ulp(root)
        assert sol.bound_var == pytest.approx(v_max, rel=1e-15)

    @pytest.mark.parametrize("k", (5e-324, 1e-310, 5e-309))
    def test_v_max_at_subnormal_k_against_mpmath(self, k):
        # 1/k overflows at each of these k, and the bound read -1.0 there; the
        # closed form tends to 3 as k -> 0
        with mpmath.workdps(50):
            km = mpmath.mpf(k)
            p = 2 * (km + 1) / (km + 2)
            v_max = float(((2 / p) * (2 * (p - 1) / p) ** (p - 1)) ** (km + 2) - 1)
        assert ricker_noise_bound(k, r_max=math.inf) == pytest.approx(v_max, rel=1e-13, abs=0.0)
        assert v_max == pytest.approx(3.0, rel=1e-12)

    @given(k=st.floats(min_value=5e-324, max_value=sys.float_info.max))
    @settings(max_examples=300)
    def test_v_max_is_nonnegative_for_every_k(self, k):
        assert ricker_noise_bound(k, r_max=math.inf) >= 0.0

    @given(
        log2_k=st.floats(min_value=-1074.0, max_value=1023.0),
        log10_ratio=st.floats(min_value=-3.0, max_value=3.0),
        frac=st.floats(min_value=0.0, max_value=1.2),
    )
    @settings(max_examples=300)
    def test_bounds_are_those_of_ricker_noise_bound(self, log2_k, log10_ratio, frac):
        # r_max on either side of the tangency r*; bound_var and the infeasible
        # bound read off the one tangency must be the standalone bounds exactly
        k = 2.0 ** log2_k
        r_max = (k + 1.0) * equilibrium._ricker_tangency(k) * 10.0 ** log10_ratio
        v_max = ricker_noise_bound(k, r_max=math.inf)
        try:
            sol = ricker_solve(k, frac * v_max, r_max=r_max)
        except InfeasibleError as exc:
            assert exc.bound == v_max
        except (NoRootError, OverflowError):
            pass
        else:
            assert sol.bound_var == ricker_noise_bound(k, r_max=r_max)

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


def _bisection_calls(f, pos, neg):
    """Evaluations of f that halving [pos, neg] to adjacent floats takes."""
    calls = 0
    while (mid := 0.5 * (pos + neg)) not in (pos, neg):
        calls += 1
        if f(mid) > 0.0:
            pos = mid
        else:
            neg = mid
    return calls


class TestRickerRoot:
    """The root routine behind ricker_solve, on the floating-point
    f(s) = L(s) - ln(1+v) that it solves."""

    @staticmethod
    def solved_s(k, v):
        """The s that each root call of ricker_solve(k, v) returns."""
        found = []
        root = equilibrium._ricker_root

        def recording(*args):
            found.append(root(*args))
            return found[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(equilibrium, "_ricker_root", recording)
            ricker_solve(k, v, r_max=math.inf)
        return found

    @staticmethod
    def counting(monkeypatch):
        calls = [0]
        log_var = equilibrium._ricker_log_var

        def counted(s, k):
            calls[0] += 1
            return log_var(s, k)

        monkeypatch.setattr(equilibrium, "_ricker_log_var", counted)
        return calls

    def assert_brackets_a_sign_change(self, k, v):
        log_var = math.log1p(v)
        positive = lambda s: equilibrium._ricker_log_var(s, k) - log_var > 0.0
        for s in self.solved_s(k, v):
            neighbours = (math.nextafter(s, -math.inf), math.nextafter(s, math.inf))
            assert any(positive(n) != positive(s) for n in neighbours), (k, v, s)

    @given(
        log10_k=st.floats(min_value=-2.0, max_value=3.0),
        frac=st.floats(min_value=0.0, max_value=1.0),
        j=st.integers(min_value=0, max_value=300),
        uniform=st.booleans(),
    )
    @settings(max_examples=300)
    def test_each_root_and_a_neighbour_bracket_a_sign_change(self, log10_k, frac, j, uniform):
        k = 10.0 ** log10_k
        v_max = ricker_noise_bound(k, r_max=math.inf)
        self.assert_brackets_a_sign_change(k, frac * v_max if uniform else v_max * 10.0 ** -j)

    @pytest.mark.parametrize("k", (0.01, 1.0, 10.0, 100.0))
    def test_figure_scan_roots_bracket_a_sign_change(self, k):
        # at k = 0.01 f rounds positive at the plus root's upper bound on 36 of
        # these 101 points, so the sign change lies past that bound in floats
        for v in np.linspace(0.0, 0.5, 101).tolist():
            if v <= ricker_noise_bound(k, r_max=math.inf):
                self.assert_brackets_a_sign_change(k, v)

    def test_figure_grid_takes_under_a_quarter_of_the_bisection_evaluations(self, monkeypatch, tmp_path):
        # bisection took 31 238 evaluations over the 101-step figures, and
        # Newton 5434 while each solve evaluated L at the tangency three times
        calls = self.counting(monkeypatch)
        monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--steps", "101",
                                          "--out-dir", str(tmp_path)])
        runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"),
                       run_name="__main__")
        assert 0 < calls[0] <= 4700

    def test_tiny_noise_takes_a_few_evaluations(self, monkeypatch):
        # bisection took 1104: the minus root is about 1e-300
        calls = self.counting(monkeypatch)
        ricker_solve(1.0, 1e-300)
        assert calls[0] <= 30

    @pytest.mark.parametrize("k", np.geomspace(1e155, 1e300, 8).tolist())
    def test_huge_k_takes_no_more_evaluations_than_bisection(self, monkeypatch, k):
        calls = self.counting(monkeypatch)
        ricker_solve(k, 0.0)
        newton = calls[0]
        f = lambda s: equilibrium._ricker_log_var(s, k)
        # the one evaluation at the tangency comes first either way
        assert newton <= 1 + _bisection_calls(f, math.log1p(1.0 / k), (k + 2.0) * math.log(2.0) / k)

    @pytest.mark.parametrize("k,v", [(0.01, 0.3), (1.0, 0.0), (1.0, 0.5), (1.0, 11.0 / 16.0),
                                     (100.0, 1e-300), (1e300, 0.0), (1e-310, 0.5), (5e-324, 0.0)])
    @pytest.mark.parametrize("r_max", [math.inf, 10.0, 0.5])
    def test_one_evaluation_at_the_tangency_per_solve(self, monkeypatch, k, v, r_max):
        s_t = equilibrium._ricker_tangency(k)
        at = []
        log_var = equilibrium._ricker_log_var
        monkeypatch.setattr(equilibrium, "_ricker_log_var", lambda s, k: at.append(s == s_t) or log_var(s, k))
        bounds = []
        noise_bound = equilibrium.ricker_noise_bound
        monkeypatch.setattr(equilibrium, "ricker_noise_bound",
                            lambda *a, **kw: bounds.append(a) or noise_bound(*a, **kw))
        try:
            ricker_solve(k, v, r_max=r_max)
        except (NoRootError, OverflowError):
            pass
        # the noise bound at r_max evaluates L there, below the tangency
        assert sum(at) == 1
        assert len(bounds) == (r_max < (k + 1.0) * s_t)


class TestRickerTheta:
    def test_small_r_limit(self):
        k = 3.0
        assert ricker_theta(1e-9, k) == pytest.approx(1.0 / (k + 1.0), rel=1e-8)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            ricker_theta(0.0, 1.0)
        with pytest.raises(ValueError):
            ricker_theta(-1.0, 1.0)

    @pytest.mark.parametrize("k", (5e-324, 1.0))
    def test_infinite_r_is_named_overflow(self, k):
        # expm1(inf)/inf was a silent NaN
        with pytest.raises(OverflowError, match="exceeds the float range at r=inf"):
            ricker_theta(math.inf, k)

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
