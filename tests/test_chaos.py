import math

import numpy as np
import pytest

from steadychaos import (
    DivergenceError,
    bifurcation_scan,
    classify,
    det_derivative,
    det_step,
    lyapunov,
    transition_report,
)


class TestDerivative:
    @pytest.mark.parametrize("kind,lo,hi", [("logistic", 0.05, 0.95), ("ricker", 0.05, 3.0)])
    def test_matches_central_difference(self, kind, lo, hi):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(100):
            r = float(rng.uniform(0.5, 3.5))
            x = float(rng.uniform(lo, hi))
            fd = (det_step(kind, r, x + h) - det_step(kind, r, x - h)) / (2 * h)
            assert det_derivative(kind, r, x) == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_known_points(self):
        assert det_derivative("logistic", 3.0, 0.5) == 0.0
        assert det_derivative("ricker", 2.0, 1.0) == -1.0


class TestLyapunov:
    def test_logistic_r4_is_ln2(self):
        lam = lyapunov("logistic", 4.0)
        assert lam == pytest.approx(math.log(2.0), abs=1e-3)

    def test_stable_fixed_point_exact(self):
        # at an attracting fixed point the orbit average equals ln|f'(x*)|
        r = 2.5
        lam = lyapunov("logistic", r)
        assert lam == pytest.approx(math.log(abs(2.0 - r)), abs=1e-10)
        lam = lyapunov("ricker", 1.5)
        assert lam == pytest.approx(math.log(abs(1.0 - 1.5)), abs=1e-10)

    def test_period_two_window(self):
        # lambda = (ln|f'(p)| + ln|f'(q)|)/2 over the 2-cycle; r=3.2 cycle is
        # p,q = (r+1 +- sqrt((r-3)(r+1)))/(2r)
        r = 3.2
        s = math.sqrt((r - 3.0) * (r + 1.0))
        p = (r + 1.0 + s) / (2.0 * r)
        q = (r + 1.0 - s) / (2.0 * r)
        expected = 0.5 * (
            math.log(abs(r * (1 - 2 * p))) + math.log(abs(r * (1 - 2 * q)))
        )
        assert lyapunov("logistic", r) == pytest.approx(expected, abs=1e-8)

    def test_sign_change_across_onset(self):
        assert lyapunov("logistic", 3.55) < 0.0
        assert lyapunov("logistic", 3.60) > 0.0

    def test_superstable_returns_neg_inf(self):
        assert lyapunov("logistic", 2.0, x0=0.5, burn_in=0) == float("-inf")

    def test_divergence_raises(self):
        with pytest.raises(DivergenceError):
            lyapunov("logistic", 4.2)

    def test_ricker_chaotic_at_r28(self):
        assert lyapunov("ricker", 2.8) > 0.1

    def test_ricker_orbit_near_zero_keeps_its_digits(self):
        # at the k = 0.2 equilibrium r the orbit dips below e^-3000, where a
        # directly stepped x underflows to the extinct state and the exponent
        # reads r itself
        r = 9.146311040868133
        assert 0.0 < lyapunov("ricker", r, iters=20_000) < 1.0

    def test_ricker_escape_above_cap_raises(self):
        # f(1/r) = e^{r-1}/r exceeds the 1e6 cap at r = 20
        with pytest.raises(DivergenceError):
            lyapunov("ricker", 20.0)


class TestClassify:
    @pytest.mark.parametrize("r", np.linspace(1.05, 2.95, 20))
    def test_logistic_stable_window(self, r):
        rep = classify("logistic", float(r), iters=20_000)
        assert rep.regime == "stable_fixed"
        assert rep.period == 1
        assert rep.lyapunov < 0.0

    @pytest.mark.parametrize("r", np.linspace(0.05, 1.95, 20))
    def test_ricker_stable_window(self, r):
        rep = classify("ricker", float(r), iters=20_000)
        assert rep.regime == "stable_fixed"

    def test_periodic(self):
        rep = classify("logistic", 3.2, iters=20_000)
        assert rep.regime == "periodic" and rep.period == 2
        rep = classify("logistic", 3.5, iters=20_000)
        assert rep.regime == "periodic" and rep.period == 4
        rep = classify("ricker", 2.3, iters=20_000)
        assert rep.regime == "periodic" and rep.period == 2

    def test_chaotic(self):
        assert classify("logistic", 3.7, iters=20_000).regime == "chaotic"
        assert classify("logistic", 4.0, iters=20_000).regime == "chaotic"
        assert classify("ricker", 2.8, iters=20_000).regime == "chaotic"

    def test_marginal_at_neutral_fixed_point(self):
        # logistic r=1: x*=0 has f'(0)=1, lambda ~ 0, no attracting cycle
        rep = classify("logistic", 1.0, iters=20_000)
        assert rep.regime == "marginal"
        assert abs(rep.lyapunov) < 1e-2

    def test_divergent(self):
        assert classify("logistic", 4.5, iters=5_000).regime == "divergent"


class TestBifurcationScan:
    def test_shape_and_grid(self):
        recs = bifurcation_scan("logistic", 2.5, 4.0, 16, samples_per_r=10, lyap_iters=2_000)
        assert len(recs) == 16
        assert recs[0].r == 2.5 and recs[-1].r == 4.0
        assert all(rec.samples.shape == (10,) for rec in recs)

    def test_lyapunov_crosses_zero_on_grid(self):
        recs = bifurcation_scan("logistic", 2.9, 4.0, 112, samples_per_r=5, lyap_iters=4_000)
        lams = np.array([rec.lyapunov for rec in recs])
        rs = np.array([rec.r for rec in recs])
        assert np.all(lams[rs < 3.4] < 0.0)
        assert lams[np.argmin(np.abs(rs - 3.7))] > 0.0

    def test_matches_scalar_lyapunov(self):
        recs = bifurcation_scan("logistic", 3.7, 4.0, 2, samples_per_r=5, lyap_iters=50_000)
        for rec in recs:
            assert rec.lyapunov == pytest.approx(lyapunov("logistic", rec.r), abs=5e-3)

    def test_fixed_point_samples_constant(self):
        recs = bifurcation_scan("ricker", 1.0, 1.5, 3, samples_per_r=20, lyap_iters=500)
        for rec in recs:
            assert np.allclose(rec.samples, 1.0, atol=1e-6)

    def test_escaped_points_are_nan(self):
        recs = bifurcation_scan("logistic", 3.9, 4.3, 5, samples_per_r=5, lyap_iters=500)
        assert np.isnan(recs[-1].samples).all()
        assert math.isnan(recs[-1].lyapunov)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            bifurcation_scan("logistic", 3.0, 2.0, 10)
        with pytest.raises(ValueError):
            bifurcation_scan("logistic", 2.0, 3.0, 1)


class TestTransitionReport:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 10.0, 100.0])
    def test_logistic_never_transitions(self, k):
        # both logistic branches sit below 3, inside the stable window
        from steadychaos import logistic_feasibility

        v = min(0.05, 0.5 * logistic_feasibility(k, 0.0)[1])
        rep = transition_report("logistic", k, v, iters=20_000)
        assert not rep.transition_found
        for _, branch_rep in rep.branches:
            assert branch_rep.regime in ("stable_fixed", "marginal")

    @pytest.mark.parametrize("k", [0.5, 1.0])
    def test_ricker_small_k_transitions(self, k):
        rep = transition_report("ricker", k, 0.0, iters=20_000)
        assert rep.transition_found
        labels = dict(rep.branches)
        assert labels["plus"].regime == "chaotic"

    def test_ricker_large_k_no_transition(self):
        rep = transition_report("ricker", 100.0, 0.0, iters=20_000)
        assert not rep.transition_found

    def test_branch_labels_match_solution(self):
        rep = transition_report("ricker", 1.0, 0.05, iters=20_000)
        assert [label for label, _ in rep.branches] == [b.label for b in rep.solution.branches]
