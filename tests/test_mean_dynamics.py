import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steadychaos import (
    DivergenceError,
    GammaParams,
    MeanState,
    NoiseSpec,
    convergence_sweep,
    deterministic_orbit,
    laplace_moment,
    maps,
    mean_dynamics,
    mean_update,
    noise_draw,
    raw_moment,
)


class TestMeanState:
    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            MeanState(0.5, -1e-9)

    def test_zero_variance_allowed(self):
        assert MeanState(0.5, 0.0).var_x == 0.0


class TestLogisticUpdate:
    def test_known_value(self):
        assert mean_update("logistic", 2.0, MeanState(0.5, 0.01)) == pytest.approx(0.48, rel=1e-15)

    def test_zero_variance_is_det_step(self):
        assert mean_update("logistic", 2.5, MeanState(0.3, 0.0)) == pytest.approx(
            2.5 * 0.3 * 0.7, rel=1e-15
        )

    @given(
        k=st.floats(min_value=0.1, max_value=50.0),
        theta=st.floats(min_value=1e-3, max_value=0.05),
        r=st.floats(min_value=0.5, max_value=3.0),
    )
    @settings(max_examples=100)
    def test_exact_against_gamma_moments(self, k, theta, r):
        # E[r X (1-X)] = r(E[X] - E[X^2]) exactly, for any X distribution;
        # instantiated with gamma closed-form moments
        p = GammaParams(k, theta)
        expected = r * (p.mean() - raw_moment(p, 2))
        got = mean_update("logistic", r, MeanState(p.mean(), p.variance()))
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-14)

    def test_exact_against_monte_carlo(self):
        # distribution-free exactness: uniform initial law, 4 SE
        rng = np.random.default_rng(3)
        n = 500_000
        x = rng.uniform(0.2, 0.6, n)
        r = 2.2
        eps = noise_draw(NoiseSpec(0.05), rng, size=n)
        x1 = r * x * (1 - x) * eps
        pred = mean_update("logistic", r, MeanState(float(x.mean()), float(x.var())))
        assert abs(x1.mean() - pred) < 4 * x1.std(ddof=1) / math.sqrt(n)


class TestRickerUpdate:
    def test_leading_order_is_det_step(self):
        y = 0.7
        assert mean_update("ricker", 1.5, MeanState(y, 0.0)) == pytest.approx(
            y * math.exp(1.5 * 0.3), rel=1e-15
        )

    def test_corrected_known_value(self):
        r, y, v = 1.5, 0.7, 0.02
        growth = math.exp(r * (1 - y))
        expected = y * growth + growth * (r * r * y / 2 - r) * v
        assert mean_update("ricker", r, MeanState(y, v)) == pytest.approx(expected, rel=1e-15)

    def test_corrected_beats_leading_against_exact_laplace(self):
        # gamma initial law has the exact update e^r E[X e^{-rX}]
        r = 1.2
        for v in (1e-2, 1e-3, 1e-4):
            y = 0.7
            p = GammaParams(y * y / v, v / y)
            exact = math.exp(r) * laplace_moment(p, 1, r)
            err_lead = abs(maps.step("ricker", r, y) - exact)
            err_corr = abs(mean_update("ricker", r, MeanState(y, v)) - exact)
            assert err_corr < err_lead

    def test_corrected_error_shrinks_superlinearly(self):
        # halving v should cut the corrected-update error by more than half
        r, y = 1.2, 0.7
        errors = []
        for v in (4e-3, 2e-3, 1e-3):
            p = GammaParams(y * y / v, v / y)
            exact = math.exp(r) * laplace_moment(p, 1, r)
            errors.append(abs(mean_update("ricker", r, MeanState(y, v)) - exact))
        assert errors[0] > 2.4 * errors[1] > 2.4 * 2.4 * errors[2]


class TestDeterministicOrbit:
    def test_logistic_fixed_point_absorbing(self):
        orbit = deterministic_orbit("logistic", 2.0, 0.5, 10)
        assert np.all(orbit == 0.5)

    def test_length_and_start(self):
        orbit = deterministic_orbit("ricker", 1.0, 0.3, 7)
        assert len(orbit) == 8 and orbit[0] == 0.3
        assert deterministic_orbit("logistic", 2.0, 0.3, 0).tolist() == [0.3]

    @pytest.mark.parametrize("t_max", [-1, -3])
    def test_rejects_negative_t_max(self, t_max):
        # -1 used to give an empty orbit, and -3 numpy's "negative dimensions"
        with pytest.raises(ValueError, match=f"^t_max must be >= 0, got {t_max}$"):
            deterministic_orbit("logistic", 2.0, 0.3, t_max)

    def test_ricker_overflow_is_named(self):
        # the first step needs e^{750 * 0.99}, past the float range
        with pytest.raises(DivergenceError) as info:
            deterministic_orbit("ricker", 750.0, 0.01, 5)
        assert str(info.value) == "ricker orbit from x0=0.01 escaped [0, 1e+06] at step 1, x=inf"

    @pytest.mark.parametrize("kind,r,x0,step,x", [
        # x1 = e^{ln 0.7 + 225} lies beyond the cap; it used to overflow at step 3
        ("ricker", 750.0, 0.7, 1, "3.642138596519466e+97"),
        ("ricker", 700.0, 0.7, 1, "1.1141386482645677e+91"),
        ("logistic", 4.5, 0.5, 1, "1.125"),
        # a start outside the domain escapes at step 0; from 2e6 the first
        # Ricker step underflows to 0, inside the domain
        ("ricker", 1.0, 2e6, 0, "2000000.0"),
        ("ricker", 1.0, math.nan, 0, "nan"),
        ("logistic", 1.0, 1.5, 0, "1.5"),
        ("logistic", 1.0, -0.1, 0, "-0.1"),
    ], ids=["ricker750", "ricker700", "logistic", "ricker_start", "nan_start",
            "logistic_start", "negative_start"])
    def test_escape_is_named(self, kind, r, x0, step, x):
        bound = "1e+06" if kind == "ricker" else "1"
        message = f"{kind} orbit from x0={x0!r} escaped [0, {bound}] at step {step}, x={x}"
        with pytest.raises(DivergenceError) as info:
            deterministic_orbit(kind, r, x0, 5)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind,r,x0", [("ricker", 2.8, 0.7), ("logistic", 3.9, 0.37)])
    def test_is_the_kernel_across_blocks(self, kind, r, x0):
        # the steps of maps.orbit_step, Ricker in y = ln x, over three blocks
        x, y = np.array([x0]), np.log([x0])
        want = [x0]
        for _ in range(450):
            x, y = maps.orbit_step(kind, r, x, y)
            want.append(float(x[0]))
        assert deterministic_orbit(kind, r, x0, 450).tolist() == want

    def test_ricker_orbit_near_zero_keeps_its_digits(self):
        # at the k = 0.2 equilibrium r the orbit dips below e^-745, where x
        # reads 0; y = ln x carries on, and the orbit returns (step 236). A
        # directly stepped x stayed at the extinct fixed point 0.
        orbit = deterministic_orbit("ricker", 9.146311040868133, 0.7, 450)
        first_zero = int(np.argmax(orbit == 0.0))
        assert first_zero > 0 and (orbit[first_zero:] > 0.0).any()

    def test_matches_iterated_map(self):
        orbit = deterministic_orbit("logistic", 3.7, 0.2, 5)
        x = 0.2
        for t in range(5):
            x = 3.7 * x * (1 - x)
            assert orbit[t + 1] == x


class TestConvergenceSweep:
    def test_zero_level_exact(self):
        out = convergence_sweep("logistic", 2.0, [1e-3, 0.0], t_max=10, n_traj=100, seed=1)
        assert out[-1] == (0.0, 0.0)

    @pytest.mark.parametrize("v", [2.0**-1024, 1e-320, 5e-324])
    def test_level_without_noise_is_exact(self, v):
        # 1/v overflows, so the gamma start has no finite shape; the level is
        # the noiseless point mass, which is the orbit itself
        out = convergence_sweep("ricker", 1.5, [1e-2, v], t_max=5, n_traj=100, seed=1)
        assert out == [convergence_sweep("ricker", 1.5, [1e-2], t_max=5, n_traj=100, seed=1)[0], (v, 0.0)]

    def test_rejects_non_decreasing_ladder(self):
        with pytest.raises(ValueError):
            convergence_sweep("logistic", 2.0, [1e-3, 1e-3], t_max=5)
        with pytest.raises(ValueError):
            convergence_sweep("logistic", 2.0, [1e-4, 1e-3], t_max=5)
        with pytest.raises(ValueError):
            convergence_sweep("logistic", 2.0, [1e-3, -1e-4], t_max=5)

    @pytest.mark.parametrize("ladder", [[0.0], [1e-2], [1e-2, 0.0]])
    @pytest.mark.parametrize("t_max", [0, -1, -3])
    def test_rejects_t_max_below_one_before_any_work(self, monkeypatch, ladder, t_max):
        # a noiseless ladder runs no ensemble, so run_ensemble's bound is checked up front
        def orbit(*args):
            raise AssertionError("the orbit was stepped")
        monkeypatch.setattr(mean_dynamics, "deterministic_orbit", orbit)
        with pytest.raises(ValueError, match=f"^t_max must be >= 1, got {t_max}$"):
            convergence_sweep("logistic", 2.0, ladder, t_max=t_max, n_traj=100)

    @pytest.mark.parametrize("kind,r", [("logistic", 2.5), ("ricker", 1.5)])
    def test_deviation_decreases_along_ladder(self, kind, r):
        ladder = [1e-2, 1e-3, 1e-4]
        out = convergence_sweep(kind, r, ladder, t_max=30, n_traj=40_000, seed=2)
        devs = [d for _, d in out]
        assert devs[0] > devs[1] > devs[2]

    @pytest.mark.parametrize("r,t_max,n_traj,kept", [(40.0, 100, 10, 0), (15.0, 2, 2, 1)])
    def test_level_without_two_survivors_is_named(self, r, t_max, n_traj, kept):
        # the deterministic orbit stays in the domain; the ensemble does not.
        # At r = 40, of 2e5 trajectories 1.4 % outlive 3 steps, 8e-5 outlive
        # 30 and none 100, the survivors falling by about a fifth per step:
        # all 10 exit within 100 steps whatever the stream
        message = (f"the ricker ensemble at variance level 0.01 kept {kept} of {n_traj} "
                   f"trajectories in the open domain over {t_max} steps; a mean needs 2")
        with pytest.raises(DivergenceError) as info:
            convergence_sweep("ricker", r, [1e-2], t_max=t_max, n_traj=n_traj, seed=0)
        assert str(info.value) == message

    def test_two_survivors_give_a_finite_deviation(self):
        # one trajectory more than the case above keeps two in the domain
        (v, dev), = convergence_sweep("ricker", 15.0, [1e-2], t_max=2, n_traj=3, seed=0)
        assert v == 1e-2 and math.isfinite(dev)

    def test_levels_echoed_in_order(self):
        ladder = [1e-2, 1e-3]
        out = convergence_sweep("ricker", 1.0, ladder, t_max=5, n_traj=1_000, seed=0)
        assert [v for v, _ in out] == ladder
