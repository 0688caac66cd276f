import math
import sys

import numpy as np
import pytest
from scipy import stats as scipy_stats

from steadychaos import (
    GammaParams,
    MapSpec,
    NoiseSpec,
    laplace_moment,
    logistic_solve,
    noise_draw,
    raw_moment,
    maps,
    ricker_solve,
    simulate,
    run_ensemble,
    run_trajectory,
    stationarity_check,
    trajectory_rng,
)
from steadychaos.simulate import BLOCK, CHUNK, _moments, noiseless

SEED = 20250823


class TestNoiseDraw:
    def test_zero_variance_is_exactly_one(self):
        rng = trajectory_rng(SEED, 0)
        assert noise_draw(NoiseSpec(0.0), rng, size=1).tolist() == [1.0]
        assert np.all(noise_draw(NoiseSpec(0.0), rng, size=100) == 1.0)

    @pytest.mark.parametrize("family", ["gamma", "lognormal"])
    def test_moments(self, family):
        n = 10**6
        v = 0.1
        draws = noise_draw(NoiseSpec(v, family), trajectory_rng(SEED, 1), size=n)
        se_mean = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - 1.0) < 4 * se_mean
        m = draws.mean()
        m4 = ((draws - m) ** 4).mean()
        var_hat = draws.var(ddof=1)
        se_var = math.sqrt((m4 - var_hat**2) / n)
        assert abs(var_hat - v) < 5 * se_var

    @pytest.mark.parametrize("family", ["gamma", "lognormal"])
    def test_variance_whose_inverse_overflows_is_no_noise(self, family):
        # 1/v overflows for v <= 2**-1024, and the gamma draws were inf
        for v in (2.0**-1024, 1e-320, 5e-324):
            assert noiseless(v)
            assert np.all(noise_draw(NoiseSpec(v, family), trajectory_rng(SEED, 0), size=1000) == 1.0)
        # one float above, 1/v is finite and every draw is already exactly 1
        v = math.nextafter(2.0**-1024, 1.0)
        assert not noiseless(v)
        assert np.all(noise_draw(NoiseSpec(v, family), trajectory_rng(SEED, 0), size=1000) == 1.0)

    def test_nonnegative_support(self):
        for family in ("gamma", "lognormal"):
            draws = noise_draw(NoiseSpec(0.4, family), trajectory_rng(SEED, 2), size=10**5)
            assert np.all(draws >= 0.0)


class TestTrajectoryRng:
    def test_seed_domain_is_64_bits(self):
        assert trajectory_rng(2**64 - 1, 0).random() != trajectory_rng(0, 0).random()
        with pytest.raises(ValueError, match=r"^seed must be >= 0 and < 2\*\*64, got 18446744073709551616$"):
            trajectory_rng(2**64, 0)
        with pytest.raises(ValueError, match=r"^seed must be >= 0 and < 2\*\*64, got -1$"):
            trajectory_rng(-1, 0)
        with pytest.raises(ValueError, match=r"^stream index must be >= 0, got -1$"):
            trajectory_rng(0, -1)

    @pytest.mark.parametrize("seed", [0, 42, 2**63, 2**64 - 2])
    def test_neighbouring_streams_are_uncorrelated(self, seed):
        # under independence the sample correlation of n uniform pairs has
        # standard deviation 1/sqrt(n); the next block and the next seed are
        # the neighbours a weak key schedule would tie together
        n = 100_000
        u = trajectory_rng(seed, 0).random(n)
        for other in (trajectory_rng(seed, 1), trajectory_rng(seed + 1, 0)):
            assert abs(np.corrcoef(u, other.random(n))[0, 1]) < 5.0 / math.sqrt(n)


class TestStep:
    """The stochastic step f(x) * eps, as ``_iterate`` and
    ``stationarity_check`` take it."""

    def test_logistic_fixed_point(self):
        assert maps.step("logistic", 2.0, 0.5) * 1.0 == 0.5

    def test_ricker_fixed_point(self):
        for r in (0.5, 1.7, 3.0):
            assert maps.step("ricker", r, 1.0) * 1.0 == 1.0

    def test_linear_in_eps(self):
        assert maps.step("logistic", 2.0, 0.5) * 1.2 == pytest.approx(0.6, rel=1e-15)

    def test_negative_output_returned_as_is(self):
        assert maps.step("logistic", 2.0, 1.5) * 1.0 < 0.0

    def test_rejects_bad_map(self):
        with pytest.raises(ValueError):
            MapSpec("henon", 1.0)
        with pytest.raises(ValueError):
            MapSpec("logistic", 0.0)


class TestRunTrajectory:
    def test_deterministic_logistic_converges(self):
        traj = run_trajectory(
            MapSpec("logistic", 2.5), 0.3, NoiseSpec(0.0), 200, trajectory_rng(SEED, 0)
        )
        assert not traj.exited
        assert abs(traj.values[-1] - 0.6) < 1e-10

    def test_deterministic_ricker_converges(self):
        traj = run_trajectory(
            MapSpec("ricker", 1.5), 0.4, NoiseSpec(0.0), 300, trajectory_rng(SEED, 0)
        )
        assert abs(traj.values[-1] - 1.0) < 1e-10

    def test_same_seed_identical(self):
        a = run_trajectory(MapSpec("ricker", 1.2), 0.4, NoiseSpec(0.1), 50, trajectory_rng(7, 3))
        b = run_trajectory(MapSpec("ricker", 1.2), 0.4, NoiseSpec(0.1), 50, trajectory_rng(7, 3))
        assert np.array_equal(a.values, b.values)

    def test_early_exit_flagged(self):
        # x0 outside (0,1) exits immediately for the logistic map
        traj = run_trajectory(MapSpec("logistic", 2.0), 1.5, NoiseSpec(0.0), 10, trajectory_rng(1, 0))
        assert traj.exited and traj.exit_step == 0
        assert np.isnan(traj.values[1:]).all()

    @pytest.mark.parametrize("kind,x0", [("logistic", 0.0), ("logistic", 1.0), ("ricker", 0.0)])
    def test_domain_is_open(self, kind, x0):
        traj = run_trajectory(MapSpec(kind, 2.0), x0, NoiseSpec(0.0), 5, trajectory_rng(1, 0))
        assert traj.exited and traj.exit_step == 0

    def test_exit_step_is_first_value_outside(self):
        # r = 4.5 takes the midpoint to 1.125, outside (0, 1), at step 2
        traj = run_trajectory(MapSpec("logistic", 4.5), 0.1464466094067262, NoiseSpec(0.0), 6,
                              trajectory_rng(1, 0))
        assert traj.exited and traj.exit_step == 2
        assert traj.values[2] > 1.0 and np.isnan(traj.values[3:]).all()

    def test_overflow_is_an_exit(self):
        # e^{r(1-x)} overflows a float at the first step
        traj = run_trajectory(MapSpec("ricker", 800.0), 1e-3, NoiseSpec(0.0), 5, trajectory_rng(1, 0))
        assert traj.exited and traj.exit_step == 1
        assert traj.values[1] == np.inf

    def test_records_t_max_plus_one(self):
        traj = run_trajectory(MapSpec("ricker", 1.0), 0.5, NoiseSpec(0.05), 17, trajectory_rng(1, 1))
        assert len(traj.values) == 18


class TestRunEnsemble:
    def test_zero_noise_point_init_zero_variance(self):
        stats = run_ensemble(
            MapSpec("logistic", 2.5), 0.3, NoiseSpec(0.0), t_max=10, n_traj=50, seed=SEED
        )
        assert np.all(stats.variance == 0.0)
        assert stats.extinct_fraction == 0.0

    def test_stationary_mean_identity_logistic(self):
        # at the solved branch, r(mu - E[X^2]) returns the stationary mean
        sol = logistic_solve(2.0, 0.1)
        b = sol.branches[0]
        p = GammaParams(2.0, b.theta)
        closed = b.r * (p.mean() - raw_moment(p, 2))
        assert closed == pytest.approx(p.mean(), rel=1e-12)

    def test_one_step_mean_matches_closed_form_logistic(self):
        # point-mass init keeps the exit probability negligible, so the
        # survivor-conditioned ensemble mean is unbiased to well below 1 SE
        r, x0, v = 2.0, 0.4, 0.05
        stats = run_ensemble(
            MapSpec("logistic", r), x0, NoiseSpec(v), t_max=1, n_traj=50_000, seed=SEED
        )
        assert stats.extinct_fraction < 1e-3
        assert abs(stats.mean[1] - r * x0 * (1 - x0)) < 4 * stats.se_mean[1]

    def test_one_step_mean_matches_laplace_identity_ricker(self):
        r = 1.5
        p = GammaParams(3.0, 0.2)
        stats = run_ensemble(
            MapSpec("ricker", r), p, NoiseSpec(0.05), t_max=1, n_traj=50_000, seed=SEED
        )
        closed = math.exp(r) * laplace_moment(p, 1, r)
        assert abs(stats.mean[1] - closed) < 4 * stats.se_mean[1]

    def test_extinct_trajectories_counted_and_excluded(self):
        # large noise pushes some logistic trajectories out of (0,1)
        stats = run_ensemble(
            MapSpec("logistic", 2.8), 0.5, NoiseSpec(0.4), t_max=30, n_traj=2_000, seed=SEED
        )
        assert 0.0 < stats.extinct_fraction < 1.0
        surviving = stats.mean[~np.isnan(stats.mean)]
        assert np.all((surviving > 0.0) & (surviving < 1.0))

    @pytest.mark.parametrize(
        "kind,r,init,v",
        [
            ("logistic", 2.8, 0.5, 0.4),
            ("ricker", 2.6, 0.7, 0.3),
            pytest.param("logistic", 2.8, GammaParams(8.0, 0.06), 0.4, id="logistic-gamma-init"),
            pytest.param("ricker", 2.6, GammaParams(2.0, 0.3), 0.3, id="ricker-gamma-init"),
        ],
    )
    def test_matches_scalar_reference_loop(self, kind, r, init, v):
        # one trajectory at a time, stepped by the scalar kernel; each block
        # draws its start points, then its noise, from its own stream. The
        # last block is partial. Ricker differs by np.exp vs math.exp
        n, t_max = 2 * BLOCK + 37, 10
        spec = MapSpec(kind, r)

        def inside(x):
            return 0.0 < x < maps.UPPER[kind]

        rows, exited = [], []
        for b, lo in enumerate(range(0, n, BLOCK)):
            size = min(BLOCK, n - lo)
            rng = trajectory_rng(SEED, b)
            if isinstance(init, GammaParams):
                starts = rng.gamma(init.k, init.theta, size=size)
            else:
                starts = [init] * size
            eps = noise_draw(NoiseSpec(v), rng, size=size * t_max).reshape(size, t_max)
            for x0, e in zip(starts, eps):
                row = [float(x0)]
                while len(row) <= t_max and inside(row[-1]):
                    row.append(maps.step(kind, spec.r, row[-1]) * e[len(row) - 1])
                exited.append(not inside(row[-1]))
                rows.append(row + [np.nan] * (t_max + 1 - len(row)))
        keep = np.array(rows)[~np.array(exited)]
        stats = run_ensemble(spec, init, NoiseSpec(v), t_max=t_max, n_traj=n, seed=SEED)
        assert stats.extinct_fraction == np.mean(exited)
        if kind == "logistic":
            assert stats.extinct_fraction > 0.0
            assert np.array_equal(stats.mean, keep.mean(axis=0))
        else:
            assert np.allclose(stats.mean, keep.mean(axis=0), rtol=1e-12, atol=0.0)

    def test_fewer_than_two_survivors_is_named(self):
        # 0.7 -> 1.1e5 -> 0: every trajectory exits, so no step has a mean
        with pytest.raises(maps.DivergenceError) as info:
            run_ensemble(MapSpec("ricker", 40.0), 0.7, NoiseSpec(0.01), t_max=3, n_traj=10, seed=SEED)
        assert str(info.value) == ("the ricker ensemble at variance level 0.01 kept 0 of 10 "
                                   "trajectories in the open domain over 3 steps; a mean needs 2")

    def test_rejects_small_ensemble(self):
        with pytest.raises(ValueError):
            run_ensemble(MapSpec("logistic", 2.0), 0.5, NoiseSpec(0.0), 5, 1, SEED)


class TestMoments:
    def test_matches_numpy_reference(self):
        x = np.random.default_rng(SEED).gamma(2.0, 0.3, size=(500, 3))
        n = x.shape[0]
        mean, variance, se_mean, se_variance = _moments(x.copy())
        assert np.array_equal(mean, x.mean(axis=0))
        assert np.array_equal(variance, x.var(axis=0, ddof=1))
        assert np.array_equal(se_mean, np.sqrt(variance / n))
        m4 = ((x - mean) ** 4).mean(axis=0)
        want = np.sqrt((m4 - (n - 3) / (n - 1) * variance**2) / n)
        assert np.allclose(se_variance, want, rtol=1e-12, atol=0.0)

    def test_one_column_reduces_like_a_matrix(self):
        # stationarity_check reduces a vector, run_ensemble a matrix; NumPy
        # sums the two in a different order
        x = np.random.default_rng(SEED).gamma(2.0, 0.3, size=(1000, 4))
        for col in range(x.shape[1]):
            for got, want in zip(_moments(x[:, col].copy()), _moments(x.copy())):
                assert np.ndim(got) == 0
                assert got == pytest.approx(want[col], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_rows_is_nan(self, rows):
        for column in _moments(np.ones((rows, 3))):
            assert column.shape == (3,) and np.isnan(column).all()


class TestDistributionFreeOneStep:
    def test_logistic_mean_update_any_init(self):
        # E[X1] = r y (1-y) - r v for any initial law with mean y, variance v
        r, y, v = 2.0, 0.5, 0.01
        rng = np.random.default_rng(SEED)
        n = 200_000
        half_width = math.sqrt(3 * v)
        inits = {
            "uniform": rng.uniform(y - half_width, y + half_width, n),
            "lognormal": rng.lognormal(
                math.log(y) - 0.5 * math.log1p(v / y**2), math.sqrt(math.log1p(v / y**2)), n
            ),
        }
        eps = noise_draw(NoiseSpec(0.05), rng, size=n)
        predicted = r * y * (1 - y) - r * v
        for name, x0 in inits.items():
            x1 = r * x0 * (1 - x0) * eps
            se = x1.std(ddof=1) / math.sqrt(n)
            assert abs(x1.mean() - predicted) < 4 * se, name


class TestStationarity:
    GRID = [
        ("logistic", 0.5, 0.2, "plus"),
        ("logistic", 0.5, 0.2, "minus"),
        ("logistic", 1.0, 0.1, "plus"),
        ("logistic", 1.0, 0.1, "minus"),
        ("logistic", 2.0, 0.1, "plus"),
        ("logistic", 2.0, 0.1, "minus"),
        ("logistic", 5.0, 0.05, "plus"),
        ("logistic", 5.0, 0.05, "minus"),
        ("ricker", 1.0, 0.05, "plus"),
        ("ricker", 1.0, 0.05, "minus"),
        ("ricker", 2.0, 0.05, "plus"),
        ("ricker", 2.0, 0.05, "minus"),
    ]

    KS_BRANCHES = [("logistic", 2.0, 0.1, "minus"), ("ricker", 1.0, 0.05, "plus")]

    @pytest.mark.parametrize("kind,k,v,branch", KS_BRANCHES)
    def test_z_scores_over_seeds_are_standard_normal(self, kind, k, v, branch):
        # at the true equilibrium both z-scores are asymptotically N(0, 1),
        # so over independent seeds they must pass a Kolmogorov-Smirnov test.
        # The branches have one-step excess kurtosis 2.7 and -0.6; the
        # logistic plus branch at k = 2 has 114, and there var_z averages
        # -0.38 at this n and -0.13 at n = 2e5: its normal limit comes slowly
        reports = [stationarity_check(kind, k, v, branch, n_traj=20_000, seed=s) for s in range(200)]
        for z in ([r.mean_z for r in reports], [r.var_z for r in reports]):
            assert scipy_stats.kstest(z, "norm").pvalue > 1e-3

    @pytest.mark.parametrize("kind,k,v,branch", KS_BRANCHES)
    def test_z_scores_over_chunk_streams_are_standard_normal(self, monkeypatch, kind, k, v, branch):
        # 4096-sample chunks: each 2e4 sample spans five streams
        monkeypatch.setattr(simulate, "CHUNK", 4096)
        self.test_z_scores_over_seeds_are_standard_normal(kind, k, v, branch)

    def test_same_report_on_any_core_count(self, monkeypatch):
        # five threads on a short switch interval interleave the chunks'
        # writes into the one sample array as finely as the host allows
        n = 3 * CHUNK + 1000
        reports = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for cores in (1, 2, 5):
                monkeypatch.setattr(simulate, "_cores", lambda: cores)
                reports.append(stationarity_check("ricker", 1.0, 0.05, "minus", n_traj=n, seed=5))
        finally:
            sys.setswitchinterval(interval)
        assert reports[0] == reports[1] == reports[2]

    def test_matches_serial_chunk_reference(self):
        # chunk c draws its starts, then its noise, from stream c; the last
        # chunk is partial
        n, seed, k, v = 2 * CHUNK + 123, 11, 2.0, 0.1
        b = next(br for br in logistic_solve(k, v).branches if br.label == "minus")
        parts = []
        for c, lo in enumerate(range(0, n, CHUNK)):
            size = min(CHUNK, n - lo)
            rng = trajectory_rng(seed, c)
            x0 = rng.gamma(k, b.theta, size=size)
            parts.append(maps.step("logistic", b.r, x0) * noise_draw(NoiseSpec(v), rng, size=size))
        mean, variance, se_mean, se_variance = _moments(np.concatenate(parts))
        report = stationarity_check("logistic", k, v, "minus", n_traj=n, seed=seed)
        assert (report.mean, report.variance) == (float(mean), float(variance))
        assert report.mean_z == float((mean - k * b.theta) / se_mean)
        assert report.var_z == float((variance - k * b.theta**2) / se_variance)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_error_in_one_chunk_propagates(self, monkeypatch, cores):
        # the failing chunk leaves its slice unwritten, so no report may be
        # made from the sample
        streams = {}
        real_rng, real_draw = simulate.trajectory_rng, simulate.noise_draw

        def keyed_rng(seed, index):
            rng = real_rng(seed, index)
            streams[id(rng)] = index
            return rng

        def failing_draw(spec, rng, size):
            if streams[id(rng)] == 2:
                raise RuntimeError("stream 2 failed")
            return real_draw(spec, rng, size)

        monkeypatch.setattr(simulate, "_cores", lambda: cores)
        monkeypatch.setattr(simulate, "trajectory_rng", keyed_rng)
        monkeypatch.setattr(simulate, "noise_draw", failing_draw)
        with pytest.raises(RuntimeError, match="^stream 2 failed$"):
            stationarity_check("logistic", 2.0, 0.1, "minus", n_traj=4 * CHUNK, seed=1)

    def test_report_carries_moments_next_to_targets(self):
        report = stationarity_check("ricker", 1.0, 0.05, "plus", n_traj=10_000, seed=3)
        b = ricker_solve(1.0, 0.05).branches[0]
        assert (report.target_mean, report.target_variance) == (b.theta, b.theta**2)
        se_mean = math.sqrt(report.variance / 10_000)
        assert report.mean_z == pytest.approx((report.mean - b.theta) / se_mean, rel=1e-12)

    @pytest.mark.parametrize("kind,k,v,branch", GRID)
    def test_grid_passes(self, kind, k, v, branch):
        report = stationarity_check(kind, k, v, branch, n_traj=200_000, seed=42)
        assert report.passed, (report.mean_z, report.var_z)

    def test_negative_control_fails(self):
        report = stationarity_check(
            "logistic", 2.0, 0.1, "plus", n_traj=200_000, seed=42, r_offset=0.2
        )
        assert abs(report.mean_z) > 4
        assert not report.passed
        # closed-form bias of the perturbed one-step mean confirms the sign
        sol = logistic_solve(2.0, 0.1)
        b = sol.branches[0]
        p = GammaParams(2.0, b.theta)
        biased = (b.r + 0.2) * (p.mean() - raw_moment(p, 2))
        assert (biased - p.mean()) * report.mean_z > 0

    @pytest.mark.parametrize("k,v", [(1e300, 0.0), (1e-300, 0.3)])
    def test_sample_without_spread_is_an_error(self, k, v):
        # a constant sample has no standard error, so no z
        with pytest.raises(FloatingPointError, match="^the one-step sample of n_traj=1000 has no spread"):
            stationarity_check("logistic", k, v, "plus", n_traj=1000, seed=1)

    @pytest.mark.parametrize("n_traj", [0, 1])
    def test_rejects_small_sample(self, n_traj):
        with pytest.raises(ValueError, match="n_traj must be >= 2"):
            stationarity_check("logistic", 2.0, 0.1, "plus", n_traj=n_traj, seed=1)

    def test_degenerate_branch_rejected(self):
        with pytest.raises(ValueError):
            stationarity_check("logistic", 1.0, 0.0, "minus", n_traj=100, seed=1)

    def test_infeasible_propagates(self):
        from steadychaos import InfeasibleError

        with pytest.raises(InfeasibleError):
            stationarity_check("logistic", 2.0, 0.4, "plus", n_traj=100, seed=1)

    def test_multi_step_drift_is_diagnostic_only(self):
        # moment preservation is a one-step statement; over many steps the
        # drift is reported, not asserted against a bound
        sol = ricker_solve(1.0, 0.05)
        b = sol.branches[0]
        stats = run_ensemble(
            MapSpec("ricker", b.r),
            GammaParams(1.0, b.theta),
            NoiseSpec(0.05),
            t_max=20,
            n_traj=5_000,
            seed=SEED,
        )
        drift = stats.mean - 1.0 * b.theta
        assert np.all(np.isfinite(drift))
