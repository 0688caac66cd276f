import functools
import math
import sys

import numpy as np
import pytest
from scipy import stats as scipy_stats

from steadychaos import (
    GammaParams,
    MapSpec,
    NoiseSpec,
    NoRootError,
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
from steadychaos.simulate import CHUNK, _merge, _reduce, _stats, noiseless

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

    @pytest.mark.parametrize("kind,r,x0,v", [
        ("logistic", 3.9, 0.3, 0.3),  # leaves (0, 1) part-way
        ("logistic", 2.0, 1.5, 0.0),  # starts outside
        ("ricker", 2.6, 0.7, 0.3),
        ("ricker", 40.0, 0.7, 0.0),  # 0.7 -> 1.1e5 -> 0
        ("ricker", 800.0, 1e-3, 0.0),  # overflows to inf
        ("ricker", 1e-4, 2e6, 0.0),  # the step from the cap lands back inside, at 2.7e-81
    ])
    def test_matches_a_masked_state_reference(self, kind, r, x0, v):
        # the state is NaN from the step after an exit, so the exit step
        # keeps the value that left and nothing comes back into the domain
        t_max, spec = 30, MapSpec(kind, r)
        eps = noise_draw(NoiseSpec(v), trajectory_rng(9, 4), size=t_max)
        want = [x0]
        x = np.array([x0]) if maps.in_open_domain(kind, x0) else np.array([np.nan])
        with np.errstate(over="ignore"):
            for e in eps:
                x = maps.step(kind, r, x) * e
                want.append(float(x[0]))
                x[~maps.in_open_domain(kind, x)] = np.nan
        outside = [not 0.0 < w < maps.UPPER[kind] for w in want]
        traj = run_trajectory(spec, x0, NoiseSpec(v), t_max, trajectory_rng(9, 4))
        assert np.array_equal(traj.values, want, equal_nan=True)
        assert traj.exit_step == (outside.index(True) if any(outside) else None)
        if traj.exited:
            assert np.isnan(traj.values[traj.exit_step + 1:]).all()


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

    @staticmethod
    def reference_chunks(kind, r, init, v, t_max, n, chunk):
        """Each chunk's kept trajectories, time-major, stepped one at a time by
        the scalar kernel: the chunk draws its start points, then one noise
        variate per trajectory at each step, from its own stream."""
        def inside(x):
            return 0.0 < x < maps.UPPER[kind]

        chunks, exited = [], []
        for c, lo in enumerate(range(0, n, chunk)):
            size = min(chunk, n - lo)
            rng = trajectory_rng(SEED, c)
            if isinstance(init, GammaParams):
                rows = [[float(x0)] for x0 in rng.gamma(init.k, init.theta, size=size)]
            else:
                rows = [[init] for _ in range(size)]
            for _ in range(t_max):
                for row, e in zip(rows, noise_draw(NoiseSpec(v), rng, size=size)):
                    row.append(maps.step(kind, r, row[-1]) * e if inside(row[-1]) else np.nan)
            exited += [not inside(row[-1]) for row in rows]
            kept = [row for row in rows if inside(row[-1])]
            chunks.append(np.array(kept, dtype=float).reshape(len(kept), t_max + 1).T.copy())
        return chunks, exited

    @pytest.mark.parametrize(
        "kind,r,init,v",
        [
            ("logistic", 2.8, 0.5, 0.4),
            ("ricker", 2.6, 0.7, 0.3),
            pytest.param("logistic", 2.8, GammaParams(8.0, 0.06), 0.4, id="logistic-gamma-init"),
            pytest.param("ricker", 2.6, GammaParams(2.0, 0.3), 0.3, id="ricker-gamma-init"),
        ],
    )
    def test_matches_scalar_reference_loop(self, monkeypatch, kind, r, init, v):
        # 64-trajectory chunks, so the ensemble spans five streams and the
        # last chunk is partial. The logistic reference reduces each chunk's
        # rows as numpy does and merges the means in chunk order, so it is
        # exact; Ricker differs by np.exp vs math.exp
        monkeypatch.setattr(simulate, "CHUNK", 64)
        n, t_max = 4 * 64 + 37, 10
        chunks, exited = self.reference_chunks(kind, r, init, v, t_max, n, 64)
        stats = run_ensemble(MapSpec(kind, r), init, NoiseSpec(v), t_max=t_max, n_traj=n, seed=SEED)
        assert stats.extinct_fraction == np.mean(exited)
        keep = np.concatenate(chunks, axis=1)
        if kind == "logistic":
            assert stats.extinct_fraction > 0.0
            mean, count = None, 0
            for part in chunks:
                if part.shape[1] == 0:
                    continue
                count += part.shape[1]
                m = part.mean(axis=1)
                mean = m if mean is None else mean + (m - mean) * (part.shape[1] / count)
            assert np.array_equal(stats.mean, mean)
        else:
            assert np.allclose(stats.mean, keep.mean(axis=1), rtol=1e-12, atol=0.0)
        # merged moments against one pass over the same kept values, where a
        # point-mass start has exactly zero spread, not numpy's residue
        m, constant = keep.shape[1], keep.min(axis=1) == keep.max(axis=1)
        variance = np.where(constant, 0.0, keep.var(axis=1, ddof=1))
        assert np.allclose(stats.variance, variance, rtol=1e-12, atol=0.0)
        m4 = np.where(constant, 0.0, ((keep - keep.mean(axis=1, keepdims=True)) ** 4).mean(axis=1))
        se_variance = np.sqrt((m4 - (m - 3) / (m - 1) * variance**2) / m)
        assert np.allclose(stats.se_variance, se_variance, rtol=1e-12, atol=0.0)

    def test_chunks_without_survivors_merge_as_nothing(self, monkeypatch):
        # 4-trajectory chunks, some of which lose every trajectory
        monkeypatch.setattr(simulate, "CHUNK", 4)
        n, t_max, init = 400, 10, GammaParams(8.0, 0.06)
        chunks, exited = self.reference_chunks("logistic", 2.8, init, 0.4, t_max, n, 4)
        assert any(part.shape[1] == 0 for part in chunks)
        keep = np.concatenate(chunks, axis=1)
        stats = run_ensemble(MapSpec("logistic", 2.8), init, NoiseSpec(0.4), t_max=t_max, n_traj=n, seed=SEED)
        assert stats.extinct_fraction == np.mean(exited)
        assert np.allclose(stats.mean, keep.mean(axis=1), rtol=1e-12, atol=0.0)
        assert np.allclose(stats.variance, keep.var(axis=1, ddof=1), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("cores", [1, 2, 5])
    def test_same_stats_on_any_core_count(self, monkeypatch, cores):
        # 1000-trajectory chunks: 7500 trajectories span eight streams, with
        # exits in every chunk
        monkeypatch.setattr(simulate, "CHUNK", 1000)
        monkeypatch.setattr(simulate, "_cores", lambda: 1)
        args = (MapSpec("logistic", 2.8), GammaParams(8.0, 0.06), NoiseSpec(0.4), 30, 7500, SEED)
        want = run_ensemble(*args)
        monkeypatch.setattr(simulate, "_cores", lambda: cores)
        got = run_ensemble(*args)
        assert 0.0 < got.extinct_fraction == want.extinct_fraction
        for field in ("times", "mean", "variance", "se_mean", "se_variance"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def test_point_mass_stays_exact_across_chunks(self, monkeypatch):
        # every chunk's start column is the point x0, and without noise so is
        # every later column: the merge adds exactly zero to mean and sums
        monkeypatch.setattr(simulate, "CHUNK", 64)
        stats = run_ensemble(MapSpec("ricker", 1.5), 0.4, NoiseSpec(0.1), t_max=5, n_traj=300, seed=SEED)
        assert (stats.mean[0], stats.variance[0], stats.se_variance[0]) == (0.4, 0.0, 0.0)
        assert np.all(stats.variance[1:] > 0.0)
        stats = run_ensemble(MapSpec("ricker", 1.5), 0.4, NoiseSpec(0.0), t_max=5, n_traj=300, seed=SEED)
        orbit = [0.4]
        for _ in range(5):
            orbit.append(float(maps.step("ricker", 1.5, np.array([orbit[-1]]))[0]))
        assert stats.mean.tolist() == orbit
        assert np.all(stats.variance == 0.0) and np.all(stats.se_variance == 0.0)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_error_in_one_chunk_propagates(self, monkeypatch, cores):
        real_rng = simulate.trajectory_rng

        def failing_rng(seed, index):
            if index == 2:
                raise RuntimeError("stream 2 failed")
            return real_rng(seed, index)

        monkeypatch.setattr(simulate, "CHUNK", 64)
        monkeypatch.setattr(simulate, "_cores", lambda: cores)
        monkeypatch.setattr(simulate, "trajectory_rng", failing_rng)
        with pytest.raises(RuntimeError, match="^stream 2 failed$"):
            run_ensemble(MapSpec("ricker", 1.5), 0.4, NoiseSpec(0.1), t_max=5, n_traj=300, seed=SEED)

    def test_fewer_than_two_survivors_is_named(self):
        # 0.7 -> 1.1e5 -> 0: every trajectory exits, so no step has a mean
        with pytest.raises(maps.DivergenceError) as info:
            run_ensemble(MapSpec("ricker", 40.0), 0.7, NoiseSpec(0.01), t_max=3, n_traj=10, seed=SEED)
        assert str(info.value) == ("the ricker ensemble at variance level 0.01 kept 0 of 10 "
                                   "trajectories in the open domain over 3 steps; a mean needs 2")

    def test_fewer_than_two_survivors_over_chunks_is_named(self, monkeypatch):
        # one survivor in all: chunk 0 keeps it, chunks 1 and 2 keep none
        monkeypatch.setattr(simulate, "CHUNK", 4)
        real_draw = simulate.noise_draw

        def draw(spec, rng, size):
            eps = real_draw(spec, rng, size)
            eps[1:] = 1e9  # pushes every trajectory but a chunk's first past the cap
            if rng.bit_generator.seed_seq.spawn_key != (0,):
                eps[0] = 1e9
            return eps

        monkeypatch.setattr(simulate, "noise_draw", draw)
        with pytest.raises(maps.DivergenceError) as info:
            run_ensemble(MapSpec("ricker", 1.5), 0.7, NoiseSpec(0.01), t_max=3, n_traj=10, seed=SEED)
        assert str(info.value) == ("the ricker ensemble at variance level 0.01 kept 1 of 10 "
                                   "trajectories in the open domain over 3 steps; a mean needs 2")

    def test_rejects_small_ensemble(self):
        with pytest.raises(ValueError):
            run_ensemble(MapSpec("logistic", 2.0), 0.5, NoiseSpec(0.0), 5, 1, SEED)


def moments_of(parts) -> tuple:
    """Mean, variance, se_mean and se_variance of the chunks ``parts``, each
    reduced on its own and merged in order."""
    return _stats(functools.reduce(_merge, [_reduce(part.copy()) for part in parts]))


class TestMoments:
    """The chunk reduction (``_reduce``), the pairwise merge (``_merge``) and
    the statistics drawn from it (``_stats``), on time-major rows."""

    def test_matches_numpy_reference(self):
        x = np.random.default_rng(SEED).gamma(2.0, 0.3, size=(3, 500))
        n = x.shape[1]
        mean, variance, se_mean, se_variance = moments_of([x])
        assert np.array_equal(mean, x.mean(axis=1))
        assert np.array_equal(variance, x.var(axis=1, ddof=1))
        assert np.array_equal(se_mean, np.sqrt(variance / n))
        m4 = ((x - mean[:, None]) ** 4).mean(axis=1)
        want = np.sqrt((m4 - (n - 3) / (n - 1) * variance**2) / n)
        assert np.allclose(se_variance, want, rtol=1e-12, atol=0.0)

    def test_one_column_reduces_like_a_matrix(self):
        # stationarity_check reduces one time's values, run_ensemble a block
        # of times; each time reduces alone, so the two agree to the bit
        x = np.random.default_rng(SEED).gamma(2.0, 0.3, size=(4, 1000))
        for row in range(x.shape[0]):
            for got, want in zip(moments_of([x[row:row + 1]]), moments_of([x])):
                assert got.shape == (1,) and got[0] == want[row]

    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_rows_is_nan(self, rows):
        for column in moments_of([np.ones((3, rows))]):
            assert column.shape == (3,) and np.isnan(column).all()

    def test_slabs_reduce_like_one_block(self, monkeypatch):
        # the reduction works through a block a few times at a time; where
        # the slabs fall changes nothing
        x = np.random.default_rng(SEED).gamma(2.0, 0.3, size=(7, 300))
        want = _reduce(x.copy())
        monkeypatch.setattr(simulate, "CHUNK", 600)  # slabs of two times
        got = _reduce(x.copy())
        for field in ("mean", "m2", "m3", "m4"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def test_merged_chunks_match_one_pass(self):
        # chunks of every size, empty and single-value ones among them, merge
        # to the central sums of one pass over all values
        x = np.random.default_rng(SEED).gamma(0.5, 2.0, size=(3, 2000)) + 10.0
        cuts = [0, 0, 1, 2, 700, 700, 1500, 1999, 2000]
        p = functools.reduce(_merge, [_reduce(x[:, a:b].copy()) for a, b in zip(cuts, cuts[1:])])
        d = x - x.mean(axis=1, keepdims=True)
        assert p.n == 2000
        assert np.allclose(p.mean, x.mean(axis=1), rtol=1e-12, atol=0.0)
        for got, power in ((p.m2, 2), (p.m3, 3), (p.m4, 4)):
            assert np.allclose(got, (d**power).sum(axis=1), rtol=1e-12, atol=0.0), power

    def test_constant_rows_stay_exact_across_chunks(self):
        x = np.full((2, 900), 0.1)
        x[1] = 1.0 / 3.0
        mean, variance, se_mean, se_variance = moments_of([x[:, :1], x[:, 1:400], x[:, 400:]])
        assert mean.tolist() == [0.1, 1.0 / 3.0]
        assert variance.tolist() == se_mean.tolist() == se_variance.tolist() == [0.0, 0.0]


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
        mean, variance, se_mean, se_variance = (s[0] for s in moments_of([p[None, :] for p in parts]))
        report = stationarity_check("logistic", k, v, "minus", n_traj=n, seed=seed)
        assert (report.mean, report.variance) == (float(mean), float(variance))
        assert report.mean_z == float((mean - k * b.theta) / se_mean)
        assert report.var_z == float((variance - k * b.theta**2) / se_variance)

    def test_one_chunk_reduces_in_one_pass_order(self):
        # a sample of at most CHUNK is one chunk, and its reduction takes the
        # one-pass operations in their order: mean, then the sums of the
        # squared and fourth-power deviations
        n, seed, k, v = CHUNK, 11, 1.0, 0.05
        b = ricker_solve(k, v).branches[0]
        rng = trajectory_rng(seed, 0)
        x = maps.step("ricker", b.r, rng.gamma(k, b.theta, size=n)) * noise_draw(NoiseSpec(v), rng, size=n)
        mean = x.mean()
        d2 = (x - mean) ** 2
        variance = d2.sum() / (n - 1)
        se_variance = math.sqrt(max(((d2 * d2).mean() - (n - 3) / (n - 1) * variance**2) / n, 0.0))
        report = stationarity_check("ricker", k, v, "plus", n_traj=n, seed=seed)
        assert (report.mean, report.variance) == (mean, variance)
        assert report.mean_z == (mean - b.theta) / math.sqrt(variance / n)
        assert report.var_z == (variance - b.theta**2) / se_variance

    @pytest.mark.parametrize("cores", [1, 2])
    def test_error_in_one_chunk_propagates(self, monkeypatch, cores):
        # the failing chunk returns no partial moments, so no report may be
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

    def test_plus_root_beyond_r_max_is_no_root(self):
        # r+ = 99.76 exists but lies past the default r_max = 10; only r- is solved
        assert ricker_solve(0.01, 0.5, r_max=1000.0).branches[0].r > 10.0
        with pytest.raises(NoRootError, match=r"^the 'plus' root of the Ricker equilibrium lies beyond "
                                              r"r_max=10\.0$") as info:
            stationarity_check("ricker", 0.01, 0.5, "plus", n_traj=100, seed=1)
        assert (info.value.r_lo, info.value.r_hi) == (0.0, 10.0)
        assert stationarity_check("ricker", 0.01, 0.5, "minus", n_traj=1000, seed=1).passed

    def test_trivial_minus_branch_is_a_usage_error(self):
        # at v = 0 the Ricker r- is the trivial r = 0, not a root beyond r_max
        with pytest.raises(ValueError, match=r"^no 'minus' branch among \['plus'\]$"):
            stationarity_check("ricker", 1.0, 0.0, "minus", n_traj=100, seed=1)

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


SCALE_SCRIPT = """
import json, resource
from steadychaos import GammaParams, MapSpec, NoiseSpec, ricker_solve, run_ensemble, simulate

b = ricker_solve(1.0, 0.05).branches[0]
args = (MapSpec("ricker", b.r), GammaParams(1.0, b.theta), NoiseSpec(0.05))
# one step over a chunk per core, two at least, starts the pool's threads
run_ensemble(*args, t_max=1, n_traj=max(2, simulate._cores()) * simulate.CHUNK, seed=2)
baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
stats = run_ensemble(*args, t_max=50, n_traj=10**6, seed=1)
print(json.dumps({
    "baseline_kib": baseline,
    "peak_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "cores": simulate._cores(),
    "chunk": simulate.CHUNK,
    "mean": stats.mean.tolist(),
    "extinct_fraction": stats.extinct_fraction,
}))
"""


def test_ensemble_memory_is_bounded_by_the_chunk():
    """10^6 Ricker trajectories x 50 steps from a Gamma start, in a fresh
    process. The baseline is the peak RSS after import and a one-step run over
    a chunk per core, which starts the pool's threads. What the full run adds
    above it must fit in one chunk's block per busy core, CHUNK float64
    columns of t_max+1 = 51 rows, plus 4 rows of working arrays per core:
    noise, the step's temporaries and the reduction's scratch take about 2.1
    rows, and malloc's placement moves the peak by up to 1.5 more. That is
    55 MiB on two cores, where the whole (n, t_max+1) matrix would be 389 MiB
    and the run needed about 1.2 GB."""
    import json
    import os
    import subprocess
    from pathlib import Path

    # a process starts with the peak RSS of the one that spawned it, and this
    # one has imported scipy: a small interpreter in between starts the run
    # from its own few MB
    launch = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"
    src = Path(simulate.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", launch, SCALE_SCRIPT], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    grown = (got["peak_kib"] - got["baseline_kib"]) * 1024
    row = got["chunk"] * 8
    budget = got["cores"] * (51 + 4) * row
    # the run must show in the peak, or the bound would hold for nothing
    assert 25 * row < grown < budget, (grown, budget)
    b = ricker_solve(1.0, 0.05).branches[0]
    assert got["extinct_fraction"] == 0.0
    assert abs(got["mean"][1] - math.exp(b.r) * laplace_moment(GammaParams(1.0, b.theta), 1, b.r)) < 0.01
