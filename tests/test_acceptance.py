"""End-to-end acceptance battery.

Each test covers one release criterion, checks its stated numerical tolerance,
enforces its runtime budget, and prints a single PASS line (visible with -s).
"""

import math
import time

import mpmath
import numpy as np
import pytest

from steadychaos import (
    GammaParams,
    MeanState,
    NoiseSpec,
    central_moment3,
    central_moment4,
    classify,
    laplace_moment,
    logistic_noise_bound,
    logistic_quadratic_residual,
    logistic_solve,
    lyapunov,
    mean_update,
    noise_draw,
    raw_moment,
    ricker_residual,
    ricker_solve,
)
from steadychaos.cli import main as cli_main
from tests.conftest import central_moment_quadrature, weighted_moment_quadrature

GRID_K = (0.3, 1.0, 2.0, 10.0, 100.0)
GRID_THETA = (0.1, 1.0, 3.0)
GRID_S = (0.0, 0.5, 2.0)


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"{verdict} {self.name} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded budget: {elapsed:.2f}s"
        return False


def test_criterion_1_gamma_algebra_vs_quadrature():
    with _Budget("criterion 1: gamma moment closed forms vs quadrature", 1.0):
        for k in GRID_K:
            for theta in GRID_THETA:
                p = GammaParams(k, theta)
                for n in range(5):
                    for s in GRID_S:
                        oracle = weighted_moment_quadrature(p, n, s)
                        assert laplace_moment(p, n, s) == pytest.approx(oracle, rel=1e-10)
                        if s == 0.0:
                            assert raw_moment(p, n) == pytest.approx(oracle, rel=1e-10)
                assert central_moment3(p) == pytest.approx(
                    central_moment_quadrature(p, 3), rel=1e-10
                )
                assert central_moment4(p) == pytest.approx(
                    central_moment_quadrature(p, 4), rel=1e-10
                )


def test_criterion_2_logistic_equilibrium_grid():
    with _Budget("criterion 2: logistic branch residuals and no-chaos range", 1.0):
        for k in GRID_K:
            bound = logistic_noise_bound(k)
            cap = (3.0 * k + 5.0) / (k + 3.0)
            for v in np.linspace(0.0, bound, 20):
                v = float(v)
                sol = logistic_solve(k, v)
                r_plus, r_minus = sol.branches[0].r, sol.branches[1].r
                assert abs(logistic_quadratic_residual(r_plus, k, v)) < 1e-10
                assert abs(logistic_quadratic_residual(r_minus, k, v)) < 1e-10
                # neither branch can reach the chaotic region: r < 3 always
                assert 1.0 <= r_minus + 1e-12
                assert r_minus <= r_plus <= cap + 1e-12
                assert cap < 3.0


def test_criterion_3_ricker_equilibrium_and_transition():
    with _Budget("criterion 3: ricker roots, r(k) curve, chaotic branch", 10.0):
        # noiseless curve: strictly decreasing, all above 2
        ks = np.geomspace(0.5, 100.0, 25)
        roots = []
        for k in ks:
            sol = ricker_solve(float(k), 0.0)
            b = sol.branches[0]
            assert abs(ricker_residual(b.r, float(k), 0.0)) < 1e-10
            roots.append(b.r)
        assert all(r > 2.0 for r in roots)
        assert all(a > b for a, b in zip(roots, roots[1:]))
        # small shapes transition to chaos
        for k in (0.5, 1.0):
            sol = ricker_solve(k, 0.0)
            rep = classify("ricker", sol.branches[0].r, iters=50_000)
            assert rep.regime == "chaotic", rep
        # with noise at k=1: two branches straddling 2
        for v in (0.01, 0.05):
            sol = ricker_solve(1.0, v)
            assert len(sol.branches) == 2
            r_plus, r_minus = sol.branches[0].r, sol.branches[1].r
            assert r_minus < 2.0 < r_plus
            for b in sol.branches:
                assert abs(ricker_residual(b.r, 1.0, v)) < 1e-10


def test_criterion_4_stationarity_monte_carlo():
    from steadychaos import stationarity_check

    combos = [
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
    with _Budget("criterion 4: one-step stationarity z-tests at n=10^6", 60.0):
        for kind, k, v, branch in combos:
            report = stationarity_check(kind, k, v, branch, n_traj=10**6, seed=42)
            assert abs(report.mean_z) < 4.0, (kind, k, v, branch, report)
            assert abs(report.var_z) < 4.0, (kind, k, v, branch, report)
        control = stationarity_check(
            "logistic", 2.0, 0.1, "plus", n_traj=10**6, seed=42, r_offset=0.2
        )
        assert abs(control.mean_z) > 4.0


def _exact_ricker_mean(r: float, y: float, v: float) -> float:
    # gamma initial law with mean y, variance v: e^r * k*theta/(1+r*theta)^(k+1)
    with mpmath.workdps(50):
        k = mpmath.mpf(y) ** 2 / mpmath.mpf(v)
        theta = mpmath.mpf(v) / mpmath.mpf(y)
        val = mpmath.e**r * k * theta / (1 + mpmath.mpf(r) * theta) ** (k + 1)
        return float(val)


def test_criterion_5_mean_recursions():
    with _Budget("criterion 5: distribution-free logistic step; ricker order", 60.0):
        # logistic: exact one-step mean for three non-gamma initial laws
        r, y, v = 2.0, 0.5, 0.01
        rng = np.random.default_rng(20250823)
        n = 400_000
        half_width = math.sqrt(3.0 * v)
        sigma2 = math.log1p(v / y**2)
        inits = {
            "uniform": (rng.uniform(y - half_width, y + half_width, n), v),
            "lognormal": (
                rng.lognormal(math.log(y) - 0.5 * sigma2, math.sqrt(sigma2), n),
                v,
            ),
            "point": (np.full(n, y), 0.0),
        }
        for name, (x0, var_x) in inits.items():
            eps = noise_draw(NoiseSpec(0.05), rng, size=n)
            x1 = r * x0 * (1.0 - x0) * eps
            predicted = mean_update("logistic", r, MeanState(y, var_x))
            se = x1.std(ddof=1) / math.sqrt(n)
            assert abs(x1.mean() - predicted) < 4.0 * se, name

        # ricker: corrected update error shrinks superlinearly in Var
        r, y = 1.2, 0.7
        ladder = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        errors = []
        for v in ladder:
            exact = _exact_ricker_mean(r, y, float(v))
            approx = mean_update("ricker", r, MeanState(y, float(v)))
            errors.append(abs(approx - exact))
        slope = np.polyfit(np.log(ladder), np.log(errors), 1)[0]
        assert slope >= 1.3, (slope, errors)


def test_criterion_6_lyapunov_oracles():
    with _Budget("criterion 6: Lyapunov exponent oracles", 30.0):
        assert lyapunov("logistic", 4.0) == pytest.approx(math.log(2.0), abs=1e-3)
        # stable fixed points: orbit average equals ln|f'(x*)| to 1e-6;
        # superstable points (f'(x*) = 0) give the -inf sentinel instead
        for r in (1.5, 2.5, 2.9):
            assert lyapunov("logistic", r) == pytest.approx(
                math.log(abs(2.0 - r)), abs=1e-6
            )
        for r in (0.5, 1.5, 1.9):
            assert lyapunov("ricker", r) == pytest.approx(math.log(abs(1.0 - r)), abs=1e-6)
        assert lyapunov("logistic", 2.0) == float("-inf")
        assert lyapunov("ricker", 1.0) == float("-inf")
        # chaos onset bracketed in [3.55, 3.60]
        assert lyapunov("logistic", 3.55) < 0.0 < lyapunov("logistic", 3.60)
        # ricker stays non-chaotic below r = 2
        for r in np.linspace(0.1, 1.95, 10):
            assert lyapunov("ricker", float(r), iters=20_000) < 0.0


def test_criterion_7_cli_end_to_end(capsys):
    with _Budget("criterion 7: CLI transition verdicts and determinism", 30.0):
        for k in (0.5, 1.0, 2.0, 10.0):
            v = min(0.05, 0.5 * logistic_noise_bound(k))
            code = cli_main(
                ["transition", "--map", "logistic", "--k", str(k), "--var-eps", str(v)]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert out.splitlines()[0] == "NO TRANSITION", (k, v, out)
        for k in (0.5, 1.0):
            code = cli_main(["transition", "--map", "ricker", "--k", str(k), "--var-eps", "0"])
            out = capsys.readouterr().out
            assert code == 0
            assert out.splitlines()[0] == "TRANSITION", (k, out)
        # identical seeds are byte-identical across worker counts
        base = [
            "simulate", "--map", "ricker", "--r", "1.3", "--noise-var", "0.05",
            "--init-k", "2.0", "--init-theta", "0.3", "--t-max", "20",
            "--n-traj", "2000", "--seed", "123",
        ]
        outputs = []
        for workers in ("1", "3", "8"):
            assert cli_main(base + ["--n-workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
