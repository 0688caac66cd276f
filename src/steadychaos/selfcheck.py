"""Executable invariant battery behind the CLI's self-check command.

Each check returns (name, passed, detail); the CLI prints one line per check.
"""

from __future__ import annotations

import math

import numpy as np

from . import equilibrium, gamma_core, simulate
from .gamma_core import GammaParams


def _check_gamma_moments() -> tuple[str, bool, str]:
    worst = 0.0
    for k in (0.3, 1.0, 2.0, 10.0, 100.0):
        for theta in (0.1, 1.0, 3.0):
            p = GammaParams(k, theta)
            # recurrence m_{n+1} = (k+n) theta m_n
            for n in range(8):
                got = gamma_core.raw_moment(p, n + 1)
                want = (k + n) * theta * gamma_core.raw_moment(p, n)
                worst = max(worst, abs(got - want) / abs(want))
            # central moments vs raw-moment expansions
            m = [gamma_core.raw_moment(p, n) for n in range(5)]
            c3 = m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3
            c4 = m[4] - 4 * m[1] * m[3] + 6 * m[1] ** 2 * m[2] - 3 * m[1] ** 4
            worst = max(worst, abs(gamma_core.central_moment3(p) - c3) / abs(c3))
            worst = max(worst, abs(gamma_core.central_moment4(p) - c4) / abs(c4))
    return "gamma moment identities", worst < 1e-10, f"worst relative error {worst:.3e}"


def _check_logistic_residuals() -> tuple[str, bool, str]:
    worst = 0.0
    for k in (0.01, 1.0, 2.0, 10.0, 100.0):
        bound = equilibrium.logistic_noise_bound(k)
        for v in np.linspace(0.0, bound, 20):
            sol = equilibrium.solve("logistic", k, float(v))
            for b in sol.branches:
                worst = max(worst, abs(equilibrium.logistic_quadratic_residual(b.r, k, float(v))))
    return "logistic quadratic residuals", worst < 1e-10, f"worst |residual| {worst:.3e}"


def _check_ricker_residuals() -> tuple[str, bool, str]:
    worst = 0.0
    worst_theta = 0.0
    for k in (0.5, 1.0, 2.0, 10.0, 100.0):
        sol = equilibrium.solve("ricker", k, 0.0)
        for b in sol.branches:
            worst = max(worst, abs(equilibrium.ricker_residual(b.r, k, 0.0)))
            # mean stationarity: 1 + r theta = e^{r/(k+1)}
            lhs = 1.0 + b.r * b.theta
            rhs = math.exp(b.r / (k + 1.0))
            worst_theta = max(worst_theta, abs(lhs - rhs) / rhs)
    ok = worst < 1e-10 and worst_theta < 1e-12
    return (
        "ricker residuals and theta stationarity",
        ok,
        f"worst |residual| {worst:.3e}, worst theta mismatch {worst_theta:.3e}",
    )


def _check_stationarity() -> tuple[str, bool, str]:
    combos = [
        ("logistic", 1.0, 0.1, "plus"),
        ("logistic", 2.0, 0.1, "minus"),
        ("ricker", 1.0, 0.05, "plus"),
        ("ricker", 2.0, 0.05, "minus"),
    ]
    worst = 0.0
    for kind, k, v, branch in combos:
        report = simulate.stationarity_check(kind, k, v, branch, n_traj=200_000, seed=7)
        worst = max(worst, abs(report.mean_z), abs(report.var_z))
        if not report.passed:
            return "one-step stationarity z-tests", False, (
                f"{kind} k={k} var_eps={v} {branch}: mean_z={report.mean_z:.2f} "
                f"var_z={report.var_z:.2f}"
            )
    return "one-step stationarity z-tests", True, f"worst |z| {worst:.2f}"


def run_all() -> list[tuple[str, bool, str]]:
    return [
        _check_gamma_moments(),
        _check_logistic_residuals(),
        _check_ricker_residuals(),
        _check_stationarity(),
    ]
