"""Deterministic map analysis: Lyapunov exponents, regime classification,
bifurcation scans, and the steady-state-to-chaos transition report.

Chaos is decided by the numerically computed Lyapunov sign, never by fixed
literature thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equilibrium import EquilibriumSolution, MapKind, logistic_solve, ricker_solve
from .simulate import RICKER_X_CAP

DEFAULT_LYAP_TOL = 1e-3
DEFAULT_P_MAX = 64
DEFAULT_BURN_IN = 1_000
DEFAULT_ITERS = 100_000
_CYCLE_TRANSIENT = 10_000
_CYCLE_TOL = 1e-8

# Generic starting points away from fixed points, superstable preimages,
# and poles; the second is the retry when the first escapes.
_DEFAULT_X0 = {"logistic": (0.37, 0.23), "ricker": (0.7, 1.3)}


class DivergenceError(RuntimeError):
    """Orbit left the admissible region."""


@dataclass(frozen=True)
class RegimeReport:
    kind: MapKind
    r: float
    lyapunov: float
    regime: str  # stable_fixed | periodic | chaotic | divergent | marginal
    period: Optional[int] = None


@dataclass(frozen=True)
class TransitionReport:
    kind: MapKind
    k: float
    var_eps: float
    branches: tuple[tuple[str, RegimeReport], ...]  # (branch label, report)
    transition_found: bool
    solution: EquilibriumSolution


def det_step(kind: MapKind, r: float, x: float) -> float:
    if kind == "logistic":
        return r * x * (1.0 - x)
    return x * math.exp(r * (1.0 - x))


def det_derivative(kind: MapKind, r: float, x: float) -> float:
    if kind == "logistic":
        return r * (1.0 - 2.0 * x)
    return math.exp(r * (1.0 - x)) * (1.0 - r * x)


def _check_escape(kind: MapKind, x: float) -> None:
    if kind == "logistic":
        if x < 0.0 or x > 1.0:
            raise DivergenceError(f"logistic orbit escaped [0,1] at x={x!r}")
    elif not (math.isfinite(x) and 0.0 <= x < RICKER_X_CAP):
        raise DivergenceError(f"ricker orbit escaped [0, {RICKER_X_CAP}) at x={x!r}")


def lyapunov(
    kind: MapKind,
    r: float,
    x0: Optional[float] = None,
    burn_in: int = DEFAULT_BURN_IN,
    iters: int = DEFAULT_ITERS,
) -> float:
    """Orbit average of ln|f'(x_t)| after burn-in.

    Returns -inf if the orbit hits a superstable point (derivative exactly 0);
    raises DivergenceError if the orbit escapes the admissible region.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    x = _DEFAULT_X0[kind][0] if x0 is None else x0
    _check_escape(kind, x)
    # two specialized loops: the iteration is inherently sequential and this
    # is the hot path
    if kind == "logistic":
        for _ in range(burn_in):
            x = r * x * (1.0 - x)
            if x < 0.0 or x > 1.0:
                raise DivergenceError(f"logistic orbit escaped [0,1] at x={x!r}")
        total = 0.0
        for _ in range(iters):
            d = r * (1.0 - 2.0 * x)
            if d == 0.0:
                return float("-inf")
            total += math.log(abs(d))
            x = r * x * (1.0 - x)
            if x < 0.0 or x > 1.0:
                raise DivergenceError(f"logistic orbit escaped [0,1] at x={x!r}")
        return total / iters
    # Ricker steps y = ln x, with ln|f'(x)| = r(1-x) + ln|1-rx|: an orbit
    # that passes near 0 keeps its digits instead of underflowing to the
    # extinct state, where the exponent would read r.
    y = math.log(x) if x > 0.0 else -math.inf
    for _ in range(burn_in):
        y += r * (1.0 - x)
        x = math.exp(y)
        _check_escape(kind, x)
    total = 0.0
    for _ in range(iters):
        d = 1.0 - r * x
        if d == 0.0:
            return float("-inf")
        g = r * (1.0 - x)
        total += g + math.log(abs(d))
        y += g
        x = math.exp(y)
        _check_escape(kind, x)
    return total / iters


def _detect_period(kind: MapKind, r: float, x0: float, p_max: int) -> Optional[int]:
    x = x0
    for _ in range(_CYCLE_TRANSIENT):
        x = det_step(kind, r, x)
        _check_escape(kind, x)
    ref = x
    scale = max(1.0, abs(ref))
    for p in range(1, p_max + 1):
        x = det_step(kind, r, x)
        _check_escape(kind, x)
        if abs(x - ref) < _CYCLE_TOL * scale:
            return p
    return None


def classify(
    kind: MapKind,
    r: float,
    lyap_tol: float = DEFAULT_LYAP_TOL,
    p_max: int = DEFAULT_P_MAX,
    x0: Optional[float] = None,
    burn_in: int = DEFAULT_BURN_IN,
    iters: int = DEFAULT_ITERS,
) -> RegimeReport:
    """Classify the deterministic regime at growth rate r.

    chaotic if the Lyapunov exponent exceeds lyap_tol; otherwise the minimal
    period p <= p_max is detected by cycle closure (stable_fixed for p=1);
    marginal when neither applies; divergent when the orbit escapes from both
    starting points.
    """
    starts = (x0,) if x0 is not None else _DEFAULT_X0[kind]
    lam = None
    start = None
    for candidate in starts:
        try:
            lam = lyapunov(kind, r, x0=candidate, burn_in=burn_in, iters=iters)
            start = candidate
            break
        except DivergenceError:
            continue
    if lam is None:
        return RegimeReport(kind=kind, r=r, lyapunov=float("nan"), regime="divergent")
    if lam > lyap_tol:
        return RegimeReport(kind=kind, r=r, lyapunov=lam, regime="chaotic")
    try:
        period = _detect_period(kind, r, start, p_max)
    except DivergenceError:
        return RegimeReport(kind=kind, r=r, lyapunov=lam, regime="divergent")
    # attracting cycles require a clearly negative exponent; a closure hit
    # with |lambda| inside the tolerance band is a bifurcation edge
    if period is not None and lam < -lyap_tol:
        regime = "stable_fixed" if period == 1 else "periodic"
        return RegimeReport(kind=kind, r=r, lyapunov=lam, regime=regime, period=period)
    return RegimeReport(kind=kind, r=r, lyapunov=lam, regime="marginal")


@dataclass(frozen=True)
class ScanRecord:
    r: float
    samples: np.ndarray
    lyapunov: float


def bifurcation_scan(
    kind: MapKind,
    r_min: float,
    r_max: float,
    n_r: int,
    samples_per_r: int = 100,
    burn_in: int = DEFAULT_BURN_IN,
    lyap_iters: int = 5_000,
) -> list[ScanRecord]:
    """Attractor samples and Lyapunov exponent on a uniform r grid.

    Vectorized across the grid; escaped grid points yield NaN records.
    """
    if not (r_min < r_max):
        raise ValueError(f"need r_min < r_max, got {r_min}, {r_max}")
    if n_r < 2:
        raise ValueError(f"n_r must be >= 2, got {n_r}")
    rs = np.linspace(r_min, r_max, n_r)
    x = np.full(n_r, _DEFAULT_X0[kind][0])

    def advance(x: np.ndarray) -> np.ndarray:
        if kind == "logistic":
            return rs * x * (1.0 - x)
        return x * np.exp(rs * (1.0 - x))

    def deriv(x: np.ndarray) -> np.ndarray:
        if kind == "logistic":
            return rs * (1.0 - 2.0 * x)
        return np.exp(rs * (1.0 - x)) * (1.0 - rs * x)

    def escaped(x: np.ndarray) -> np.ndarray:
        if kind == "logistic":
            return ~np.isfinite(x) | (x < 0.0) | (x > 1.0)
        return ~np.isfinite(x) | (x < 0.0) | (x >= RICKER_X_CAP)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(burn_in):
            x = advance(x)
            x[escaped(x)] = np.nan
        lam = np.zeros(n_r)
        for _ in range(lyap_iters):
            lam += np.log(np.abs(deriv(x)))
            x = advance(x)
            x[escaped(x)] = np.nan
        lam /= lyap_iters
        samples = np.empty((n_r, samples_per_r))
        for j in range(samples_per_r):
            samples[:, j] = x
            x = advance(x)
            x[escaped(x)] = np.nan
    return [
        ScanRecord(r=float(rs[i]), samples=samples[i].copy(), lyapunov=float(lam[i]))
        for i in range(n_r)
    ]


def transition_report(
    kind: MapKind,
    k: float,
    var_eps: float,
    lyap_tol: float = DEFAULT_LYAP_TOL,
    iters: int = DEFAULT_ITERS,
) -> TransitionReport:
    """Solve the equilibrium branches and classify each growth rate
    deterministically; transition_found iff any branch is chaotic."""
    sol = logistic_solve(k, var_eps) if kind == "logistic" else ricker_solve(k, var_eps)
    classified = tuple(
        (b.label, classify(kind, b.r, lyap_tol=lyap_tol, iters=iters)) for b in sol.branches
    )
    found = any(report.regime == "chaotic" for _, report in classified)
    return TransitionReport(
        kind=kind, k=k, var_eps=var_eps, branches=classified,
        transition_found=found, solution=sol,
    )
