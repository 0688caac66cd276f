"""Deterministic map analysis: Lyapunov exponents, regime classification,
bifurcation scans, and the steady-state-to-chaos transition report.

Chaos is decided by the numerically computed Lyapunov sign, never by fixed
literature thresholds. Off a cycle the exponent is an ensemble estimate with a
standard error, and the sign counts only once it is settled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import maps
from .equilibrium import EquilibriumSolution, solve
from .maps import DivergenceError, MapKind

_LYAP_TOL = 1e-3
_P_MAX = 128
DEFAULT_BURN_IN = 1_000
DEFAULT_ITERS = 100_000
_CYCLE_TRANSIENT = 10_000
_CYCLE_TOL = 1e-8
# the ensemble estimator: orbits stepped together, and the z of the stop
# |lambda| > z se (the z of the stationarity test)
_ORBITS = 256
_Z = 4.0
# orbit j starts at frac(x0 + j (sqrt(5) - 1)/2), spread over (0, 1); an even
# grid would hold 1/2, which the logistic map at r = 4 sends onto 1 and then 0
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RegimeReport:
    r: float
    lyapunov: float
    regime: str  # stable_fixed | periodic | chaotic | divergent | marginal
    period: Optional[int] = None
    # chaotic and marginal only: the standard error of ``lyapunov`` and the
    # steps averaged per orbit
    se: Optional[float] = None
    iters: Optional[int] = None


@dataclass(frozen=True)
class TransitionReport:
    branches: tuple[tuple[str, RegimeReport], ...]  # (branch label, report)
    transition_found: bool
    solution: EquilibriumSolution  # holds the map, k and var_eps


def _ensemble_exponent(kind: MapKind, r: float, burn_in: int, iters: int) -> tuple:
    """(lambda, se, n): the Lyapunov exponent as the mean of the orbit averages
    of ``maps.lyapunov_terms`` over _ORBITS orbits stepped together by
    ``maps.blocks``, and its standard error, their standard deviation over
    sqrt(_ORBITS).

    Orbit j starts at frac(``maps.DEFAULT_X0`` + j _GOLDEN). The orbits burn
    in for ``burn_in`` steps, then average in blocks of ``maps.BLOCK`` steps;
    after each block the estimate stops once |lambda| > _Z se, else at
    n = ``iters`` steps per orbit. A superstable point (f' = 0) gives
    lambda = -inf with se NaN. ``maps.escaped`` when a state it steps from
    leaves the closed domain, overflow included.
    """
    starts = (maps.DEFAULT_X0[kind] + _GOLDEN * np.arange(_ORBITS)) % 1.0
    sums = np.zeros(_ORBITS)
    done = n = 0
    # a Ricker step past the float range gives inf, outside the domain; the
    # log of a zero derivative is -inf, and the spread of -inf terms NaN
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for phase, rows in maps.blocks(kind, r, starts, (burn_in, iters)):
            escaped = ~maps.in_domain(kind, rows)
            if escaped.any():
                i, j = divmod(int(escaped.argmax()), _ORBITS)
                raise maps.escaped(kind, float(starts[j]), done + i, float(rows[i, j]))
            done += len(rows)
            if phase == 0:
                continue
            sums += maps.lyapunov_terms(kind, r, rows).sum(axis=0)
            n += len(rows)
            means = sums / n
            lam = float(means.mean())
            se = float(means.std(ddof=1)) / math.sqrt(_ORBITS)
            if lam == -math.inf or abs(lam) > _Z * se:
                break
    return lam, se, n


def lyapunov(kind: MapKind, r: float, burn_in: int = DEFAULT_BURN_IN, iters: int = DEFAULT_ITERS) -> float:
    """Lyapunov exponent of the deterministic map at growth rate r: the ensemble
    estimate of ``_ensemble_exponent`` from ``maps.DEFAULT_X0``, ``iters`` its
    cap of steps per orbit; -inf if an orbit hits a superstable point (f' = 0).
    DivergenceError if an orbit leaves the closed domain, ValueError for a bad
    kind or r."""
    maps.check(kind, r)
    maps.check_count("burn_in", burn_in, 0)
    maps.check_count("iters", iters, 1)
    return _ensemble_exponent(kind, r, burn_in, iters)[0]


def _attracting_cycle(kind: MapKind, r: float, x0: float, p_max: int) -> Optional[tuple]:
    """(p, (1/p) sum ln|f'(x_i)|) for the least p <= p_max at which the orbit
    from x0 closes within _CYCLE_TOL twice running after _CYCLE_TRANSIENT
    steps, or None; DivergenceError on escape. Closure is in x (logistic) or
    y = ln x (Ricker, whose x underflows to 0); -inf means superstable."""
    y = math.log(x0) if x0 > 0.0 else -math.inf
    states = [maps.orbit(kind, r, x0, y, _CYCLE_TRANSIENT)]
    maps.orbit(kind, r, *states[0], 2 * p_max, states)
    xs = [x for x, _ in states]
    zs = [y for _, y in states] if kind == "ricker" else xs
    for p in range(1, p_max + 1):
        # equal states close too: y = -inf on Ricker's extinct fixed point
        a, b, c = zs[0], zs[p], zs[2 * p]
        if (b == a or abs(b - a) < _CYCLE_TOL) and (c == b or abs(c - b) < _CYCLE_TOL):
            with np.errstate(divide="ignore"):
                terms = maps.log_abs_derivative(kind, r, np.array(xs[:p]))
            return p, float(terms.mean())
    return None


def classify(kind: MapKind, r: float, iters: int = DEFAULT_ITERS) -> RegimeReport:
    """Classify the deterministic regime at growth rate r.

    Cycle first: an orbit that settles on a cycle of period p <= _P_MAX with
    exact exponent below -_LYAP_TOL is stable_fixed (p = 1) or periodic. Only
    otherwise is the exponent the ensemble estimate of ``_ensemble_exponent``
    after DEFAULT_BURN_IN, ``iters`` its cap: chaotic when it exceeds both
    _LYAP_TOL and _Z standard errors, else marginal. Both start from
    ``maps.DEFAULT_X0``, as ``lyapunov`` does; divergent when an orbit escapes.
    """
    maps.check(kind, r)
    maps.check_count("iters", iters, 1)
    try:
        cycle = _attracting_cycle(kind, r, maps.DEFAULT_X0[kind], _P_MAX)
        # a closure inside the tolerance band is a bifurcation edge
        if cycle is not None and cycle[1] < -_LYAP_TOL:
            period, lam = cycle
            regime = "stable_fixed" if period == 1 else "periodic"
            return RegimeReport(r=r, lyapunov=lam, regime=regime, period=period)
        lam, se, n = _ensemble_exponent(kind, r, DEFAULT_BURN_IN, iters)
    except DivergenceError:
        return RegimeReport(r=r, lyapunov=float("nan"), regime="divergent")
    regime = "chaotic" if lam > _LYAP_TOL and lam > _Z * se else "marginal"
    return RegimeReport(r=r, lyapunov=lam, regime=regime, se=se, iters=n)


@dataclass(frozen=True)
class ScanRecord:
    r: float
    samples: np.ndarray
    lyapunov: float
    se: float  # of ``lyapunov``; NaN with one block, at -inf, or once escaped


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

    One orbit per grid point, stepped together by ``maps.blocks``: ``burn_in``
    steps, ``lyap_iters`` averaging ``maps.lyapunov_terms``, then
    ``samples_per_r`` samples. The standard error is by batch means over the
    averaging blocks (Flegal & Jones 2010, Ann. Statist. 38). An orbit is NaN
    from its first escape on, and so are its exponent and standard error.
    """
    maps.check(kind, r_min)
    maps.check(kind, r_max)
    if not (r_min < r_max):
        raise ValueError(f"need r_min < r_max, got {r_min}, {r_max}")
    maps.check_count("n_r", n_r, 2)
    maps.check_count("burn_in", burn_in, 0)
    maps.check_count("lyap_iters", lyap_iters, 1)
    maps.check_count("samples_per_r", samples_per_r, 0)
    rs = np.linspace(r_min, r_max, n_r)
    sums, sizes, gone = [], [], np.zeros(n_r, dtype=bool)
    samples, taken = np.empty((samples_per_r, n_r)), 0
    start = np.full(n_r, maps.DEFAULT_X0[kind])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for phase, rows in maps.blocks(kind, rs, start, (burn_in, lyap_iters, samples_per_r)):
            out = ~maps.in_domain(kind, rows)
            # the bookkeeping only once an orbit leaves: nothing escapes on most grids
            if gone.any() or out.any():
                escaped = np.logical_or.accumulate(out, axis=0) | gone
                rows[escaped] = np.nan
                gone = escaped[-1]
            if phase == 1:
                sums.append(maps.lyapunov_terms(kind, rs, rows).sum(axis=0))
                sizes.append(len(rows))
            elif phase == 2:
                samples[taken:taken + len(rows)] = rows
                taken += len(rows)
        sums, sizes = np.array(sums), np.array(sizes)[:, None]
        lam = sums.sum(axis=0) / lyap_iters
        # block means weighted by block length; one block leaves 0/0
        se = np.sqrt((sizes * (sums / sizes - lam) ** 2).sum(axis=0) / (len(sizes) - 1) / lyap_iters)
    return [
        ScanRecord(r=float(rs[i]), samples=samples[:, i].copy(), lyapunov=float(lam[i]), se=float(se[i]))
        for i in range(n_r)
    ]


def transition_report(kind: MapKind, k: float, var_eps: float) -> TransitionReport:
    """Solve the equilibrium branches and ``classify`` each growth rate
    deterministically; transition_found iff any branch is chaotic."""
    sol = solve(kind, k, var_eps)
    classified = tuple((b.label, classify(kind, b.r)) for b in sol.branches)
    found = any(report.regime == "chaotic" for _, report in classified)
    return TransitionReport(branches=classified, transition_found=found, solution=sol)
