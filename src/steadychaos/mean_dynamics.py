"""Deterministic recursions for the ensemble mean and convergence diagnostics.

The one-step mean update is exact for the logistic map; for Ricker it carries
the explicit second-order variance correction, with higher orders represented
only through the convergence-order diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import maps
from .equilibrium import NoiseSpec
from .gamma_core import fit_from_moments
from .maps import MapKind
from .simulate import MapSpec, noiseless, run_ensemble

_Y0 = {"logistic": 0.3, "ricker": 0.7}


@dataclass(frozen=True)
class MeanState:
    y: float
    var_x: float

    def __post_init__(self) -> None:
        if not (self.var_x >= 0):
            raise ValueError(f"var_x must be >= 0, got {self.var_x!r}")


def mean_update(kind: MapKind, r: float, state: MeanState) -> float:
    """One-step mean f(y) + f''(y) Var(X)/2 of an ensemble with mean y: exact for
    the quadratic logistic map, second order in Var(X) for Ricker."""
    y = state.y
    return maps.step(kind, r, y) + maps.second_derivative(kind, r, y) * state.var_x / 2


def deterministic_orbit(kind: MapKind, r: float, x0: float, t_max: int) -> np.ndarray:
    """x_0 .. x_t_max of the deterministic map, the limit of the ensemble mean,
    stepped by ``maps.blocks`` (Ricker in ln x); ``maps.escaped`` at the first
    step (0 for the start) that leaves the closed domain, overflow included."""
    maps.check(kind, r)
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    out, t = np.empty(t_max + 1), 0
    # a start at or below 0 and the steps from an escape may warn; escapes are caught below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _, rows in maps.blocks(kind, r, np.array([x0], dtype=float), (t_max + 1,)):
            out[t:t + len(rows)] = rows[:, 0]
            t += len(rows)
    escaped = ~maps.in_domain(kind, out)
    if escaped.any():
        t = int(escaped.argmax())
        raise maps.escaped(kind, x0, t, float(out[t]))
    return out


def convergence_sweep(
    kind: MapKind,
    r: float,
    ladder: Sequence[float],
    t_max: int,
    n_traj: int = 20_000,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Max deviation of the stochastic ensemble mean from the deterministic
    orbit, per variance level.

    Each level v initializes the ensemble from a gamma distribution with mean
    y0 (0.3 logistic, 0.7 Ricker) and variance v, with noise variance v.
    A ``noiseless`` level (0, or so small that 1/v overflows) is exact: the
    point mass y0 without noise is the orbit itself. DivergenceError when the orbit escapes, or (from ``run_ensemble``) fewer
    than two trajectories of a level stay in the domain. ValueError, before any
    work, for t_max < 1 (``run_ensemble``'s bound), noiseless levels included.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    levels = [float(v) for v in ladder]
    for a, b in zip(levels, levels[1:]):
        if not (b < a):
            raise ValueError(f"variance ladder must be strictly decreasing, got {levels}")
    if any(v < 0 for v in levels):
        raise ValueError(f"variance levels must be >= 0, got {levels}")
    y0 = _Y0[kind]
    det = deterministic_orbit(kind, r, y0, t_max)
    out = []
    for v in levels:
        if noiseless(v):
            out.append((v, 0.0))
            continue
        stats = run_ensemble(
            MapSpec(kind, r),
            fit_from_moments(y0, v),
            NoiseSpec(v),
            t_max=t_max,
            n_traj=n_traj,
            seed=seed,
        )
        out.append((v, float(np.max(np.abs(stats.mean - det)))))
    return out
