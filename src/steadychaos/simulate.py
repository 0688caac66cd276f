"""Monte Carlo engine for the stochastic logistic and Ricker maps.

Randomness comes from PCG64DXSM streams (O'Neill, HMC-CS-2014-0905) keyed by
(seed, index) through numpy's ``SeedSequence`` spawn keys. An ensemble takes
one stream per fixed block of BLOCK trajectories and draws them on one
thread. The stationarity sample takes one stream per fixed chunk of CHUNK
samples, and its chunks are drawn on threads across the cores this process
may use. Which variates a trajectory or sample gets depends only on the seed
and its index, never on the thread or core count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Literal, Optional, Union

import numpy as np

from . import maps
from .equilibrium import Branch, EquilibriumSolution, NoiseFamily, NoiseSpec, solve
from .gamma_core import GammaParams
from .maps import MapKind

# Trajectories per ensemble stream: a constant, never derived from the
# ensemble size, so block b always holds the same trajectories.
BLOCK = 1024

# Samples per stationarity stream: a constant, never derived from the sample
# size or the core count, so chunk c always holds the same samples. Not BLOCK:
# about 977 streams per 10^6 samples would spend around 25 ms in SeedSequence
# setup and per-call overhead, all under the GIL.
CHUNK = 2**16


@dataclass(frozen=True)
class MapSpec:
    kind: MapKind
    r: float

    def __post_init__(self) -> None:
        maps.check(self.kind, self.r)


@dataclass(frozen=True)
class Trajectory:
    values: np.ndarray  # length t_max+1; NaN after an early exit
    exited: bool
    exit_step: Optional[int]


@dataclass(frozen=True)
class EnsembleStats:
    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    se_mean: np.ndarray
    se_variance: np.ndarray
    n_traj: int
    extinct_fraction: float


@dataclass(frozen=True)
class StationarityReport:
    mean_z: float
    var_z: float
    passed: bool
    mean: float  # sample mean of the one-step values
    variance: float  # their sample variance (ddof=1)
    target_mean: float  # k*theta
    target_variance: float  # k*theta^2


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """PCG64DXSM stream ``index`` under master ``seed``: the generator seeded
    by ``SeedSequence(seed, spawn_key=(index,))``, so distinct (seed, index)
    pairs hash to independent states; ``run_ensemble`` draws block ``index``
    of its trajectories from it."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be >= 0 and < 2**64, got {seed}")
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(index,))))


def noiseless(variance: float) -> bool:
    """Noise exactly 1: variance 0, or below about 5.6e-309, where the gamma shape 1/v overflows."""
    return variance == 0.0 or 1.0 / variance == math.inf


def noise_draw(spec: NoiseSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` mean-1 multiplicative noise variates.

    gamma family: shape 1/v, scale v; lognormal family: log-mean -ln(1+v)/2,
    log-variance ln(1+v). ``noiseless`` variances return exactly 1.
    """
    v = spec.variance
    if noiseless(v):
        return np.ones(size)
    if spec.family == "gamma":
        return rng.gamma(1.0 / v, v, size=size)
    s2 = math.log1p(v)
    return rng.lognormal(-0.5 * s2, math.sqrt(s2), size=size)


def _iterate(map: MapSpec, x0: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Step all trajectories together, time-major: row i starts at x0[i] and
    takes eps[i, t] at step t. A row holds NaN after the step at which it
    leaves the open domain; that step keeps the value that left."""
    values = np.full((len(x0), eps.shape[1] + 1), np.nan)
    values[:, 0] = x0
    x = np.where(maps.in_open_domain(map.kind, x0), x0, np.nan)
    # a step that overflows leaves the domain like any other escape
    with np.errstate(over="ignore"):
        for t in range(eps.shape[1]):
            x = maps.step(map.kind, map.r, x) * eps[:, t]
            values[:, t + 1] = x
            x[~maps.in_open_domain(map.kind, x)] = np.nan
    return values


def run_trajectory(
    map: MapSpec,
    x0: float,
    noise: NoiseSpec,
    t_max: int,
    rng: np.random.Generator,
) -> Trajectory:
    """Iterate the stochastic map; stops and flags when the state leaves the
    open domain (``maps.in_open_domain``)."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    eps = noise_draw(noise, rng, size=t_max)
    values = _iterate(map, np.array([x0], dtype=float), eps[None, :])[0]
    outside = ~maps.in_open_domain(map.kind, values)
    exit_step = int(np.argmax(outside)) if outside.any() else None
    return Trajectory(values=values, exited=exit_step is not None, exit_step=exit_step)


def _moments(x: np.ndarray):
    """Mean, variance (ddof=1), se_mean and se_variance over axis 0; NaN
    when x has fewer than two rows. ``x`` is consumed: it is centred and
    raised to the fourth power in place."""
    n = x.shape[0]
    if n < 2:
        nan = np.full(x.shape[1:], np.nan)
        return nan, nan, nan, nan
    # a constant column has its value as mean and exactly zero variance and
    # se_variance; the generic formulas leave rounding residue in all three
    lo = x.min(axis=0)
    constant = x.max(axis=0) == lo
    mean = np.where(constant, lo, x.mean(axis=0))
    # x itself, centred and squared in place, serves both moments: a copy
    # would be one more n-row array at the peak, and x**4 goes through the
    # slow pow()
    x -= mean
    x *= x
    variance = np.where(constant, 0.0, x.sum(axis=0) / (n - 1))
    se_mean = np.sqrt(variance / n)
    x *= x
    m4 = x.mean(axis=0)
    se_variance = np.sqrt(np.clip((m4 - (n - 3) / (n - 1) * variance**2) / n, 0.0, None))
    return mean, variance, se_mean, se_variance


InitSpec = Union[float, GammaParams]


def run_ensemble(
    map: MapSpec,
    init: InitSpec,
    noise: NoiseSpec,
    t_max: int,
    n_traj: int,
    seed: int,
) -> EnsembleStats:
    """Ensemble of independent trajectories, drawn block by block.

    Block b holds trajectories [b*BLOCK, min((b+1)*BLOCK, n_traj)) and draws
    from ``trajectory_rng(seed, b)``: first its start points when ``init`` is
    ``GammaParams`` (a float ``init`` is a point mass), then its noise, row by
    row. Trajectories that exit the admissible region are counted in
    ``extinct_fraction`` and excluded from all moment estimates;
    DivergenceError when fewer than two stay, since a mean needs two.
    """
    if n_traj < 2:
        raise ValueError(f"n_traj must be >= 2, got {n_traj}")
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    gamma_init = isinstance(init, GammaParams)
    x0 = np.empty(n_traj) if gamma_init else np.full(n_traj, float(init))
    eps = np.empty((n_traj, t_max))
    for b, lo in enumerate(range(0, n_traj, BLOCK)):
        rows = min(BLOCK, n_traj - lo)
        rng = trajectory_rng(seed, b)
        if gamma_init:
            x0[lo:lo + rows] = rng.gamma(init.k, init.theta, size=rows)
        eps[lo:lo + rows] = noise_draw(noise, rng, size=rows * t_max).reshape(rows, t_max)

    values = _iterate(map, x0, eps)
    exited = ~maps.in_open_domain(map.kind, values[:, -1])
    survivors = n_traj - int(exited.sum())
    if survivors < 2:
        raise maps.DivergenceError(f"the {map.kind} ensemble at variance level {noise.variance!r} "
                                   f"kept {survivors} of {n_traj} trajectories in the open domain "
                                   f"over {t_max} steps; a mean needs 2")
    return EnsembleStats(
        np.arange(t_max + 1), *_moments(values[~exited]), n_traj, float(exited.mean())
    )


def _cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pick_branch(sol: EquilibriumSolution, branch: str) -> Branch:
    for b in sol.branches:
        if b.label == branch:
            return b
    raise ValueError(f"no {branch!r} branch among {[b.label for b in sol.branches]}")


def stationarity_check(
    map_kind: MapKind,
    k: float,
    var_eps: float,
    branch: Literal["plus", "minus"],
    n_traj: int,
    seed: int,
    family: NoiseFamily = "gamma",
    r_offset: float = 0.0,
) -> StationarityReport:
    """One-step moment preservation test at the equilibrium construction.

    Samples X0 ~ Gamma(k, theta_branch), applies one stochastic step, and
    z-scores the sample mean against k*theta and the sample variance against
    k*theta^2; the report carries both sample moments next to their targets.
    Chunk c holds samples [c*CHUNK, min((c+1)*CHUNK, n_traj)) and draws from
    ``trajectory_rng(seed, c)``: first its starts, then its noise. Chunks run
    on a thread pool over the available cores; a one-chunk sample runs inline.
    ``r_offset`` perturbs the solved growth rate (negative control).
    FloatingPointError when the sample has no spread, as at extreme k.
    """
    if n_traj < 2:
        raise ValueError(f"n_traj must be >= 2, got {n_traj}")
    b = _pick_branch(solve(map_kind, k, var_eps), branch)
    if b.degenerate:
        raise ValueError("degenerate branch (theta = 0) cannot be sampled")
    r = b.r + r_offset
    maps.check(map_kind, r)
    noise = NoiseSpec(var_eps, family)
    x1 = np.empty(n_traj)

    def fill(c: int) -> None:
        # the step and the noise product land in place on the chunk's slice;
        # numpy releases the GIL while it draws, so chunks overlap
        part = x1[c * CHUNK:(c + 1) * CHUNK]
        rng = trajectory_rng(seed, c)
        part[:] = maps.step(map_kind, r, rng.gamma(k, b.theta, size=len(part)))
        part *= noise_draw(noise, rng, size=len(part))

    chunks = range(-(-n_traj // CHUNK))
    if len(chunks) == 1:
        fill(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # 6-8 ms to import, so only when used

        with ThreadPoolExecutor(_cores()) as pool:
            # reading every result re-raises a chunk's error before x1 is read
            list(pool.map(fill, chunks))
    mean, variance, se_mean, se_variance = _moments(x1)
    target_mean, target_variance = k * b.theta, k * b.theta**2
    if not (se_mean > 0.0 and se_variance > 0.0):
        raise FloatingPointError(f"the one-step sample of n_traj={n_traj} has no spread, so the z-test "
                                 f"is undefined: mean {float(mean)!r}, k*theta {target_mean!r}")
    mean_z = float((mean - target_mean) / se_mean)
    var_z = float((variance - target_variance) / se_variance)
    return StationarityReport(
        mean_z=mean_z, var_z=var_z, passed=abs(mean_z) < 4.0 and abs(var_z) < 4.0,
        mean=float(mean), variance=float(variance),
        target_mean=target_mean, target_variance=target_variance,
    )
