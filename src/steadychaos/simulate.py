"""Monte Carlo engine for the stochastic logistic and Ricker maps.

Randomness comes from PCG64DXSM streams (O'Neill, HMC-CS-2014-0905) keyed by
(seed, index) through numpy's ``SeedSequence`` spawn keys. Both Monte Carlo
paths, the ensemble and the one-step stationarity sample, run on one keyed
chunk pipeline, ``_chunked``. Chunk c holds trajectories
[c*CHUNK, min((c+1)*CHUNK, n)): it opens stream c, the path draws and steps
its rows time-major (Ricker in ln x, by ``maps.orbit_step``) and reduces
them where it drew them, to partial moments per time: count, mean and the
central sums M2, M3 and M4, which merge in chunk order by the pairwise
formulas of Chan, Golub & LeVeque (1979) and Pebay (SAND2008-6212). One
chunk runs on the calling thread; more on a thread pool over its cores.
Which variates a trajectory gets, and the order of every sum, depend only
on the seed and its index, never on the thread or core count; memory is
about cores * CHUNK * (t_max+1) floats, whatever n is.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Union

import numpy as np

from . import maps
from .equilibrium import (RICKER_DEFAULT_R_MAX, Branch, BranchLabel, EquilibriumSolution, NoiseFamily,
                          NoiseSpec, NoRootError, solve)
from .gamma_core import GammaParams
from .maps import MapKind

# Trajectories per stream: a constant, never derived from the ensemble size
# or the core count, so chunk c always holds the same trajectories. Smaller
# chunks cost SeedSequence setup and per-call overhead under the GIL (about
# 25 ms per 10^6 samples at 1024), larger ones memory per thread.
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


def check_seed(seed: int) -> None:
    """Raise ValueError for a master seed outside [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be >= 0 and < 2**64, got {seed}")


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """PCG64DXSM stream ``index`` under master ``seed``: the generator seeded
    by ``SeedSequence(seed, spawn_key=(index,))``, so distinct (seed, index)
    pairs hash to independent states; chunk ``index`` of an ensemble or a
    stationarity sample draws from it."""
    check_seed(seed)
    maps.check_count("stream index", index, 0)
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


def _iterate(map: MapSpec, values: np.ndarray, noise: Iterable[np.ndarray]) -> None:
    """Step trajectories in place, time-major: values[0] holds the starts, and
    values[t+1] gets step t from the next array eps of ``noise``: f(x) eps for
    the logistic map, ``maps.orbit_step`` from y = ln x plus ln eps for Ricker.
    A trajectory holds NaN after the step at which it leaves ``maps.in_domain``;
    that step keeps the value that left, and one at 0 stays there."""
    # a step that overflows leaves the domain like any other escape, the step
    # from a value that left (inf - inf) is overwritten with NaN, and ln 0 of
    # a start or variate is -inf, which steps to 0 and stays there
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = np.log(values[0])
        for x, row, eps in zip(values, values[1:], noise):
            if map.kind == "ricker":
                row[:], y = maps.orbit_step(map.kind, map.r, x, y + np.log(eps))
            else:
                np.multiply(maps.step(map.kind, map.r, x), eps, out=row)
            row[~maps.in_domain(map.kind, x)] = np.nan


def run_trajectory(
    map: MapSpec,
    x0: float,
    noise: NoiseSpec,
    t_max: int,
    rng: np.random.Generator,
) -> Trajectory:
    """Iterate the stochastic map; stops and flags when the state leaves the
    domain (``maps.in_domain``). A state at 0 stays there and is no exit."""
    maps.check_count("t_max", t_max, 1)
    eps = noise_draw(noise, rng, size=t_max)
    values = np.empty(t_max + 1)
    values[0] = x0
    _iterate(map, values[:, None], eps[:, None])
    outside = ~maps.in_domain(map.kind, values)
    exit_step = int(np.argmax(outside)) if outside.any() else None
    return Trajectory(values=values, exited=exit_step is not None, exit_step=exit_step)


class _Moments(NamedTuple):  # not a dataclass, which takes 1 ms more to import
    """Partial moments of n values per time: their mean and the central sums
    m2, m3 and m4 of their 2nd to 4th powers."""
    n: int
    mean: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    m4: np.ndarray


def _reduce(x: np.ndarray) -> _Moments:
    """Partial moments of each row of x (one row per time) over its columns.
    ``x`` is consumed: it is centred and raised to the third power in place,
    in slabs of rows whose one temporary holds about CHUNK values."""
    rows, n = x.shape
    p = _Moments(n, *np.empty((4, rows)))
    step = max(1, CHUNK // max(n, 1))
    for a in range(0, rows if n else 0, step):
        d, t = x[a:a + step], slice(a, a + step)
        lo = d.min(axis=1)
        # a constant row has its value as mean and exactly zero central sums;
        # the generic mean leaves rounding residue in all of them
        mean = np.where(lo == d.max(axis=1), lo, d.mean(axis=1))
        p.mean[t] = mean
        d -= mean[:, None]
        d2 = d * d
        d2.sum(axis=1, out=p.m2[t])
        d *= d2
        d.sum(axis=1, out=p.m3[t])
        d2 *= d2
        d2.sum(axis=1, out=p.m4[t])
    return p


def _merge(a: _Moments, b: _Moments) -> _Moments:
    """The partial moments of a's values and b's together (Pebay 2008, eqs.
    2.1, 3.1 and 3.4 at two sets); a set of no values changes nothing."""
    if b.n == 0:
        return a
    if a.n == 0:
        return b
    na, nb = float(a.n), float(b.n)
    n = na + nb
    d = b.mean - a.mean
    d2 = d * d
    return _Moments(
        a.n + b.n,
        a.mean + d * (nb / n),
        a.m2 + b.m2 + d2 * (na * nb / n),
        a.m3 + b.m3 + d * d2 * (na * nb * (na - nb) / n**2) + 3.0 * d * (na * b.m2 - nb * a.m2) / n,
        a.m4 + b.m4 + d2 * d2 * (na * nb * (na * na - na * nb + nb * nb) / n**3)
        + 6.0 * d2 * (na * na * b.m2 + nb * nb * a.m2) / n**2 + 4.0 * d * (na * b.m3 - nb * a.m3) / n,
    )


def _stats(p: _Moments):
    """Mean, variance (ddof=1), se_mean and se_variance per time; NaN below two values."""
    n = p.n
    if n < 2:
        nan = np.full(p.mean.shape, np.nan)
        return nan, nan, nan, nan
    variance = p.m2 / (n - 1)
    se_mean = np.sqrt(variance / n)
    se_variance = np.sqrt(np.clip((p.m4 / n - (n - 3) / (n - 1) * variance**2) / n, 0.0, None))
    return p.mean, variance, se_mean, se_variance


def _cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunked(n: int, seed: int, draw: Callable[[np.random.Generator, int], np.ndarray]) -> _Moments:
    """Partial moments of n trajectories, chunk by chunk. Chunk c of ``rows``
    trajectories opens stream ``trajectory_rng(seed, c)``, takes
    ``draw(rng, rows)``, one row per time and one column per kept trajectory,
    and reduces it; the partials merge in chunk order, on the calling thread
    for one chunk, on a thread pool over the available cores for more."""

    def chunk(c: int, rows: int) -> _Moments:
        return _reduce(draw(trajectory_rng(seed, c), rows))

    sizes = [min(CHUNK, n - lo) for lo in range(0, n, CHUNK)]
    if len(sizes) == 1:
        return chunk(0, sizes[0])
    from concurrent.futures import ThreadPoolExecutor  # 6-8 ms to import, so only when used

    with ThreadPoolExecutor(_cores()) as pool:
        # numpy releases the GIL while it draws and steps, so chunks overlap;
        # reading every result re-raises a chunk's error
        return functools.reduce(_merge, pool.map(chunk, range(len(sizes)), sizes))


InitSpec = Union[float, GammaParams]


def run_ensemble(
    map: MapSpec,
    init: InitSpec,
    noise: NoiseSpec,
    t_max: int,
    n_traj: int,
    seed: int,
) -> EnsembleStats:
    """Ensemble of independent trajectories, drawn and reduced chunk by chunk.

    Chunk c holds trajectories [c*CHUNK, min((c+1)*CHUNK, n_traj)) and draws
    from stream c: first its start points when ``init`` is ``GammaParams`` (a
    float ``init`` is a point mass), then one noise variate per trajectory at
    each step. Each chunk steps its own (t_max+1, rows) block, freed once its
    survivors are reduced, so memory holds about one block per busy core.
    Trajectories that leave the domain (``maps.in_domain``) are counted in
    ``extinct_fraction`` and excluded from all moment estimates;
    DivergenceError when fewer than two stay, since a mean needs two.
    """
    maps.check_count("n_traj", n_traj, 2)  # a mean and a spread need two
    maps.check_count("t_max", t_max, 1)
    gamma_init = isinstance(init, GammaParams)

    def draw(rng: np.random.Generator, rows: int) -> np.ndarray:
        values = np.empty((t_max + 1, rows))
        values[0] = rng.gamma(init.k, init.theta, size=rows) if gamma_init else float(init)
        _iterate(map, values, (noise_draw(noise, rng, size=rows) for _ in range(t_max)))
        alive = maps.in_domain(map.kind, values[-1])
        kept = int(np.count_nonzero(alive))
        if kept < rows:
            for row in values:  # survivors to the front of each time's row
                row[:kept] = row[alive]
        return values[:, :kept]

    p = _chunked(n_traj, seed, draw)
    if p.n < 2:
        raise maps.DivergenceError(f"the {map.kind} ensemble at variance level {noise.variance!r} "
                                   f"kept {p.n} of {n_traj} trajectories in [0, {maps.UPPER[map.kind]:g}] "
                                   f"over {t_max} steps; a mean needs 2")
    return EnsembleStats(np.arange(t_max + 1), *_stats(p), n_traj, (n_traj - p.n) / n_traj)


def _pick_branch(sol: EquilibriumSolution, branch: BranchLabel) -> Branch:
    for b in sol.branches:
        if b.label == branch:
            return b
    if sol.roots_beyond_rmax:  # then the missing branch is r+, past r_max
        raise NoRootError(f"the {branch!r} root of the Ricker equilibrium lies beyond r_max={RICKER_DEFAULT_R_MAX}")
    raise ValueError(f"no {branch!r} branch among {[b.label for b in sol.branches]}")


def stationarity_check(
    map_kind: MapKind,
    k: float,
    var_eps: float,
    branch: BranchLabel,
    n_traj: int,
    seed: int,
    family: NoiseFamily = "gamma",
    r_offset: float = 0.0,
) -> StationarityReport:
    """One-step moment preservation test at the equilibrium construction.

    Samples X0 ~ Gamma(k, theta_branch), applies one stochastic step, and
    z-scores the sample mean against k*theta and the sample variance against
    k*theta^2; the report carries both sample moments next to their targets.
    The sample runs on ``run_ensemble``'s chunk pipeline: chunk c draws its
    starts, then its noise, from stream c, and keeps every one-step value.
    ``r_offset`` perturbs the solved growth rate (negative control).
    FloatingPointError when the sample has no spread, as at extreme k.
    """
    maps.check_count("n_traj", n_traj, 2)  # a mean and a spread need two
    b = _pick_branch(solve(map_kind, k, var_eps), branch)
    if b.degenerate:
        raise ValueError("degenerate branch (theta = 0) cannot be sampled")
    r = b.r + r_offset
    maps.check(map_kind, r)
    noise = NoiseSpec(var_eps, family)

    def draw(rng: np.random.Generator, rows: int) -> np.ndarray:
        x1 = maps.step(map_kind, r, rng.gamma(k, b.theta, size=rows))
        x1 *= noise_draw(noise, rng, size=rows)
        return x1[None, :]

    mean, variance, se_mean, se_variance = (s[0] for s in _stats(_chunked(n_traj, seed, draw)))
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
