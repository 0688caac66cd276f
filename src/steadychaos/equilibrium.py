"""Equilibrium growth-rate branches for the stochastic logistic and Ricker maps.

Given the shape k of the gamma-distributed stationary population and the
variance of the multiplicative noise, recover the growth rates r+/r- that
preserve the first two moments over one step, together with the implied
scale theta and the feasibility bound on the noise variance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .maps import MapKind

RICKER_DEFAULT_R_MAX = 10.0
_MIN_NORMAL = sys.float_info.min

NoiseFamily = Literal["gamma", "lognormal"]
FAMILIES = get_args(NoiseFamily)


class InfeasibleError(ValueError):
    """No real equilibrium exists for the requested (k, var_eps)."""

    def __init__(self, message: str, bound: float):
        super().__init__(message)
        self.bound = bound


class NoRootError(RuntimeError):
    """The equilibrium has roots, but none in the requested interval."""

    def __init__(self, message: str, r_lo: float, r_hi: float):
        super().__init__(message)
        self.r_lo = r_lo
        self.r_hi = r_hi


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative perturbation with mean exactly 1 and the given variance.

    Only the variance enters the equilibrium theory; the family is realized
    at simulation time (gamma or lognormal, both nonnegative support).
    """

    variance: float
    family: NoiseFamily = "gamma"

    def __post_init__(self) -> None:
        if not (self.variance >= 0 and math.isfinite(self.variance)):
            raise ValueError(f"noise variance must be finite and >= 0, got {self.variance!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")


@dataclass(frozen=True)
class Branch:
    r: float
    theta: float
    label: Literal["plus", "minus"]
    degenerate: bool = False


@dataclass(frozen=True)
class EquilibriumSolution:
    map: MapKind
    k: float
    var_eps: float
    branches: tuple[Branch, ...]
    bound_var: float
    roots_beyond_rmax: bool = False


def _check_k(k: float) -> None:
    if not (k > 0 and math.isfinite(k)):
        raise ValueError(f"shape k must be finite and > 0, got {k!r}")


def _check_var(var_eps: float) -> None:
    if not (var_eps >= 0 and math.isfinite(var_eps)):
        raise ValueError(f"var_eps must be finite and >= 0, got {var_eps!r}")


# ---------------------------------------------------------------------------
# Logistic map
# ---------------------------------------------------------------------------

def logistic_noise_bound(k: float) -> float:
    """Largest noise variance with real branches: 1/(k+2)."""
    _check_k(k)
    return 1.0 / (k + 2.0)


def logistic_quadratic_residual(r: float, k: float, var_eps: float) -> float:
    """Residual of the equilibrium quadratic in r; zero at r+/r-."""
    _check_k(k)
    return (
        (k + 3.0) * r * r
        - (4.0 * k + 8.0) * r
        + (3.0 * k + 5.0 + var_eps / (var_eps + 1.0) * (k + 1.0) ** 2)
    )


def logistic_theta(r: float, k: float) -> float:
    """Scale implied by mean stationarity: theta = (r-1)/(r(1+k)), scaled by 1/4 (exact) not to overflow."""
    return ((r - 1.0) / 4.0) / (r * ((1.0 + k) / 4.0))


def logistic_solve(k: float, var_eps: float) -> EquilibriumSolution:
    """Solve for both growth-rate branches of the stochastic logistic map. r- is the
    trivial root 1 exactly at var_eps = 0 and never below it; a branch is degenerate iff its theta is 0."""
    bound = logistic_noise_bound(k)
    _check_var(var_eps)
    if var_eps > bound:
        raise InfeasibleError(
            f"var_eps={var_eps} exceeds feasibility bound {bound} for k={k}",
            bound=bound,
        )
    disc = (1.0 - var_eps * (k + 2.0)) / (var_eps + 1.0)
    if disc < 0.0:
        # round-off at the exact boundary
        disc = 0.0
    half_width = (k + 1.0) * math.sqrt(disc)
    branches = []
    for label, sign in (("plus", 1.0), ("minus", -1.0)):
        # (2k + 4 +- half_width)/(k + 3), scaled by 1/4 (exact) so 2k + 4 cannot overflow
        r = 4.0 * ((0.5 * (k + 2.0) + sign * (0.25 * half_width)) / (k + 3.0))
        if sign < 0.0 and (var_eps == 0.0 or r < 1.0):
            r = 1.0  # r- >= 1 for every var_eps >= 0; the formula rounds off it at some k
        theta = logistic_theta(r, k)
        branches.append(Branch(r=r, theta=theta, label=label, degenerate=theta == 0.0))
    return EquilibriumSolution(
        map="logistic",
        k=k,
        var_eps=var_eps,
        branches=tuple(branches),
        bound_var=bound,
    )


# ---------------------------------------------------------------------------
# Ricker map
# ---------------------------------------------------------------------------

def ricker_residual(r, k: float, var_eps: float):
    """2 e^{r/(k+1)} - ((1+var_eps) e^{2r})^{1/(k+2)} - 1.

    The second term is assembled in log space; accepts scalar or array r.
    """
    _check_k(k)
    _check_var(var_eps)
    r = np.asarray(r, dtype=float)
    value = (
        2.0 * np.exp(r / (k + 1.0))
        - np.exp((np.log1p(var_eps) + 2.0 * r) / (k + 2.0))
        - 1.0
    )
    return float(value) if value.ndim == 0 else value


def ricker_theta(r: float, k: float) -> float:
    """Scale implied by mean stationarity: theta = (e^{r/(k+1)} - 1)/r."""
    _check_k(k)
    if not (r > 0):
        raise ValueError(f"ricker theta requires r > 0, got {r!r}")
    try:
        return math.expm1(r / (k + 1.0)) / r
    except OverflowError:
        msg = f"theta = e^(r/(k+1))/r exceeds the float range at r={r!r}, k={k!r}"
        raise OverflowError(msg) from None


# Root structure. With s = r/(k+1), the residual vanishes iff
#     ln(1 + var_eps) = L(s) = (k+2) ln(2 - e^{-s}) - k s,
# so L(s) is the log noise level at which s is a root. L(0) = 0, L is
# strictly concave with its maximum at the tangency s_t = ln((k+1)/k), and
# L(s) < (k+2) ln 2 - k s. Below the maximum there are therefore exactly two
# roots, minus in (0, s_t) and plus in (s_t, ((k+2) ln 2 - ln(1+var_eps))/k);
# at var_eps = 0 the minus root is the trivial r = 0.


def _ricker_log_var(s: float, k: float) -> float:
    # Below s = 1 the form 2s + (k+2) ln(1 - (1 - e^{-s})^2) avoids the
    # cancellation of two O(k s) terms; above it that form loses 1 - e^{-s}.
    if s < 1.0:
        q = math.expm1(-s)
        if q * q < _MIN_NORMAL:
            # q^2 is subnormal and has lost digits; ln(1 - q^2) = -q^2 there
            return 2.0 * s - ((k + 2.0) * q) * q
        return 2.0 * s + (k + 2.0) * math.log1p(-q * q)
    return (k + 2.0) * math.log1p(-math.expm1(-s)) - k * s


def _bisect(f, pos: float, neg: float) -> float:
    """Root of f between pos and neg, where f(pos) > 0 >= f(neg).

    Halves until the midpoint rounds onto an endpoint: the bracket is then
    two adjacent floats.
    """
    while True:
        mid = 0.5 * (pos + neg)
        if mid == pos or mid == neg:
            return mid
        if f(mid) > 0.0:
            pos = mid
        else:
            neg = mid


def ricker_noise_bound(k: float, r_max: float = RICKER_DEFAULT_R_MAX) -> float:
    """Largest noise variance for which a positive root exists in (0, r_max].

    Closed form: once r_max reaches the tangency r* = (k+1) ln((k+1)/k) it is
    v_max(k) = [(2/p)(2(p-1)/p)^{p-1}]^{k+2} - 1 with p = 2(k+1)/(k+2)
    (11/16 at k = 1); below r* it is the variance whose minus root is r_max.
    """
    _check_k(k)
    if not (r_max > 0):
        raise ValueError(f"r_max must be > 0, got {r_max!r}")
    s = min(r_max / (k + 1.0), math.log1p(1.0 / k))
    return math.expm1(_ricker_log_var(s, k))


def ricker_solve(
    k: float, var_eps: float, r_max: float = RICKER_DEFAULT_R_MAX
) -> EquilibriumSolution:
    """Solve for the positive growth-rate branches of the stochastic Ricker map.

    Each root is bisected to adjacent floats inside its exact bracket, either
    side of the tangency r*; the side names the branch. Raises
    InfeasibleError when var_eps exceeds v_max(k), and NoRootError when the
    roots exist but all lie beyond r_max.
    """
    _check_var(var_eps)
    bound_var = ricker_noise_bound(k, r_max=r_max)  # also checks k and r_max
    v_max = ricker_noise_bound(k, r_max=math.inf)
    if var_eps > v_max:
        raise InfeasibleError(
            f"var_eps={var_eps} exceeds feasibility bound {v_max} for k={k}",
            bound=v_max,
        )
    log_var = math.log1p(var_eps)
    s_t = math.log1p(1.0 / k)
    f = lambda s: _ricker_log_var(s, k) - log_var
    if f(s_t) > 0.0:
        s_plus = _bisect(f, s_t, ((k + 2.0) * math.log(2.0) - log_var) / k)
        s_minus = _bisect(f, s_t, 0.0) if var_eps > 0.0 else 0.0
    else:
        # tangency within rounding: the two roots coincide
        s_plus = s_minus = s_t
    r_plus, r_minus = (k + 1.0) * s_plus, (k + 1.0) * s_minus
    branches = tuple(
        Branch(r=r, theta=ricker_theta(r, k), label=label)
        for label, r in (("plus", r_plus), ("minus", r_minus))
        if 0.0 < r <= r_max
    )
    if not branches:
        raise NoRootError(
            f"the roots of the Ricker equilibrium lie beyond r_max={r_max}",
            r_lo=0.0,
            r_hi=r_max,
        )
    return EquilibriumSolution(
        map="ricker",
        k=k,
        var_eps=var_eps,
        branches=branches,
        bound_var=bound_var,
        roots_beyond_rmax=r_plus > r_max,
    )


def solve(
    kind: MapKind, k: float, var_eps: float, r_max: float = RICKER_DEFAULT_R_MAX
) -> EquilibriumSolution:
    """Both growth-rate branches of either map; ``r_max`` bounds the Ricker roots only."""
    if kind == "logistic":
        return logistic_solve(k, var_eps)
    if kind == "ricker":
        return ricker_solve(k, var_eps, r_max=r_max)
    raise ValueError(f"unknown map kind {kind!r}")
