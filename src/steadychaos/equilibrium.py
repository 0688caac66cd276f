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

from .maps import MapKind, check_nonnegative, check_positive

RICKER_DEFAULT_R_MAX = 10.0
_MIN_NORMAL = sys.float_info.min

NoiseFamily = Literal["gamma", "lognormal"]
FAMILIES = get_args(NoiseFamily)
BranchLabel = Literal["plus", "minus"]
BRANCHES = get_args(BranchLabel)


class InfeasibleError(ValueError):
    """No real equilibrium exists for the requested (k, var_eps)."""

    def __init__(self, message: str, bound: float):
        super().__init__(message)
        self.bound = bound


class NoRootError(RuntimeError):
    """The equilibrium has roots, but none in the requested interval."""


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative perturbation with mean exactly 1 and the given variance.

    Only the variance enters the equilibrium theory; the family is realized
    at simulation time (gamma or lognormal, both nonnegative support).
    """

    variance: float
    family: NoiseFamily = "gamma"

    def __post_init__(self) -> None:
        check_nonnegative("noise variance", self.variance)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")


@dataclass(frozen=True)
class Branch:
    r: float
    theta: float
    label: BranchLabel
    degenerate: bool = False


@dataclass(frozen=True)
class EquilibriumSolution:
    map: MapKind
    k: float
    var_eps: float
    branches: tuple[Branch, ...]
    bound_var: float
    roots_beyond_rmax: bool = False


# ---------------------------------------------------------------------------
# Logistic map
# ---------------------------------------------------------------------------

def logistic_noise_bound(k: float) -> float:
    """Largest noise variance with real branches: 1/(k+2)."""
    check_positive("shape k", k)
    return 1.0 / (k + 2.0)


def logistic_quadratic_residual(r: float, k: float, var_eps: float) -> float:
    """Residual of the equilibrium quadratic in r; zero at r+/r-. From k = 2^512,
    where (k+1)^2 overflows, the terms are scaled by 2^-2e (exact) and the sum back;
    below it e = 0 and the value is the plain quadratic's to the last bit (with pow's
    square, which is not always x * x)."""
    check_positive("shape k", k)
    e = max(0, math.frexp(k)[1] - 512)
    c = math.ldexp(1.0, -2 * e)
    scaled = (
        (k + 3.0) * c * r * r
        - (4.0 * (k * c) + 8.0 * c) * r
        + (3.0 * (k * c) + 5.0 * c + var_eps / (var_eps + 1.0) * math.ldexp(k + 1.0, -e) ** 2)
    )
    return scaled * 2.0**e * 2.0**e  # 2.0**(2 * e) itself overflows at e = 512


def logistic_theta(r: float, k: float) -> float:
    """Scale implied by mean stationarity: theta = (r-1)/(r(1+k)), scaled by 1/4 (exact) not to overflow."""
    return ((r - 1.0) / 4.0) / (r * ((1.0 + k) / 4.0))


def logistic_solve(k: float, var_eps: float) -> EquilibriumSolution:
    """Solve for both growth-rate branches of the stochastic logistic map. r- is the
    trivial root 1 exactly at var_eps = 0 and never below it; a branch is degenerate iff its theta is 0."""
    bound = logistic_noise_bound(k)
    check_nonnegative("var_eps", var_eps)
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
    check_positive("shape k", k)
    check_nonnegative("var_eps", var_eps)
    r = np.asarray(r, dtype=float)
    value = (
        2.0 * np.exp(r / (k + 1.0))
        - np.exp((np.log1p(var_eps) + 2.0 * r) / (k + 2.0))
        - 1.0
    )
    return float(value) if value.ndim == 0 else value


def ricker_theta(r: float, k: float) -> float:
    """Scale implied by mean stationarity: theta = (e^{r/(k+1)} - 1)/r."""
    check_positive("shape k", k)
    if not (r > 0):
        raise ValueError(f"ricker theta requires r > 0, got {r!r}")
    try:
        if r == math.inf:
            raise OverflowError  # expm1(inf)/inf is NaN
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


def _ricker_tangency(k: float) -> float:
    # s_t = ln((k+1)/k); once 1/k overflows (k below about 5.6e-309) it is -ln k
    # to the last bit
    s_t = math.log1p(1.0 / k)
    return s_t if s_t < math.inf else -math.log(k)


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


def _ricker_root(k: float, log_var: float, pos: float, neg: float) -> float:
    """Root of f(s) = L(s) - log_var between pos and neg, where f(pos) > 0 and
    f(neg) <= 0, the latter in exact arithmetic.

    Newton from neg: L is concave, so each step stays on the side where
    f <= 0 and moves toward the root. A step that leaves the bracket or lands
    on pos bisects instead, and a step shorter than one ulp tries the next
    float toward pos. Ends when the bracket is two adjacent floats, with
    f > 0 at one and f <= 0 at the other.
    """
    f_neg = _ricker_log_var(neg, k) - log_var if neg else -log_var  # L(0) = 0
    while f_neg > 0.0:
        # f rounds positive at neg (the r+ bound at small k): the sign change lies beyond it
        pos, neg = neg, math.nextafter(neg, math.copysign(math.inf, neg - pos))
        f_neg = _ricker_log_var(neg, k) - log_var
    while True:
        mid = 0.5 * (pos + neg)
        if mid == math.inf:
            # pos + neg overflows near the r+ bound at k below about 1.5e-308
            mid = 0.5 * pos + 0.5 * neg
        if mid == pos or mid == neg:
            return mid
        # L'(neg), without the k - k cancellation of (k+2) e^{-s}/(2 - e^{-s}) - k
        e = math.exp(-neg)
        slope = 2.0 * (e + k * math.expm1(-neg)) / (2.0 - e)
        s = neg - f_neg / slope if slope != 0.0 else mid
        if s == neg:
            s = math.nextafter(neg, pos)
        elif not (pos < s < neg or neg < s < pos):
            s = mid
        f_s = _ricker_log_var(s, k) - log_var
        if f_s > 0.0:
            pos = s
        else:
            neg, f_neg = s, f_s


def ricker_noise_bound(k: float, r_max: float = RICKER_DEFAULT_R_MAX) -> float:
    """Largest noise variance for which a positive root exists in (0, r_max].

    Closed form: once r_max reaches the tangency r* = (k+1) ln((k+1)/k) it is
    v_max(k) = [(2/p)(2(p-1)/p)^{p-1}]^{k+2} - 1 with p = 2(k+1)/(k+2)
    (11/16 at k = 1); below r* it is the variance whose minus root is r_max.
    """
    check_positive("shape k", k)
    if not (r_max > 0):
        raise ValueError(f"r_max must be > 0, got {r_max!r}")
    s = min(r_max / (k + 1.0), _ricker_tangency(k))
    return math.expm1(_ricker_log_var(s, k))


def ricker_solve(
    k: float, var_eps: float, r_max: float = RICKER_DEFAULT_R_MAX
) -> EquilibriumSolution:
    """Solve for the positive growth-rate branches of the stochastic Ricker map.

    Each root is solved by safeguarded Newton inside its exact bracket, either
    side of the tangency r*, to two adjacent floats between which the rounded
    L(s) - ln(1+var_eps) changes sign; the side names the branch. Raises
    InfeasibleError when var_eps exceeds v_max(k), and NoRootError when the
    roots exist but all lie beyond r_max.
    """
    check_nonnegative("var_eps", var_eps)
    check_positive("shape k", k)
    s_t = _ricker_tangency(k)
    log_var_t = _ricker_log_var(s_t, k)  # the maximum of L
    v_max = math.expm1(log_var_t)
    # past the tangency the bound is v_max; below it (or at an invalid r_max) ask
    # ricker_noise_bound, which also checks r_max
    bound_var = v_max if r_max / (k + 1.0) >= s_t else ricker_noise_bound(k, r_max=r_max)
    if var_eps > v_max:
        raise InfeasibleError(
            f"var_eps={var_eps} exceeds feasibility bound {v_max} for k={k}",
            bound=v_max,
        )
    log_var = math.log1p(var_eps)
    if log_var_t > log_var:
        s_plus = _ricker_root(k, log_var, s_t, ((k + 2.0) * math.log(2.0) - log_var) / k)
        s_minus = _ricker_root(k, log_var, s_t, 0.0) if var_eps > 0.0 else 0.0
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
        raise NoRootError(f"the roots of the Ricker equilibrium lie beyond r_max={r_max}")
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
