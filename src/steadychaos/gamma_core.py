"""Gamma-distribution machinery: density, raw and Laplace-weighted moments,
central moments, and the moment fit.

Raw moments are one product of the factors (k+j) theta. Laplace-weighted
moments sum the logs of Gamma(k+n)/Gamma(k) (``math.fsum``) and the density
is evaluated in log space with ``math.lgamma``, so that large shape
parameters (k up to ~1e7) do not overflow intermediate terms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .maps import check_count, check_positive

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class GammaParams:
    """Shape/scale parameterization of a gamma distribution.

    k: shape (dimensionless), theta: scale (population units). Both must be
    strictly positive and finite.
    """

    k: float
    theta: float

    def __post_init__(self) -> None:
        check_positive("shape k", self.k)
        check_positive("scale theta", self.theta)

    def mean(self) -> float:
        return self.k * self.theta

    def variance(self) -> float:
        return self.k * self.theta**2


def _exp_in_range(log_value: float, what: str, p: GammaParams) -> float:
    """e^log_value; past the float range, an OverflowError naming ``what`` and p."""
    if log_value > _LOG_FLOAT_MAX:
        raise OverflowError(f"{what} of Gamma(k={p.k}, theta={p.theta}) exceeds float range")
    return math.exp(log_value)


def _check_order(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"moment order must be an integer, got {n!r}")
    check_count("moment order", n, 0)
    return int(n)


def gamma_pdf(x: float, p: GammaParams) -> float:
    """Density x^{k-1} e^{-x/theta} / (Gamma(k) theta^k), evaluated in log space."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"gamma density requires finite x > 0, got {x!r}")
    log_pdf = (
        (p.k - 1.0) * math.log(x)
        - x / p.theta
        - math.lgamma(p.k)
        - p.k * math.log(p.theta)
    )
    return _exp_in_range(log_pdf, f"gamma density at x={x!r}", p)


def _gamma_ratio_log(k: float, n: int) -> float:
    """ln(Gamma(k+n)/Gamma(k)) = sum ln(k+j); summed directly rather than as a
    lgamma difference, which loses ~k*eps absolute accuracy for large k."""
    return math.fsum(math.log(k + j) for j in range(n))


def raw_moment(p: GammaParams, n: int) -> float:
    """E[X^n] = theta^n Gamma(k+n)/Gamma(k).

    One product of the factors (k+j) theta, j < n. They grow with j, so no
    partial product exceeds the larger of the first factor and the result:
    the product overflows only where E[X^n] exceeds the float range.
    """
    n = _check_order(n)
    prod = 1.0
    for j in range(n):
        prod *= (p.k + j) * p.theta
    if prod == math.inf:
        raise OverflowError(f"raw moment n={n} of Gamma(k={p.k}, theta={p.theta}) exceeds float range")
    return prod


def laplace_moment(p: GammaParams, n: int, s: float) -> float:
    """Laplace-weighted moment E[X^n e^{-sX}] = Gamma(k+n)/Gamma(k) * theta^n / (1+s*theta)^{k+n}."""
    n = _check_order(n)
    if s < 0:
        raise ValueError(f"laplace weight requires s >= 0, got {s!r}")
    if s == 0:
        return raw_moment(p, n)
    log_m = (
        _gamma_ratio_log(p.k, n)
        + n * math.log(p.theta)
        - (p.k + n) * math.log1p(s * p.theta)
    )
    return _exp_in_range(log_m, f"laplace moment n={n} at s={s!r}", p)


def central_moment3(p: GammaParams) -> float:
    """Third central moment, exactly 2 k theta^3."""
    return 2.0 * p.k * p.theta**3


def central_moment4(p: GammaParams) -> float:
    """Fourth central moment, exactly (3 + 6/k) k^2 theta^4."""
    return (3.0 + 6.0 / p.k) * p.k**2 * p.theta**4


def fit_from_moments(mean: float, variance: float) -> GammaParams:
    """Invert (mean, variance) -> (k, theta): k = mean^2/var, theta = var/mean."""
    if not (mean > 0):
        raise ValueError(f"mean must be > 0, got {mean!r}")
    if not (variance > 0):
        raise ValueError(f"variance must be > 0, got {variance!r}")
    return GammaParams(k=mean * mean / variance, theta=variance / mean)
