"""The two maps, each defined once: logistic r x (1-x) and Ricker x e^{r(1-x)};
the stochastic maps multiply a step by the noise eps. This bottom layer
imports nothing from the package. ``x`` and ``r`` may be floats (stepped with
``math.exp``) or NumPy arrays (``np.exp``).

The domain is [0, 1] for the logistic map and [0, RICKER_X_CAP] for Ricker.
A deterministic orbit lives on the closed domain: 0 is the extinct fixed
point of both maps and logistic 1 maps onto it, so an orbit that touches
them is still an orbit to analyse. A stochastic trajectory lives on the open
domain: reaching 0 or 1 is extinction and reaching the cap is divergence, so
the trajectory stops there. NaN is outside both. Every deterministic orbit
is stepped here: one by ``orbit`` or ``path``, which decide its escapes, and a
vector of them by ``blocks``, whose caller does.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

MapKind = Literal["logistic", "ricker"]

# Ricker orbits beyond this are treated as divergent; far above any
# equilibrium scale k*theta in the tested regimes.
RICKER_X_CAP = 1e6

# upper end of the domain; the lower end is 0 for both maps
UPPER = {"logistic": 1.0, "ricker": RICKER_X_CAP}

BLOCK = 200  # rows in one block of ``blocks``

# Generic starting points away from fixed points, superstable preimages,
# and poles; the second is the retry when an orbit from the first escapes.
DEFAULT_X0 = {"logistic": (0.37, 0.23), "ricker": (0.7, 1.3)}


class DivergenceError(RuntimeError):
    """Orbit left the admissible region."""


def check(kind: MapKind, r: float) -> None:
    """Raise ValueError for an unknown kind or an r that is not finite and > 0."""
    if kind not in UPPER:
        raise ValueError(f"unknown map kind {kind!r}")
    if not (r > 0 and math.isfinite(r)):
        raise ValueError(f"growth rate r must be finite and > 0, got {r!r}")


def _exp(z):
    return math.exp(z) if isinstance(z, float) else np.exp(z)


def step(kind: MapKind, r, x):
    """One iteration f(x) of the deterministic map."""
    if kind == "logistic":
        return r * x * (1.0 - x)
    if kind == "ricker":
        return x * _exp(r * (1.0 - x))
    raise ValueError(f"unknown map kind {kind!r}")


def derivative(kind: MapKind, r, x):
    """f'(x) of the deterministic map."""
    if kind == "logistic":
        return r * (1.0 - 2.0 * x)
    if kind == "ricker":
        return _exp(r * (1.0 - x)) * (1.0 - r * x)
    raise ValueError(f"unknown map kind {kind!r}")


def second_derivative(kind: MapKind, r, x):
    """f''(x) of the deterministic map."""
    if kind == "logistic":
        return -2.0 * r
    if kind == "ricker":
        return r * _exp(r * (1.0 - x)) * (r * x - 2.0)
    raise ValueError(f"unknown map kind {kind!r}")


def log_abs_derivative(kind: MapKind, r, x):
    """ln|f'(x)|, -inf where f'(x) = 0. The Ricker form r(1-x) + ln|1-rx|
    stays finite where e^{r(1-x)} underflows."""
    if kind == "ricker":
        return r * (1.0 - x) + np.log(np.abs(1.0 - r * x))
    return np.log(np.abs(derivative(kind, r, x)))


def orbit_step(kind: MapKind, r, x, y):
    """One deterministic step that also carries y = ln x; returns (x', y').

    Ricker advances y' = y + r(1-x) and takes x' = e^{y'}, so an orbit near 0
    keeps its digits in y where the direct step underflows to 0. The logistic
    step does not use y and passes it through.
    """
    if kind == "ricker":
        y = y + r * (1.0 - x)
        return _exp(y), y
    return step(kind, r, x), y


def blocks(kind: MapKind, r, x, phases):
    """Step the orbits x (r one or one per orbit) by ``orbit_step``, phases[i] times in
    phase i; yield (i, the states stepped from) in reused blocks of at most BLOCK rows."""
    y, block = np.log(x), np.empty((BLOCK, len(x)))
    for phase, steps in enumerate(phases):
        for start in range(0, steps, BLOCK):
            rows = block[:min(BLOCK, steps - start)]
            for row in rows:
                row[:] = x
                x, y = orbit_step(kind, r, x, y)
            yield phase, rows


def in_domain(kind: MapKind, x):
    """x lies in the closed domain of the deterministic map."""
    return (0.0 <= x) & (x <= UPPER[kind])


def in_open_domain(kind: MapKind, x):
    """x lies in the open domain of a stochastic trajectory."""
    return (0.0 < x) & (x < UPPER[kind])


def _escaped(kind: MapKind, x: float) -> DivergenceError:
    return DivergenceError(f"{kind} orbit escaped [0, {UPPER[kind]:g}] at x={x!r}")


def orbit(kind: MapKind, r: float, x: float, y: float, settle: int, average: int = 0):
    """Step the orbit from (x, y = ln x) ``settle`` times, then ``average``
    times adding ln|f'(x_t)| before each step; returns (x, y, the sum), the sum
    -inf at once on a superstable point. The steps are ``orbit_step``'s.
    DivergenceError when the start or a step (overflow included) leaves the
    closed domain."""
    hi = UPPER[kind]
    if not 0.0 <= x <= hi:
        raise _escaped(kind, x)
    total = 0.0
    # orbit_step, log_abs_derivative and in_domain written out for floats on
    # this sequential hot path; settling takes no logs
    try:
        if kind == "logistic":
            for _ in range(settle):
                x = r * x * (1.0 - x)
                if not 0.0 <= x <= hi:
                    raise _escaped(kind, x)
            for _ in range(average):
                d = r * (1.0 - 2.0 * x)
                if d == 0.0:
                    return x, y, -math.inf
                total += math.log(abs(d))
                x = r * x * (1.0 - x)
                if not 0.0 <= x <= hi:
                    raise _escaped(kind, x)
            return x, y, total
        for _ in range(settle):
            y += r * (1.0 - x)
            x = math.exp(y)
            if not 0.0 <= x <= hi:
                raise _escaped(kind, x)
        for _ in range(average):
            d = 1.0 - r * x
            if d == 0.0:
                return x, y, -math.inf
            g = r * (1.0 - x)
            total += g + math.log(abs(d))
            y += g
            x = math.exp(y)
            if not 0.0 <= x <= hi:
                raise _escaped(kind, x)
    except OverflowError:
        # e^y past the float range lands beyond the cap before the domain test
        raise DivergenceError(f"{kind} orbit escaped [0, {hi:g}]: the step from "
                              f"x={x!r} overflows the float range at r={r!r}") from None
    return x, y, total


def path(kind: MapKind, r: float, x0: float, steps: int) -> np.ndarray:
    """x_0 .. x_steps of the deterministic orbit, stepped by ``step`` as an
    ensemble is (no y = ln x); DivergenceError naming the step (0 for the
    start) at which it leaves the closed domain or overflows the float range."""
    check(kind, r)
    out = np.empty(steps + 1)
    x = x0
    where = f"the deterministic {kind} orbit from x0={x0!r}"
    try:
        for t in range(steps + 1):
            if t:
                x = step(kind, r, x)
            out[t] = x
            if not in_domain(kind, x):
                raise DivergenceError(f"{where} escaped [0, {UPPER[kind]:g}] at step {t}, x={x!r}")
    except OverflowError:
        raise DivergenceError(f"{where} overflows the float range at step {t}, "
                              f"from x={x!r} at r={r!r}") from None
    return out
