"""The two maps, each defined once: logistic r x (1-x) and Ricker x e^{r(1-x)}.
A stochastic logistic step is f(x) eps. A Ricker state carries y = ln x and
steps as ``orbit_step`` does: a Monte Carlo trajectory calls it from y + ln eps,
and the deterministic steppers ``orbit`` and ``blocks`` write it out. This
bottom layer imports nothing from the package, and writes once each input rule
that the layers above share, ``equilibrium`` and ``gamma_core`` included:
``check_count``, ``check_positive`` and ``check_nonnegative``. ``check`` owns
the kind rule: every other function here takes a kind it has accepted, tests
for one map and treats any other kind as the other. ``x`` and ``r`` may be
floats (stepped with ``math.exp``) or NumPy arrays (``np.exp``).

Orbits and trajectories share one closed domain (``in_domain``): [0, 1] for
the logistic map, [0, RICKER_X_CAP] for Ricker. 0 is the extinct fixed point
of both maps and logistic 1 maps onto it, so a state that reaches them, by a
step or by underflow, stays in the domain; a state leaves it below 0, past the
upper end (overflow included) or at NaN. Every deterministic orbit is stepped
here, by how many the caller steps: one orbit (the cycle check's, a recorded
orbit) in the float loop of ``orbit``, which checks the domain, and a vector
of orbits (ensembles, scans) by ``blocks``, whose caller checks it. A block
that ``blocks`` yields is valid until the generator resumes, and the caller
may overwrite it without touching the orbit.
"""

from __future__ import annotations

import math
from typing import Literal, Optional

import numpy as np

MapKind = Literal["logistic", "ricker"]

# Ricker orbits beyond this are treated as divergent; far above any
# equilibrium scale k*theta in the tested regimes.
RICKER_X_CAP = 1e6

# upper end of the domain; the lower end is 0 for both maps
UPPER = {"logistic": 1.0, "ricker": RICKER_X_CAP}

BLOCK = 200  # rows in one block of ``blocks``

# Generic starting points away from fixed points, superstable preimages,
# and poles, one per map: [0, 1] is invariant for the logistic map at r <= 4,
# and Ricker maps [0, cap] below the cap while e^{r-1}/r < cap (r < ~17.7).
DEFAULT_X0 = {"logistic": 0.37, "ricker": 0.7}


class DivergenceError(RuntimeError):
    """Orbit left the admissible region."""


def check_count(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def check_nonnegative(name: str, value: float) -> None:
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def check(kind: MapKind, r: float) -> None:
    """Raise ValueError for an unknown kind or an r that is not finite and > 0;
    the kernel functions below take the kind as checked."""
    if kind not in UPPER:
        raise ValueError(f"unknown map kind {kind!r}")
    check_positive("growth rate r", r)


def _exp(z):
    return math.exp(z) if isinstance(z, float) else np.exp(z)


def step(kind: MapKind, r, x):
    """One iteration f(x) of the deterministic map."""
    if kind == "logistic":
        return r * x * (1.0 - x)
    return x * _exp(r * (1.0 - x))


def second_derivative(kind: MapKind, r, x):
    """f''(x) of the deterministic map."""
    if kind == "logistic":
        return -2.0 * r
    return r * _exp(r * (1.0 - x)) * (r * x - 2.0)


def log_abs_derivative(kind: MapKind, r, x):
    """ln|f'(x)|, -inf where f'(x) = 0: ``lyapunov_terms``, where f' is written,
    plus Ricker's r(1-x). That form stays finite where e^{r(1-x)} underflows."""
    terms = lyapunov_terms(kind, r, x)
    return r * (1.0 - x) + terms if kind == "ricker" else terms


def lyapunov_terms(kind: MapKind, r, x):
    """Terms whose orbit average is the Lyapunov exponent off a cycle: ln|f'(x)|
    for the logistic map, f'(x) = r(1 - 2x), and ln|1 - rx| alone for Ricker,
    f'(x) = e^{r(1-x)}(1 - rx). f' is written here and nowhere else.

    A Ricker orbit carries y = ln x with y_{t+1} - y_t = r(1 - x_t), so the
    r(1 - x) half of ln|f'(x)| = r(1 - x) + ln|1 - rx| sums over n steps to
    exactly y_n - y_0. Its average tends to 0 wherever y_n/n does, as on any
    orbit kept off 0 (which repels) and under the cap: dropping it keeps the
    limit and removes a noise of size |y_n - y_0|/n, with |y_n - y_0| up to
    ~3600 at r ~ 9.1. The identity fails where y_n/n does not tend to 0, as on
    the extinct fixed point (y = -inf), where ln|f'| = r and these terms read
    0; a cycle's multiplier takes ``log_abs_derivative``.
    """
    # in place in one temporary (0-d for a float x), in the plain expression's order:
    # a freed block-sized temporary faults its pages back in on the next call
    t = np.asarray(np.multiply(r if kind == "ricker" else 2.0, x))
    np.subtract(1.0, t, out=t)
    if kind == "logistic":
        np.multiply(r, t, out=t)
    np.abs(t, out=t)
    return np.log(t, out=t)[()]


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
    phase i; yield (i, the states stepped from) in reused blocks of at most BLOCK rows.
    ``orbit_step`` written out in place: each step goes into the next row of one
    block of BLOCK + 1 rows by the same operations in the same order."""
    block, a = np.empty((BLOCK + 1, len(x))), np.empty(len(x))
    block[0], y = x, np.log(x)
    pairs = list(zip(block, block[1:]))
    # local names and 0-d operands: looking up np.<ufunc> costs ~8 % of a step, and
    # converting a float operand on each call ~30 % (a 0-d array takes the same loop)
    subtract, multiply, add, exp = np.subtract, np.multiply, np.add, np.exp
    one, r = np.ones(()), np.asarray(r, dtype=float)
    for phase, steps in enumerate(phases):
        for start in range(0, steps, BLOCK):
            m = min(BLOCK, steps - start)
            if kind == "ricker":
                for x_t, x_t1 in pairs[:m]:
                    subtract(one, x_t, a)
                    multiply(r, a, a)
                    add(y, a, y)
                    exp(y, x_t1)
            else:
                for x_t, x_t1 in pairs[:m]:
                    multiply(r, x_t, a)
                    subtract(one, x_t, x_t1)
                    multiply(a, x_t1, x_t1)
            yield phase, block[:m]
            # the state after the last row is the next block's first
            block[0] = block[m]


def in_domain(kind: MapKind, x):
    """x lies in the closed domain of the map, [0, 1] or [0, RICKER_X_CAP]."""
    return (0.0 <= x) & (x <= UPPER[kind])


def escaped(kind: MapKind, x0: float, t: int, x: float) -> DivergenceError:
    """The orbit from x0 is at x outside the closed domain at step t (x = inf if the step overflowed)."""
    return DivergenceError(f"{kind} orbit from x0={x0!r} escaped [0, {UPPER[kind]:g}] at step {t}, x={x!r}")


def orbit(kind: MapKind, r: float, x: float, y: float, steps: int, out: Optional[list] = None):
    """(x, y) after ``steps`` steps of ``orbit_step`` from (x, y = ln x), each (x, y)
    stepped to appended to ``out`` if given; ``escaped`` when the start or a step
    (overflow included) leaves the closed domain."""
    hi, x0 = UPPER[kind], x
    if not 0.0 <= x <= hi:
        raise escaped(kind, x0, 0, x)
    # orbit_step and in_domain written out for floats: through them settling takes 3x as long
    try:
        if kind == "logistic":
            for t in range(1, steps + 1):
                x = r * x * (1.0 - x)
                if not 0.0 <= x <= hi:
                    raise escaped(kind, x0, t, x)
                if out is not None:
                    out.append((x, y))
            return x, y
        for t in range(1, steps + 1):
            y += r * (1.0 - x)
            x = math.exp(y)
            if not 0.0 <= x <= hi:
                raise escaped(kind, x0, t, x)
            if out is not None:
                out.append((x, y))
    except OverflowError:
        # e^y past the float range lands beyond the cap
        raise escaped(kind, x0, t, math.inf) from None
    return x, y
