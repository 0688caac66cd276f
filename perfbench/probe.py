"""A fixed pure-Python loop that probes the host's current speed.

The benchmark runs on a few vCPUs of a shared host whose speed swings by a
fifth or more over tens of seconds, with the load of other tenants, so two
30-second runs of the same code can differ by that much. Probing around and
during each operation tells how fast the host ran while it ran, and the
benchmark scales the operation's latency to the speed at which the probe
takes ``NOMINAL_S``: a slow host phase lengthens both, and their ratio
stays. A probe is the median of a few short loops, since single loops jump
between a fast and a slow speed from one millisecond to the next. The loop
depends on nothing in ``steadychaos``, so a change to the package moves the
scaled time in the same proportion as the raw one.
"""

import contextlib
import signal
import statistics
import threading
from time import perf_counter

ITERS = 20_000
LOOPS = 5
# about the probe's median on the baseline host (2 vCPUs, Python 3.11.7),
# so that scaled times read close to that host's seconds
NOMINAL_S = 0.0013
# how often a Sampler probes during an operation; a probe takes about 7 ms
PERIOD_S = 0.25

_probing = False


def _loop_s() -> float:
    t0 = perf_counter()
    x = 0.3
    for _ in range(ITERS):
        x = 3.9 * x * (1.0 - x)
    return perf_counter() - t0


def probe_s() -> float:
    """Median seconds of ``LOOPS`` runs of the fixed loop."""
    global _probing
    _probing = True
    try:
        return statistics.median(_loop_s() for _ in range(LOOPS))
    finally:
        _probing = False


def scale(seconds: float, probes) -> float:
    """``seconds`` at the nominal host speed, from the probes taken around and during them."""
    return seconds * NOMINAL_S / statistics.fmean(probes)


class Sampler:
    """Probes every ``PERIOD_S`` from a timer signal while installed.

    An operation of several seconds spans many host speed phases, which the
    probes just before and after it miss. The signal handler runs on the main
    thread between bytecodes, inside whatever operation is running, so its
    probes see the speed that operation ran at. Each probe's interval is
    kept, so that its time can be taken out of the operation it interrupted.
    No probe is taken while another thread runs (the ensemble's worker pool),
    where it would wait for the interpreter lock and read a slow host, nor
    inside a probe between operations.
    """

    def __init__(self) -> None:
        self.probes: list = []  # (start, end, probe seconds)

    def _handler(self, signum, frame) -> None:
        if _probing or threading.active_count() > 1:
            return
        start = perf_counter()
        p = probe_s()
        self.probes.append((start, perf_counter(), p))

    @contextlib.contextmanager
    def installed(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def within(self, start: float, end: float) -> tuple[list, float]:
        """The probes taken between ``start`` and ``end``, and the seconds they took.

        The handler runs on the thread that reads the clock, so a probe lies
        wholly inside or wholly outside the interval.
        """
        inside = [(s, e, p) for s, e, p in self.probes if start <= s and e <= end]
        return [p for _, _, p in inside], sum(e - s for s, e, _ in inside)
