"""Span tracing around steadychaos' public functions, for the per-layer run.

``Tracer.installed()`` replaces each traced function at its module attribute,
and at every other steadychaos module attribute bound to the same object
(``chaos.ricker_solve``, ``mean_dynamics.run_ensemble``, the package
re-exports ...), and restores the originals on exit. A function that no
longer exists is recorded as absent and its metrics are left out.

Spans stay in memory until ``Aggregate.add`` folds them into per-layer
totals after each traced pass, outside the timed region. Self time splits wall time among the innermost open
spans of all threads, so the self times of one op add up to its duration
even while the ensemble engine's worker threads run side by side.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, function) pairs, and how to count each call's work from its
# arguments: (argument names, combine). Per-element kernels such as
# simulate.step and chaos.det_step are deliberately not traced: their time
# stays in the caller's self time (run_trajectory.self_s is stepping).
TARGETS = {
    ("cli", "main"): None,
    ("equilibrium", "logistic_solve"): None,
    ("equilibrium", "ricker_solve"): None,
    ("equilibrium", "ricker_noise_bound"): None,
    ("equilibrium", "ricker_residual"): (("r",), lambda r: float(np.size(r))),
    ("chaos", "lyapunov"): (("burn_in", "iters"), lambda b, i: float(b + i)),
    ("chaos", "classify"): None,
    ("chaos", "bifurcation_scan"): (
        ("n_r", "burn_in", "lyap_iters", "samples_per_r"),
        lambda n, b, l, s: float(n * (b + l + s)),
    ),
    ("chaos", "transition_report"): None,
    ("simulate", "trajectory_rng"): None,
    ("simulate", "noise_draw"): (("size",), lambda size: float(1 if size is None else size)),
    ("simulate", "run_trajectory"): None,
    # work is trajectory-steps; extra is the trajectory matrix, n (t+1) float64
    ("simulate", "run_ensemble"): (("n_traj", "t_max"), lambda n, t: (n * t, n * (t + 1) * 8)),
    ("simulate", "stationarity_check"): (("n_traj",), float),
    ("mean_dynamics", "convergence_sweep"): (("ladder",), lambda ladder: float(len(ladder))),
    ("mean_dynamics", "deterministic_orbit"): (("t_max",), float),
    ("selfcheck", "run_all"): None,
}
GAMMA_CORE = "gamma_core"  # every public function there is traced as one layer
OP = "op"  # the benchmark's own root span around each operation

PACKAGE = "steadychaos"


def _arg_reader(fn, names):
    params = inspect.signature(fn).parameters
    order = list(params)
    defaults = {n: p.default for n, p in params.items()}
    positions = [(n, order.index(n)) for n in names]  # ValueError if renamed

    def read(args, kwargs):
        return [
            kwargs[n] if n in kwargs else args[pos] if pos < len(args) else defaults[n]
            for n, pos in positions
        ]
    return read


def _module(name: str):
    try:
        return importlib.import_module(f"{PACKAGE}.{name}")
    except ImportError:
        return None


class Tracer:
    """Records one span per call of a traced function, from every thread."""

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.key_id: dict[str, int] = {}
        self.absent: list[str] = []
        self.counter_errors = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self.clear()

    def clear(self) -> None:
        self.name = array("l")
        self.parent = array("l")
        self.root = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.extra = array("d")
        self.status: list[str] = []

    def _id(self, key: str) -> int:
        if key not in self.key_id:
            self.key_id[key] = len(self.keys)
            self.keys.append(key)
        return self.key_id[key]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, key_id: int) -> int:
        stack = self._stack()
        # a worker thread's outermost span belongs to the op that started it
        outer = stack or self._root_stack
        with self._lock:
            idx = len(self.name)
            self.name.append(key_id)
            self.parent.append(outer[-1] if outer else -1)
            self.root.append(self.root[outer[-1]] if outer else idx)
            self.start.append(0.0)
            self.end.append(0.0)
            self.work.append(0.0)
            self.extra.append(0.0)
            self.status.append("")
        stack.append(idx)
        return idx

    def _wrap(self, key: str, fn, counter):
        key_id = self._id(key)
        read = None
        if counter is not None:
            names, combine = counter
            read = _arg_reader(fn, names)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(key_id)
            stack = self._stack()
            status = ""
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.status[idx] = status
            if read is not None:
                try:
                    counted = combine(*read(args, kwargs))
                    if isinstance(counted, tuple):
                        counted, self.extra[idx] = counted
                    self.work[idx] = counted
                except (TypeError, ValueError, KeyError, IndexError):
                    self.counter_errors += 1
            if getattr(result, "exited", False) is True:
                self.status[idx] = "exited"
            return result
        return traced

    @contextmanager
    def op(self, name: str):
        """Root span for one benchmark operation, in the calling thread."""
        idx = self._open(self._id(f"{OP}:{name}"))
        self._root_stack = self._stack()
        t0 = perf_counter()
        try:
            yield
        finally:
            self.start[idx] = t0
            self.end[idx] = perf_counter()
            self._stack().pop()

    @contextmanager
    def installed(self):
        """Replace every traced function for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        targets = dict(TARGETS)
        gamma = _module(GAMMA_CORE)
        for fname, obj in vars(gamma).items() if gamma else ():
            if inspect.isfunction(obj) and not fname.startswith("_") and obj.__module__ == gamma.__name__:
                targets[(GAMMA_CORE, fname)] = None
        replaced = []  # (module, attribute, original)
        self.absent = []
        for (mod, fname), counter in targets.items():
            original = getattr(_module(mod), fname, None)
            if not callable(original):
                self.absent.append(f"{mod}.{fname}")
                continue
            key = GAMMA_CORE if mod == GAMMA_CORE else f"{mod}.{fname}"
            try:
                wrapper = self._wrap(key, original, counter)
            except ValueError:  # a counted argument was renamed
                self.absent.append(f"{mod}.{fname}")
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
        try:
            yield
        finally:
            for module, attr, original in replaced:
                setattr(module, attr, original)


class Aggregate:
    """Per-key totals, accumulated over the traced passes."""

    def __init__(self) -> None:
        self.spans = 0
        self.calls: dict[str, int] = {}
        self.time: dict[str, float] = {}  # inclusive, outermost span of a key only
        self.self_time: dict[str, float] = {}
        self.work: dict[str, float] = {}
        self.extra_max: dict[str, float] = {}
        self.status: dict[tuple[str, str], int] = {}
        # (op, key, outcome) -> [calls, inclusive seconds]
        self.by_op: dict[tuple[str, str, str], list] = {}
        self.op_self = 0.0  # time inside op spans but outside every package span

    def count(self, key: str, status: str) -> int:
        return self.status.get((key, status), 0)

    def add(self, tracer: Tracer) -> None:
        """Fold in the tracer's spans and clear them, so memory holds one pass."""
        keys = tracer.keys
        name = tracer.name.tolist()
        parent = tracer.parent.tolist()
        root = tracer.root.tolist()
        start = np.frombuffer(tracer.start, dtype=float)
        end = np.frombuffer(tracer.end, dtype=float)
        share = _wall_shares(parent, start, end)
        dur = (end - start).tolist()
        work = tracer.work.tolist()
        extra = tracer.extra.tolist()
        self.spans += len(name)
        for i, key_id in enumerate(name):
            key = keys[key_id]
            st = tracer.status[i]
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_time[key] = self.self_time.get(key, 0.0) + share[i]
            self.work[key] = self.work.get(key, 0.0) + work[i]
            self.extra_max[key] = max(self.extra_max.get(key, 0.0), extra[i])
            if st:
                self.status[(key, st)] = self.status.get((key, st), 0) + 1
            if key.startswith(OP + ":"):
                self.op_self += share[i]
            p = parent[i]
            while p >= 0 and name[p] != key_id:
                p = parent[p]
            if p < 0:
                self.time[key] = self.time.get(key, 0.0) + dur[i]
                slot = self.by_op.setdefault((keys[name[root[i]]], key, st or "ok"), [0, 0.0])
                slot[0] += 1
                slot[1] += dur[i]
        tracer.clear()


def _wall_shares(parent: list, start: np.ndarray, end: np.ndarray) -> list:
    """Split each instant among the spans open then that have no open child."""
    n = len(parent)
    share = [0.0] * n
    if n == 0:
        return share
    times = np.concatenate([start, end])
    kinds = np.concatenate([np.ones(n, dtype=np.int8), np.zeros(n, dtype=np.int8)])
    idx = np.concatenate([np.arange(n), np.arange(n)])
    # ties: ends before starts, parents (lower index) open first
    order = np.lexsort((idx, kinds, times))
    open_children = [0] * n
    is_open = [False] * n
    leaves: set = set()
    prev = None
    for t, kind, i in zip(times[order].tolist(), kinds[order].tolist(), idx[order].tolist()):
        if leaves and prev is not None:
            part = (t - prev) / len(leaves)
            for j in leaves:
                share[j] += part
        prev = t
        p = parent[i]
        if kind:
            is_open[i] = True
            leaves.add(i)
            if p >= 0:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p >= 0:
                open_children[p] -= 1
                if open_children[p] == 0 and is_open[p]:
                    leaves.add(p)
    return share
