#!/usr/bin/env python3
"""steadychaos benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The load is a closed loop: one client issues the workload's fixed
list of operations, each after the previous one returns, and repeats the
list while time remains. Every output is checked by the oracles in
``workloads.py``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics from spans around each package function (see
``tracing.py``). The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# at most two threads (nproc = 2): the ensemble's own pool, no BLAS pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import probe
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
TAIL_SHARE = 0.1  # op_tail_ms averages the slowest tenth of the per-op typical latencies
SETUP_CODE = (
    "import time\n"
    "import probe\n"
    "before = probe.probe_s()\n"
    "t = time.perf_counter()\n"
    "import steadychaos.cli as cli\n"
    "cli.build_parser()\n"
    "t = time.perf_counter() - t\n"
    "print(t, before, probe.probe_s())\n"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True, help="sets every --seed of the workload (>= 0)")
    p.add_argument("--seconds", type=float, required=True, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "steadychaos").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def environment() -> dict:
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "caches": _cache_sizes(),
        "computed_bytes": workloads.computed_bytes(),
    }


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

def measure_setup() -> tuple[float, float]:
    """Median time, in fresh processes, to import steadychaos.cli and build its parser.

    Returns the median scaled by the speed probes taken in the same process
    just before and after, and the raw median.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(Path(__file__).parent))))
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        t, before, after = map(float, proc.stdout.split())
        scaled.append(probe.scale(t, (before, after)))
        raw.append(t)
    return statistics.median(scaled), statistics.median(raw)


def run_op(op, cli, package, tracer=None):
    """Issue one operation and return its Result, with warnings and output captured."""
    out, err = io.StringIO(), io.StringIO()
    res = workloads.Result(code=None)
    span = tracer.op(op.name) if tracer is not None else contextlib.nullcontext()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        res.start_s = t0 = time.perf_counter()
        try:
            with span:
                if op.argv is not None:
                    res.code = cli.main(op.argv)
                else:
                    res.value = op.call(package)
                    res.code = 0
        except Exception:  # a crash is a failed operation, not a failed run
            res.error = traceback.format_exc(limit=3)
        res.latency_s = time.perf_counter() - t0
    res.stdout, res.stderr = out.getvalue(), err.getvalue()
    res.warnings = [f"{w.category.__name__}: {w.message}" for w in caught]
    return res


def problems_of(op, res, prior) -> list:
    if res.error is not None:
        return [f"raised {res.error.strip().splitlines()[-1]}"]
    problems = []
    if res.code != op.expect_exit:
        problems.append(f"exit {res.code}, README contract gives {op.expect_exit}")
    problems += [f"warning {w}" for w in dict.fromkeys(res.warnings)]
    if op.check is not None and res.code == 0:
        try:
            problems += op.check(res, prior)
        except (ValueError, KeyError, IndexError, AttributeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return problems


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: dict[str, str] = {}
        self.output_bytes = 0
        self.exit_nonzero = 0

    def add(self, op, res, problems) -> None:
        self.attempted += 1
        self.output_bytes += len(res.stdout.encode())
        self.exit_nonzero += res.code not in (0, None)
        if problems:
            self.failed += 1
            self.correct = self.correct and op.edge
            self.failures.setdefault(op.name, "; ".join(problems))


def run_pass(workload, cli, package, tally, tracer=None, sampler=None) -> list:
    """Issue every op once; scale each latency by the probes around and during it."""
    results = {}
    ref_before = probe.probe_s()
    for op in workload.ops:
        res = run_op(op, cli, package, tracer)
        ref_after = probe.probe_s()
        inside, spent = sampler.within(res.start_s, res.start_s + res.latency_s) if sampler else ([], 0.0)
        res.latency_s -= spent
        res.scaled_s = probe.scale(res.latency_s, (ref_before, *inside, ref_after))
        ref_before = ref_after
        tally.add(op, res, problems_of(op, res, results))
        results[op.name] = res
    return [(op, results[op.name]) for op in workload.ops]


def pass_time(p) -> float:
    """Raw seconds of one pass, without the time of probes taken during its ops."""
    return sum(res.latency_s for _, res in p)


def _keep_going(start, seconds, pass_times) -> bool:
    # start another pass while at least half of a typical one fits
    return time.perf_counter() - start + 0.5 * statistics.median(pass_times) <= seconds


def tail_samples(values) -> list:
    """The slowest tenth of the values, at least one."""
    return sorted(values)[-max(1, math.ceil(TAIL_SHARE * len(values))):]


def per_op_latencies(passes) -> dict:
    """Scaled latencies (s) of each op over the passes."""
    latencies: dict = {}
    for p in passes:
        for op, res in p:
            latencies.setdefault(op.name, []).append(res.scaled_s)
    return latencies


def typical(samples) -> float:
    """Mean of the samples, leaving out the fastest and the slowest when there are five or more.

    A run holds only three or four passes of ``figures``, whose 0.2 s ``fig2``
    command swings between two host speeds that the probes correct only in
    part: a median of three picks one of them, the mean averages both. With
    five or more samples the extremes are left out, so that one cold or
    stalled pass does not move the figure.
    """
    samples = sorted(samples)
    return statistics.fmean(samples[1:-1] if len(samples) >= 5 else samples)


def op_typicals(passes) -> list:
    """Each op's typical scaled latency (s) over the passes: one typical pass."""
    return [typical(v) for v in per_op_latencies(passes).values()]


def speedup_2w(passes) -> float:
    """Ensemble time at --n-workers 1 over --n-workers 2, from per-op typical latencies; 0 if none ran."""
    typicals = {name: typical(v) for name, v in per_op_latencies(passes).items()}
    ops = [op for op, _ in passes[0]]
    w1 = sum(typicals[op.name] for op in ops if op.workers == 1)
    w2 = sum(typicals[op.name] for op in ops if op.workers == 2)
    return w1 / w2 if w2 > 0 else 0.0


def end_to_end(workload, passes, setup_s) -> dict:
    # every latency is scaled by the speed probes around it (probe.py), and
    # every time metric is taken over the per-op typical latencies, so that
    # the number of passes a run holds does not move it (with pooled samples
    # the median of the three figures commands fell between fig2 and fig3
    # when a run held 4 passes)
    typicals_ms = [m * 1e3 for m in op_typicals(passes)]
    wall_s = sum(typicals_ms) / 1e3
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "op_p50_ms": (statistics.median(typicals_ms), "ms"),
        "op_tail_ms": (statistics.fmean(tail_samples(typicals_ms)), "ms"),
        "work_per_s": (sum(op.work for op in workload.ops) / wall_s, "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def per_layer(agg, n_traced, tally, n_passes, untraced_s, traced_s, speedup, absent) -> dict:
    """Per-layer figures for one traced pass: totals divided by the traced pass count."""
    skip = set(absent)
    out = {}

    def put(name, value, unit, *needs):
        if not skip.intersection(needs):
            out[name] = (value, unit)

    def per(table, key):
        return table.get(key, 0.0) / n_traced

    def status(key, st):
        return agg.count(key, st) / n_traced

    def layer(key, **fields):
        # fields: metric suffix -> (table, unit)
        for suffix, (table, unit) in fields.items():
            put(f"{key}.{suffix}", per(table, key), unit, key)

    calls, time_s, self_s, work = (agg.calls, "count"), (agg.time, "s"), (agg.self_time, "s"), agg.work
    layer("equilibrium.ricker_solve", calls=calls, time_s=time_s, self_s=self_s)
    layer("equilibrium.ricker_noise_bound", calls=calls, time_s=time_s)
    layer("equilibrium.ricker_residual", calls=calls, points=(work, "count"))
    layer("equilibrium.logistic_solve", calls=calls, time_s=time_s)
    solvers = ("equilibrium.ricker_solve", "equilibrium.logistic_solve")
    attempted = sum(per(agg.calls, k) for k in solvers)
    raised = sum(v for (k, _), v in agg.status.items() if k in solvers) / n_traced
    put("equilibrium.solve_yield", (attempted - raised) / attempted if attempted else 0.0, "ratio", *solvers)
    put("equilibrium.no_root", sum(status(k, "NoRootError") for k in solvers), "count", *solvers)
    put("equilibrium.infeasible", sum(status(k, "InfeasibleError") for k in solvers), "count", *solvers)

    lyap = "chaos.lyapunov"
    layer(lyap, calls=calls, iters=(work, "count"), time_s=time_s)
    lyap_s = per(agg.time, lyap)
    put(f"{lyap}.iters_per_s", per(work, lyap) / lyap_s if lyap_s > 0 else 0.0, "1/s", lyap)
    put(f"{lyap}.retries", status(lyap, "DivergenceError"), "count", lyap)
    layer("chaos.classify", calls=calls, self_s=self_s)
    layer("chaos.bifurcation_scan", calls=calls, point_iters=(work, "count"), time_s=time_s)
    layer("chaos.transition_report", calls=calls, self_s=self_s)

    layer("simulate.trajectory_rng", calls=calls, time_s=time_s)
    layer("simulate.run_trajectory", calls=calls, self_s=self_s)
    layer("simulate.run_ensemble", calls=calls, traj_steps=(work, "count"), self_s=self_s)
    layer("simulate.noise_draw", calls=calls, variates=(work, "count"), time_s=time_s)
    layer("simulate.stationarity_check", calls=calls, samples=(work, "count"), self_s=self_s)
    put("simulate.speedup_2w", speedup, "x", "simulate.run_ensemble")
    put("simulate.exits", status("simulate.run_trajectory", "exited"), "count", "simulate.run_trajectory")
    put("simulate.matrix_bytes", agg.extra_max.get("simulate.run_ensemble", 0.0), "B",
        "simulate.run_ensemble")

    layer("mean_dynamics.convergence_sweep", calls=calls, levels=(work, "count"), self_s=self_s)
    put("mean_dynamics.deterministic_orbit.steps", per(work, "mean_dynamics.deterministic_orbit"),
        "count", "mean_dynamics.deterministic_orbit")
    layer("gamma_core", calls=calls, time_s=time_s)
    put("selfcheck.run_all.time_s", per(agg.time, "selfcheck.run_all"), "s", "selfcheck.run_all")

    layer("cli.main", calls=calls, self_s=self_s)
    put("cli.output_bytes", tally.output_bytes / n_passes, "B")
    put("cli.exit_nonzero", tally.exit_nonzero / n_passes, "count")

    put("trace.wall_s", traced_s, "s")
    put("trace.untraced_wall_s", untraced_s, "s")
    put("trace.overhead_s", traced_s - untraced_s, "s")
    put("trace.unaccounted_s", agg.op_self / n_traced, "s")
    put("trace.spans", agg.spans / n_traced, "count")
    return out


def print_breakdown(agg, n_traced) -> None:
    """Inclusive time per (op, layer, outcome) for one traced pass, on stdout."""
    for (op, key, st), (count, total) in sorted(agg.by_op.items()):
        if key.startswith(tracing.OP):
            continue
        print(f"layer {op[len(tracing.OP) + 1:]} {key} {st}: calls={count / n_traced:g} "
              f"mean_ms={total / count * 1e3:.3f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "steadychaos" / "cli.py").is_file():
        print(f"error: no steadychaos sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import steadychaos
    import steadychaos.cli as cli

    workload = workloads.build(args.workload, args.seed)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload.name}: {len(workload.ops)} ops per pass, work unit = {workload.work_unit}")
    if workload.name == "figures":
        print(f"no-root share of the ricker grid: {workloads.no_root_share(workloads.FIG_STEPS):.4f} "
              f"at {workloads.FIG_STEPS} steps, {workloads.no_root_share(workloads.FIG_REAL_STEPS):.4f} "
              f"at the real figure's {workloads.FIG_REAL_STEPS}")

    tally = Tally()
    setup_s, setup_raw_s = measure_setup() if args.trace == 0 else (None, None)
    start = time.perf_counter()
    if args.trace == 0:
        passes = []
        sampler = probe.Sampler()
        with sampler.installed():
            while not passes or _keep_going(start, args.seconds, [pass_time(p) for p in passes]):
                passes.append(run_pass(workload, cli, steadychaos, tally, sampler=sampler))
        metrics = end_to_end(workload, passes, setup_s)
        tail = tail_samples([m * 1e3 for m in op_typicals(passes)])
        speed = statistics.median(res.scaled_s / res.latency_s for p in passes for _, res in p)
        print(f"raw (unscaled): mean pass {statistics.fmean(map(pass_time, passes)):.4f} s, "
              f"setup {setup_raw_s:.4f} s; median scale factor {speed:.4f} "
              f"(the probe loop ran at {1 / speed:.4f} of its nominal time); "
              f"{len(sampler.probes)} timer probes")
        print(f"passes={len(passes)}: {len(passes)} samples for each of the {len(workload.ops)} ops; "
              f"op_p50_ms is the median of the per-op typical latencies, op_tail_ms the mean of the "
              f"{len(tail)} slowest of them, from {tail[0]:.3f} ms up")
        for name, values in per_op_latencies(passes).items():
            print(f"op {name}: typical_ms={typical(values) * 1e3:.3f} "
                  f"median_ms={statistics.median(values) * 1e3:.3f}")
        if any(op.workers for op in workload.ops):
            print(f"speedup at 2 workers (per-layer metric, not gated): {speedup_2w(passes):.4f}")
    else:
        tracer, agg = tracing.Tracer(), tracing.Aggregate()
        untraced, traced = [], []  # passes, alternating
        while not traced or _keep_going(start, args.seconds, [pass_time(u) + pass_time(t)
                                                             for u, t in zip(untraced, traced)]):
            untraced.append(run_pass(workload, cli, steadychaos, tally))
            with tracer.installed():
                traced.append(run_pass(workload, cli, steadychaos, tally, tracer))
            agg.add(tracer)
        print_breakdown(agg, len(traced))
        if tracer.absent:
            print("absent (not traced, metrics left out): " + ", ".join(tracer.absent))
        if tracer.counter_errors:
            print(f"counter errors: {tracer.counter_errors}")
        metrics = per_layer(agg, len(traced), tally, len(untraced) + len(traced),
                            statistics.median(map(pass_time, untraced)),
                            statistics.median(map(pass_time, traced)),
                            speedup_2w(untraced), tracer.absent)
    for name, problem in tally.failures.items():
        print(f"FAIL {name}: {problem}")
    print(f"failed_frac={tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
