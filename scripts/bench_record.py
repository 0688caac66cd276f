#!/usr/bin/env python3
"""Record end-to-end benchmark figures of one or more source checkouts.

Runs the benchmark (``perfbench/run.py --trace 0`` of each checkout, as it
stands) in a fresh process once per workload, seed and checkout, each
checkout running first for every other seed, and reads the JSON result from
the last line of each run. Writes ``BENCH_<short-rev>.json`` per checkout
(``BENCH_<short-rev>-dirty.json`` when its tree has uncommitted changes):
the median and quartiles of every end-to-end metric per workload, the failed
and attempted operation counts, the environment and the revision. With two
checkouts it also prints, per metric, how the second compares with the first
over the pairs of runs.

    python3 scripts/bench_record.py --checkout ../parent --checkout . \\
        --workload ensemble --seeds 301,302,303 --seconds 30
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def strict_json(line: str) -> dict:
    def no_constant(name):
        raise ValueError(f"non-finite number {name}")
    return json.loads(line, parse_constant=no_constant)


def git(checkout: Path, *args: str) -> str:
    done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: git {' '.join(args)} failed in {checkout}: {done.stderr.strip()}")
    return done.stdout.strip()


def src_digest(checkout: Path) -> str:
    """sha256 over the package sources, as the benchmark's env line gives it."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "steadychaos").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {checkout} exited {done.returncode}: "
                         f"{done.stderr.strip()[-500:]}")
    try:
        result = strict_json(lines[-1])
        return {"seed": seed, "correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {name: (float(m["value"]), m["unit"]) for name, m in result["metrics"].items()}}
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"error: the last line of {' '.join(argv[1:])} in {checkout} is not a result: "
                         f"{exc}: {lines[-1][:200]!r}")


def summary(runs: list, names: list) -> dict:
    metrics = {}
    for name in names:
        values = [run["metrics"][name][0] for run in runs]
        quartiles = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        q1, median, q3 = quartiles
        metrics[name] = {"unit": runs[0]["metrics"][name][1], "median": median, "q1": q1, "q3": q3,
                         "values": values}
    return {"seeds": [run["seed"] for run in runs], "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs), "failed": sum(run["failed"] for run in runs),
            "metrics": metrics}


def compare(first: dict, second: dict, better: dict) -> None:
    """Per metric: the medians, the change, and the pairs the second checkout wins."""
    for name, a in first["metrics"].items():
        b = second["metrics"][name]
        sign = 1.0 if better[name] == "lower" else -1.0
        wins = sum(sign * (y - x) < 0 for x, y in zip(a["values"], b["values"]))
        change = (b["median"] - a["median"]) / a["median"] if a["median"] else float("nan")
        print(f"  {name}: {a['median']:.6g} -> {b['median']:.6g} {a['unit']} ({change:+.1%}); "
              f"wins {wins}/{len(a['values'])}; first IQR {a['q3'] - a['q1']:.3g}, "
              f"median gap {abs(b['median'] - a['median']):.3g}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--checkout", action="append", type=Path,
                        help="source checkout to measure (repeat to alternate; default: this one)")
    parser.add_argument("--workload", action="append", help="workload to run (repeat; default: all)")
    parser.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args()
    checkouts = [c.resolve() for c in args.checkout or [ROOT]]
    spec = json.loads((checkouts[0] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [m["name"] for m in spec["end_to_end"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    # the state of each tree as measured, before any record lands in one
    revisions = {c: (git(c, "rev-parse", "HEAD"), git(c, "status", "--porcelain") == "") for c in checkouts}
    runs = {(c, w): [] for c in checkouts for w in workloads}
    for w in workloads:
        for i, seed in enumerate(seeds):
            for c in checkouts if i % 2 == 0 else checkouts[::-1]:  # each side runs first in turn
                run = run_once(c, w, seed, seconds)
                missing = [n for n in names if n not in run["metrics"]]
                if missing:
                    raise SystemExit(f"error: {w} seed {seed} in {c} reports no {', '.join(missing)}")
                runs[(c, w)].append(run)
                print(f"{c.name} {w} seed={seed} wall_s={run['metrics']['wall_s'][0]:.6g} "
                      f"failed={run['failed']}/{run['attempted']}", flush=True)

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # numpy's version without importing it: a child process starts with this
    # one's peak RSS, so the recorder stays small to leave peak_rss_mb unmasked
    environment = {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
                   "cores": cores, "cpu_model": cpu_model()}
    records = {}
    for c in checkouts:
        revision, clean = revisions[c]
        records[c] = {
            "revision": revision, "clean": clean, "src_sha256": src_digest(c), "environment": environment,
            "settings": {"command": "perfbench/run.py --trace 0", "seconds": seconds, "seeds": seeds},
            "workloads": {w: summary(runs[(c, w)], names) for w in workloads},
        }
        path = args.out_dir / f"BENCH_{revision[:7]}{'' if clean else '-dirty'}.json"
        path.write_text(json.dumps(records[c], indent=1) + "\n")
        print(f"wrote {path}")
    for c in checkouts[1:]:
        for w in workloads:
            print(f"{w}: {checkouts[0].name} -> {c.name}")
            compare(records[checkouts[0]]["workloads"][w], records[c]["workloads"][w], better)


if __name__ == "__main__":
    main()
