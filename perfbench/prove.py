#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --workloads figures,verdicts,ensemble --seeds 10 --seconds 30

Each run is one ``run.py`` process, started after the previous one exits.
For every end-to-end metric the table gives the median over the seeds and
the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median. The
bounds are those of BENCHMARK.json; ``--json`` writes all runs to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default="figures,verdicts,ensemble")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--json", default=None, help="write every run's result to this file")
    args = p.parse_args()
    if args.seeds < 2:
        p.error("--seeds must be at least 2 to give quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = {}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        runs[workload] = results
        print(f"\n{workload}: metric, median, quartile spread / median, bound")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                ok = False
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:<45} {med:<14.6g} {unit:<6} {spread:8.4f}  {bound}{flag}")
        print(flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
