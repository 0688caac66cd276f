"""A traced benchmark run of each workload ends in a whole result.

Only a traced run (``--trace 1``) wraps the functions named in
``perfbench/tracing.py`` by module attribute and reads their counted
arguments by name; ``run.py`` leaves out the metrics of any it cannot find.
A renamed function or argument, output that bypasses ``sys.stdout``, or a
``SystemExit`` escaping an operation would each leave a run that exits 0
without its result line, or with metrics missing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def strict_json(line: str) -> dict:
    def no_constant(name):
        raise ValueError(f"non-finite number {name} in the result line")
    return json.loads(line, parse_constant=no_constant)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_layer(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = strict_json(lines[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stdout[-2000:]
    missing = [m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in result["metrics"]]
    assert missing == []
    assert not [line for line in lines if line.startswith(("absent", "counter errors:"))]
