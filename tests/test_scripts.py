"""The scripts run to completion on small inputs."""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=ENV, capture_output=True, text=True, timeout=120,
    )


def test_reproduce_figures_writes_three_csvs(tmp_path):
    done = run_script("reproduce_figures.py", "--steps", "6", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    headers = {
        "fig1_logistic_scan.csv": "k,var_eps,branch,r,theta,feasible",
        "fig2_ricker_curve.csv": "k,r",
        "fig3_ricker_scan.csv": "k,var_eps,branch,r,theta,feasible",
    }
    for name, header in headers.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header, name
        assert len(lines) > 1, name


def test_transition_survey_verdicts():
    done = run_script("transition_survey.py", "--k", "0.5,1,10")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    logistic = [row for row in rows if row[0] == "logistic"]
    assert len(logistic) == 3
    assert all(row[3:5] == ["NO", "TRANSITION"] for row in logistic)
    ricker_k1 = [row for row in rows if row[:2] == ["ricker", "1"]]
    assert len(ricker_k1) == 1 and ricker_k1[0][3] == "TRANSITION"
    ricker_k10 = [row for row in rows if row[:2] == ["ricker", "10"]]
    assert len(ricker_k10) == 1 and ricker_k10[0][-1] == "periodic]"


def test_bench_record_writes_a_summary(tmp_path):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    done = run_script("bench_record.py", "--workload", "figures", "--seeds", "1,2", "--seconds", "0.2",
                      "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    (path,) = tmp_path.glob("BENCH_*.json")
    record = json.loads(path.read_text())
    assert path.name == f"BENCH_{record['revision'][:7]}{'' if record['clean'] else '-dirty'}.json"
    assert len(record["revision"]) == 40 and len(record["src_sha256"]) == 16
    assert set(record["environment"]) == {"python", "numpy", "cores", "cpu_model"}
    assert record["settings"]["seeds"] == [1, 2] and record["settings"]["seconds"] == 0.2
    figures = record["workloads"]["figures"]
    assert figures["seeds"] == [1, 2] and figures["correct"] is True
    assert figures["failed"] == 0 and figures["attempted"] > 0
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert list(figures["metrics"]) == names
    for m in figures["metrics"].values():
        assert len(m["values"]) == 2 and m["q1"] <= m["median"] <= m["q3"]
        assert m["median"] == statistics.median(m["values"])
