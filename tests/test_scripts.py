"""The scripts run to completion on small inputs."""

import json
import os
import shutil
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


def test_output_digests_of_one_checkout_twice_agree():
    done = run_script("output_digests.py", "--checkout", str(ROOT), "--checkout", str(ROOT), "--seeds", "1")
    assert done.returncode == 0, done.stderr
    # 35 workload ops, the survey, the figures script and its three CSVs
    assert done.stdout == "" and done.stderr == f"0 of 40 lines differ between {ROOT} and {ROOT}\n"


def test_output_digests_report_a_planted_change(tmp_path):
    for part in ("src", "perfbench", "scripts"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "steadychaos" / "cli.py"
    text = cli.read_text()
    planted = text.replace('print(f"lyapunov={_fmt(lam)}")', 'print(f"lyapunov={_fmt(lam)} planted")')
    assert planted != text
    cli.write_text(planted)
    done = run_script("output_digests.py", "--checkout", str(ROOT), "--checkout", str(tmp_path), "--seeds", "1")
    assert done.returncode == 1, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    ops = [f"verdicts/lyapunov_{op}" for op in ("logistic_r4", "logistic_r2.5", "ricker_r3", "ricker_r1.5")]
    assert [(sign, seed, op) for sign, seed, op, *_ in lines] == [
        (sign, "1", op) for op in ops for sign in "-+"
    ]
    assert done.stderr.startswith("4 of 40 lines differ")


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


# a stand-in benchmark whose runs report src_sha256 = seed // 10 in hex
STUB_RUN = """
import argparse, json
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
args = p.parse_args()
names = [m["name"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]]
print("env " + json.dumps({"src_sha256": f"{int(args.seed) // 10:016x}"}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {name: {"value": 1.0, "unit": "s"} for name in names}}))
"""


@pytest.mark.parametrize("seeds,digest", [("1,2", "0" * 16), ("1,12", None)])
def test_bench_record_takes_the_digest_its_runs_report(tmp_path, seeds, digest):
    checkout, out = tmp_path / "checkout", tmp_path / "out"
    (checkout / "perfbench").mkdir(parents=True)
    out.mkdir()
    (checkout / "perfbench" / "run.py").write_text(STUB_RUN)
    (checkout / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    git = ["git", "-C", str(checkout), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "stub"], check=True)
    done = run_script("bench_record.py", "--checkout", str(checkout), "--workload", "figures",
                      "--seeds", seeds, "--out-dir", str(out))
    written = list(out.glob("BENCH_*.json"))
    if digest is None:
        # the runs measured two different sources: no record can name both
        assert done.returncode != 0 and "src_sha256" in done.stderr
        assert written == []
    else:
        assert done.returncode == 0, done.stderr
        (path,) = written
        assert json.loads(path.read_text())["src_sha256"] == digest
