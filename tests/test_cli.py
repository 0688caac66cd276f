import csv
import functools
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from steadychaos import bifurcation_scan, cli, logistic_solve, maps, ricker_solve, simulate
from steadychaos.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@functools.lru_cache(maxsize=None)
def fresh(*argv):
    """(exit code, stdout, stderr) of the command in a new process."""
    done = subprocess.run(
        [sys.executable, "-m", "steadychaos.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


class TestExitCodes:
    def test_missing_subcommand_is_usage(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_flag_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--map", "logistic", "--k", "1", "--banana", "2")
        assert code == 1

    def test_missing_init_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--map", "logistic", "--r", "2.0")
        assert code == 1
        assert "initial condition" in err

    def test_conflicting_init_is_usage(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--map", "logistic", "--r", "2.0",
            "--x0", "0.3", "--init-k", "1.0", "--init-theta", "0.1",
        )
        assert code == 1

    @pytest.mark.parametrize("n_workers", ["0", "-3"])
    def test_fewer_than_one_worker_is_usage(self, capsys, n_workers):
        code, out, err = run_cli(
            capsys, "simulate", "--map", "logistic", "--r", "2.0", "--x0", "0.3",
            "--n-traj", "10", "--n-workers", n_workers,
        )
        assert code == 1 and out == ""
        assert "n_workers" in err

    def test_infeasible_is_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--map", "logistic", "--k", "2.0", "--var-eps", "0.3")
        assert code == 2
        assert "bound" in err

    def test_no_root_is_3(self, capsys):
        # the only root for k=0.1 at var_eps=0 lies beyond the default r_max
        code, _, err = run_cli(capsys, "solve", "--map", "ricker", "--k", "0.1", "--var-eps", "0")
        assert code == 3
        assert "numerical failure" in err

    def test_ricker_above_bound_is_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--map", "ricker", "--k", "1.0", "--var-eps", "5.0")
        assert code == 2
        assert "bound=0.6875" in err

    def test_theta_overflow_is_3_and_named(self, capsys):
        # the noiseless k = 0.001 root r ~ 1388 exists, but its theta does not fit a float
        code, _, err = run_cli(
            capsys, "solve", "--map", "ricker", "--k", "0.001", "--var-eps", "0", "--r-max", "1e6"
        )
        assert code == 3
        assert "theta = e^(r/(k+1))/r exceeds the float range" in err

    def test_success_is_0(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--map", "logistic", "--k", "2.0", "--var-eps", "0.1")
        assert code == 0


class TestSolve:
    def test_logistic_branches_printed(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--map", "logistic", "--k", "2.0", "--var-eps", "0.1")
        sol = logistic_solve(2.0, 0.1)
        assert f"r={sol.branches[0].r!r}" in out
        assert "branch=plus" in out and "branch=minus" in out

    def test_logistic_k_near_the_float_maximum(self, capsys):
        # 2k + 4 and r (1 + k) overflow here: this printed r=inf theta=nan
        code, out, err = run_cli(capsys, "solve", "--map", "logistic", "--k", "1e308", "--var-eps", "0")
        assert (code, err) == (0, "")
        assert out == ("map=logistic k=1e+308 var_eps=0.0 bound_var=1e-308\n"
                       "branch=plus r=3.0 theta=6.66666666666667e-309\n"
                       "branch=minus r=1.0 theta=0.0 degenerate\n")
        # and transition exited 1: "growth rate r must be finite"
        code, out, _ = run_cli(capsys, "transition", "--map", "logistic", "--k", "1e308", "--var-eps", "0")
        assert code == 0 and out.startswith("NO TRANSITION\nbranch=plus r=3.0 regime=")

    def test_degenerate_marked(self, capsys):
        # at v = 0 the minus root is 1.0 exactly; the formula printed
        # 0.9999999999999999 and 1.0000000000000002 at the first two k
        for k in ("4.095492670900633e-06", "2.0237323614798062e-06", "1.0", "1e300"):
            _, out, _ = run_cli(capsys, "solve", "--map", "logistic", "--k", k, "--var-eps", "0.0")
            assert out.endswith("branch=minus r=1.0 theta=0.0 degenerate\n"), k
        # only there: a tolerance of 1e-10 on r once printed theta=0.0 degenerate here
        _, out, _ = run_cli(capsys, "solve", "--map", "logistic", "--k", "1", "--var-eps", "1e-11")
        assert out.endswith("branch=minus r=1.00000000001 theta=5.000000413651855e-12\n")

    @pytest.mark.parametrize("k", ["1e-308", "8e-309", "5e-324"])
    def test_ricker_k_at_the_bottom_of_the_float_range(self, k):
        # the plus root's bracket end nears the float maximum here (at 5e-324 it
        # is inf): solve and transition hung at the first two k, and at 5e-324
        # solve read the bound as -1.0 and exited 2
        def run(*argv):
            done = subprocess.run(
                [sys.executable, "-m", "steadychaos.cli", *argv, "--map", "ricker", "--k", k],
                env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=30,
            )
            return done.returncode, done.stdout, done.stderr

        for command in ("solve", "transition"):
            code, out, err = run(command, "--var-eps", "0")
            assert (code, out) == (3, "") and "lie beyond r_max=10.0" in err, command
            code, out, err = run(command, "--var-eps", "0.5")
            assert (code, err) == (0, "") and "branch=minus r=0.2545631055982288 " in out, command
        # r+ is inf at 5e-324 and about 1.4e308 to 1.7e308 at the other two k: its theta overflows
        code, out, err = run("solve", "--var-eps", "0", "--r-max", "inf")
        assert (code, out) == (3, "") and "theta = e^(r/(k+1))/r exceeds the float range" in err

    def test_ricker_root_beyond_rmax_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--map", "ricker", "--k", "0.01", "--var-eps", "0.0", "--r-max", "200"
        )
        assert code == 0
        sol = ricker_solve(0.01, 0.0, r_max=200.0)
        assert f"r={sol.branches[0].r!r}" in out


class TestScan:
    def test_csv_header_and_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--map", "logistic", "--k", "1,2", "--var-eps-max", "0.2", "--steps", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,var_eps,branch,r,theta,feasible"
        # 2 k-values x 3 grid points x 2 branches
        assert len(lines) == 1 + 12
        assert all(line.endswith("true") for line in lines[1:])

    def test_infeasible_rows_flagged(self, capsys):
        _, out, _ = run_cli(
            capsys, "scan", "--map", "logistic", "--k", "2.0", "--var-eps-max", "0.5", "--steps", "3"
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        flags = {row[1]: row[5] for row in rows}
        assert flags["0.0"] == "true"
        assert flags["0.5"] == "false"
        bad = [row for row in rows if row[5] == "false"]
        assert all(row[2] == "none" and row[3] == "nan" for row in bad)

    def test_json_lines(self, capsys):
        _, out, _ = run_cli(
            capsys, "scan", "--map", "logistic", "--k", "1.0", "--var-eps-max", "0.1",
            "--steps", "2", "--format", "json",
        )
        objs = [json.loads(line) for line in out.strip().splitlines()]
        assert {o["branch"] for o in objs} == {"plus", "minus"}
        assert all(o["feasible"] is True for o in objs)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            capsys, "scan", "--map", "logistic", "--k", "1.0", "--var-eps-max", "0.1",
            "--steps", "2", "--output", str(path),
        )
        assert code == 0 and out == ""
        assert path.read_text().startswith("k,var_eps,branch,r,theta,feasible\n")

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_steps_below_one_is_usage(self, capsys, steps):
        # 0 used to print only the header and exit 0, and -1 numpy's
        # "Number of samples, -1, must be non-negative."
        code, out, err = run_cli(capsys, "scan", "--map", "logistic", "--k", "1.0", "--steps", steps)
        assert (code, out, err) == (1, "", f"error: steps must be >= 1, got {steps}\n")

    @pytest.mark.parametrize("k", [",", " , ", ""])
    def test_empty_k_list_is_usage(self, capsys, k):
        # it used to print only the header and exit 0
        code, out, err = run_cli(capsys, "scan", "--map", "ricker", "--k", k, "--steps", "3")
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument --k: expected comma-separated floats, got {k!r}\n")

    def test_trailing_comma_still_parses(self, capsys):
        argv = ("scan", "--map", "logistic", "--var-eps-max", "0.1", "--steps", "2", "--k")
        assert run_cli(capsys, *argv, "1,") == run_cli(capsys, *argv, "1")


class TestRickerCurve:
    def test_monotone_decreasing(self, capsys):
        _, out, _ = run_cli(capsys, "ricker-curve", "--k-min", "0.5", "--k-max", "10", "--steps", "5")
        lines = out.strip().splitlines()
        assert lines[0] == "k,r"
        rs = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(rs, rs[1:]))
        assert all(r > 2.0 for r in rs)

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_steps_below_one_is_usage(self, capsys, steps):
        # 0 used to print only the header and exit 0, and -1 numpy's
        # "Number of samples, -1, must be non-negative."
        code, out, err = run_cli(capsys, "ricker-curve", "--steps", steps)
        assert (code, out, err) == (1, "", f"error: steps must be >= 1, got {steps}\n")


class TestSimulate:
    BASE = (
        "simulate", "--map", "ricker", "--r", "1.3", "--noise-var", "0.05",
        "--init-k", "2.0", "--init-theta", "0.3", "--t-max", "10",
        "--n-traj", "500", "--seed", "7",
    )

    def test_header_and_rows(self, capsys):
        code, out, err = run_cli(capsys, *self.BASE)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,mean,variance,se_mean,se_variance,extinct_fraction"
        assert len(lines) == 12  # header + t=0..10
        assert "extinct_fraction=" in err

    def test_byte_identical_same_seed(self, capsys):
        _, a, _ = run_cli(capsys, *self.BASE)
        _, b, _ = run_cli(capsys, *self.BASE)
        assert a == b

    def test_byte_identical_across_workers(self, capsys):
        _, a, _ = run_cli(capsys, *self.BASE, "--n-workers", "1")
        _, b, _ = run_cli(capsys, *self.BASE, "--n-workers", "4")
        assert a == b

    def test_byte_identical_across_workers_and_cores_over_chunks(self, capsys, monkeypatch):
        # 128-trajectory chunks: 500 trajectories span four streams, reduced
        # on as many threads as there are cores
        monkeypatch.setattr(simulate, "CHUNK", 128)
        outputs = set()
        for cores in (1, 2, 5):
            monkeypatch.setattr(simulate, "_cores", lambda: cores)
            for workers in ("1", "2"):
                code, out, _ = run_cli(capsys, *self.BASE, "--n-workers", workers)
                assert code == 0
                outputs.add(out)
        assert len(outputs) == 1

    def test_constant_rows_are_exact(self, capsys):
        # zero noise from a point mass: every trajectory is the same, so each
        # row's mean is the deterministic orbit itself and its spreads are 0
        code, out, _ = run_cli(
            capsys, "simulate", "--map", "logistic", "--r", "2.0", "--x0", "0.3",
            "--t-max", "5", "--n-traj", "100",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6 and rows[0]["mean"] == "0.3"
        x = 0.3
        for row in rows:
            assert float(row["mean"]) == x
            assert row["variance"] == row["se_mean"] == row["se_variance"] == "0.0"
            x = maps.step("logistic", 2.0, x)

    def test_seed_changes_output(self, capsys):
        _, a, _ = run_cli(capsys, *self.BASE)
        _, b, _ = run_cli(capsys, *self.BASE[:-1], "8")
        assert a != b

    @pytest.mark.parametrize("x0", ["nan", "1.5"])
    def test_start_outside_domain_is_3(self, capsys, x0):
        code, out, err = run_cli(capsys, "simulate", "--map", "logistic", "--r", "3.5", "--x0", x0,
                                 "--t-max", "3", "--n-traj", "10")
        assert code == 3 and out == ""
        assert err == ("numerical failure: the logistic ensemble at variance level 0.0 kept 0 "
                       "of 10 trajectories in [0, 1] over 3 steps; a mean needs 2\n")

    def test_subnormal_noise_variance_is_no_noise(self, capsys):
        # 1/v overflows below about 5.6e-309; it used to give infinite noise and exit 3
        argv = ("simulate", "--map", "ricker", "--r", "1.5", "--x0", "0.7", "--t-max", "3",
                "--n-traj", "10", "--noise-var")
        assert run_cli(capsys, *argv, "1e-320") == run_cli(capsys, *argv, "0")

    def test_small_k_branch_loses_nothing_to_underflow(self, capsys):
        # the k = 0.2, v = 0.05 plus branch dips below the smallest double,
        # which a direct step rounded to 0: 6969 of these 10^4 "went extinct"
        code, _, err = run_cli(
            capsys, "simulate", "--map", "ricker", "--r", "8.852673963697553", "--noise-var", "0.05",
            "--init-k", "0.2", "--init-theta", "180.5275178451948", "--t-max", "50",
            "--n-traj", "10000", "--seed", "1",
        )
        assert (code, err) == (0, "extinct_fraction=0.0 n_traj=10000\n")

    @pytest.mark.parametrize("extra", [("--x0", "0", "--noise-var", "0.01"), ("--x0", "0.7", "--noise-var", "1e308")])
    def test_ricker_zero_is_kept_as_the_extinct_fixed_point(self, capsys, extra):
        # a start of 0, or variates that are all 0, stay at 0; these exited 3
        code, out, err = run_cli(capsys, "simulate", "--map", "ricker", "--r", "1.5", "--t-max", "3",
                                 "--n-traj", "10", *extra)
        assert (code, err) == (0, "extinct_fraction=0.0 n_traj=10\n")
        assert out.splitlines()[-1] == "3,0.0,0.0,0.0,0.0,0.0"

    def test_logistic_underflow_to_zero_is_kept(self, capsys):
        # every trajectory underflows to 0 near t = 1070 and stays there; this exited 3
        code, out, err = run_cli(capsys, "simulate", "--map", "logistic", "--r", "0.5", "--x0", "0.3",
                                 "--noise-var", "0.01", "--t-max", "1100", "--n-traj", "1000", "--seed", "1")
        assert (code, err) == (0, "extinct_fraction=0.0 n_traj=1000\n")
        assert out.splitlines()[-1] == "1100,0.0,0.0,0.0,0.0,0.0"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_trajectory_exiting_is_3_and_named(self, capsys, fmt):
        # 0.7 -> 4.6e7 eps: every trajectory crosses the cap at step 1, so no
        # step has a mean; this printed rows of nan (null in JSON) and exited 0
        code, out, err = run_cli(
            capsys, "simulate", "--map", "ricker", "--r", "60", "--x0", "0.7",
            "--noise-var", "0.01", "--t-max", "3", "--n-traj", "10", "--format", fmt,
        )
        assert code == 3 and out == ""
        assert err == ("numerical failure: the ricker ensemble at variance level 0.01 kept 0 "
                       "of 10 trajectories in [0, 1e+06] over 3 steps; a mean needs 2\n")


class TestStationarity:
    def test_pass_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "stationarity", "--map", "logistic", "--k", "2.0", "--var-eps", "0.1",
            "--branch", "plus", "--n-traj", "100000", "--seed", "42",
        )
        assert code == 0
        assert out.startswith("PASS")
        assert "mean_z=" in out and "var_z=" in out

    def test_minus_branch_just_above_the_trivial_root(self, capsys):
        # r = 1 + 1e-11 has theta 5e-12; it was marked degenerate and refused (exit 1)
        code, out, err = run_cli(capsys, "stationarity", "--map", "logistic", "--k", "1",
                                 "--var-eps", "1e-11", "--branch", "minus", "--n-traj", "200000")
        assert code == 0 and err == "" and out.startswith("PASS")

    def test_subnormal_noise_variance_is_no_noise(self, capsys):
        # it used to print FAIL mean_z=nan var_z=nan
        argv = ("stationarity", "--map", "logistic", "--k", "2", "--n-traj", "1000", "--var-eps")
        code, out, err = run_cli(capsys, *argv, "1e-320")
        assert (code, out, err) == run_cli(capsys, *argv, "0")
        assert code == 0 and out.startswith("PASS") and err == ""

    @pytest.mark.parametrize("k,v,mean,k_theta", [
        # every Gamma(1e300, theta) start is the same float
        ("1e300", "0", "0.6666666666666667", "0.6666666666666666"),
        # every Gamma(1e-300, theta) start underflows to 0
        ("1e-300", "0.3", "0.0", "3.413397433959997e-301"),
    ])
    def test_sample_without_spread_is_3_and_named(self, capsys, k, v, mean, k_theta):
        # it used to print FAIL with an infinite z and exit 0
        code, out, err = run_cli(capsys, "stationarity", "--map", "logistic", "--k", k,
                                 "--var-eps", v, "--n-traj", "1000")
        assert code == 3 and out == ""
        assert err == ("numerical failure: the one-step sample of n_traj=1000 has no spread, so "
                       f"the z-test is undefined: mean {mean}, k*theta {k_theta}\n")

    def test_plus_root_beyond_r_max_is_3_and_named(self, capsys):
        # solve --r-max 1000 finds r+ = 99.76; stationarity solves up to r_max = 10
        code, out, err = run_cli(capsys, "stationarity", "--map", "ricker", "--k", "0.01", "--var-eps", "0.5")
        assert (code, out) == (3, "")
        assert err == "numerical failure: the 'plus' root of the Ricker equilibrium lies beyond r_max=10.0\n"

    def test_trivial_minus_branch_is_usage(self, capsys):
        code, out, err = run_cli(capsys, "stationarity", "--map", "ricker", "--k", "1", "--var-eps", "0",
                                 "--branch", "minus")
        assert (code, out, err) == (1, "", "error: no 'minus' branch among ['plus']\n")

    @pytest.mark.parametrize("n_traj", ["0", "1"])
    def test_fewer_than_two_samples_is_usage(self, capsys, n_traj):
        code, out, err = run_cli(
            capsys, "stationarity", "--map", "logistic", "--k", "2.0", "--var-eps", "0.1",
            "--n-traj", n_traj,
        )
        assert code == 1 and out == ""
        assert "n_traj must be >= 2" in err


class TestBifurcate:
    def test_header_and_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "bifurcate", "--map", "logistic", "--r-min", "2.5", "--r-max", "4.0",
            "--steps", "4", "--samples", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,x_sample,lyapunov"
        assert len(lines) == 1 + 4 * 3

    def test_zero_samples_prints_the_header_alone(self, capsys):
        code, out, err = run_cli(
            capsys, "bifurcate", "--map", "logistic", "--r-min", "2.5", "--r-max", "4.0",
            "--steps", "3", "--samples", "0",
        )
        assert (code, out, err) == (0, "r,x_sample,lyapunov\n", "")

    @pytest.mark.parametrize("flag,value,least", [("--samples", "-1", 0), ("--steps", "1", 2)])
    def test_count_below_its_bound_is_usage(self, capsys, flag, value, least):
        # the error names the flag, not the library's samples_per_r or n_r
        code, out, err = run_cli(
            capsys, "bifurcate", "--map", "logistic", "--r-min", "2.5", "--r-max", "4.0", flag, value,
        )
        assert (code, out, err) == (1, "", f"error: {flag[2:]} must be >= {least}, got {value}\n")


class TestOutputText:
    """The tabular text, computed here from the library's records: ``repr`` of
    every CSV cell, ``json.dumps`` of every JSON row."""

    BIFURCATE = [("logistic", "2.5", "4.0"), ("ricker", "1.0", "20.0")]

    @staticmethod
    def records(kind, r_min, r_max):
        return bifurcation_scan(kind, float(r_min), float(r_max), 30, samples_per_r=9)

    @staticmethod
    def bifurcate(capsys, kind, r_min, r_max, *extra):
        return run_cli(
            capsys, "bifurcate", "--map", kind, "--r-min", r_min, "--r-max", r_max,
            "--steps", "30", "--samples", "9", *extra,
        )

    @pytest.mark.parametrize("kind,r_min,r_max", BIFURCATE)
    def test_bifurcate_csv(self, capsys, kind, r_min, r_max):
        want = "r,x_sample,lyapunov\n" + "".join(
            f"{rec.r!r},{float(x)!r},{rec.lyapunov!r}\n"
            for rec in self.records(kind, r_min, r_max) for x in rec.samples
        )
        assert self.bifurcate(capsys, kind, r_min, r_max) == (0, want, "")

    @pytest.mark.parametrize("kind,r_min,r_max", BIFURCATE)
    def test_bifurcate_json(self, capsys, kind, r_min, r_max):
        def cell(v):
            return v if math.isfinite(v) else None

        want = "".join(
            json.dumps({"r": rec.r, "x_sample": cell(float(x)), "lyapunov": cell(rec.lyapunov)})
            + "\n"
            for rec in self.records(kind, r_min, r_max) for x in rec.samples
        )
        assert self.bifurcate(capsys, kind, r_min, r_max, "--format", "json") == (0, want, "")

    def test_equal_values_in_a_column_keep_their_own_text(self, capsys):
        # -0.0 == 0.0, True == 1 and NaN != NaN: a column that repeats, or
        # only seems to repeat, the cell above it must still print each cell
        neg, pos, nan = -0.0, 0.0, float("nan")
        rows = [[neg, 1], [pos, True], [pos, 1], [neg, False], [nan, 0], [nan, 0],
                [float("nan"), "x"], [neg, "x"]]
        cli._emit(["a", "b"], rows, "csv", None)
        assert capsys.readouterr().out == (
            "a,b\n-0.0,1\n0.0,true\n0.0,1\n-0.0,false\nnan,0\nnan,0\nnan,x\n-0.0,x\n"
        )
        cli._emit(["a", "b"], rows, "json", None)
        assert capsys.readouterr().out == (
            '{"a": -0.0, "b": 1}\n{"a": 0.0, "b": true}\n{"a": 0.0, "b": 1}\n'
            '{"a": -0.0, "b": false}\n{"a": null, "b": 0}\n{"a": null, "b": 0}\n'
            '{"a": null, "b": "x"}\n{"a": -0.0, "b": "x"}\n'
        )

    @pytest.mark.parametrize("argv,column", [
        # an infeasible scan row has no r or theta; it used to print NaN
        (("scan", "--map", "logistic", "--k", "2", "--var-eps-max", "0.5", "--steps", "2"), "r"),
        # a superstable grid point has lyapunov -inf; it used to print -Infinity
        (("bifurcate", "--map", "logistic", "--r-min", "2", "--r-max", "4", "--steps", "3",
          "--samples", "1"), "lyapunov"),
        # escaped Ricker grid points have NaN samples and exponents
        (("bifurcate", "--map", "ricker", "--r-min", "1", "--r-max", "40", "--steps", "3",
          "--samples", "2"), "x_sample"),
    ], ids=["scan", "bifurcate_logistic", "bifurcate_ricker"])
    def test_json_is_strict(self, capsys, argv, column):
        def no_constant(name):
            raise AssertionError(f"{name} is not JSON")

        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        rows = [json.loads(line, parse_constant=no_constant) for line in out.splitlines()]
        assert any(row[column] is None for row in rows)
        csv_out = run_cli(capsys, *argv)[1]
        assert any(cell in ("nan", "-inf") for line in csv_out.splitlines()[1:]
                   for cell in line.split(","))


class TestRepeatedCalls:
    """Several main calls in one process each give what a fresh process gives."""

    SIM = ("simulate", "--map", "logistic", "--r", "2.8", "--noise-var", "0.01", "--x0", "0.3",
           "--t-max", "5", "--n-traj", "200", "--seed", "3")

    def test_json_to_a_file_then_csv_to_stdout(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        code, out, _ = run_cli(capsys, *self.SIM, "--format", "json", "--output", str(path))
        assert (code, out) == (0, "")
        assert path.read_text() == fresh(*self.SIM, "--format", "json")[1]
        assert run_cli(capsys, *self.SIM) == fresh(*self.SIM)

    def test_usage_error_then_valid_command(self, capsys):
        bad = ("solve", "--map", "logistic", "--k", "1", "--banana", "2")
        assert run_cli(capsys, *bad) == fresh(*bad)
        assert fresh(*bad)[0] == 1
        good = ("solve", "--map", "logistic", "--k", "2", "--var-eps", "0.1")
        assert run_cli(capsys, *good) == fresh(*good)

    def test_help_then_valid_command(self, capsys):
        assert run_cli(capsys, "--help") == fresh("--help")
        assert fresh("--help")[0] == 0
        assert run_cli(capsys, *self.SIM) == fresh(*self.SIM)

    def test_zero_workers_then_two(self, capsys):
        zero = (*self.SIM, "--n-workers", "0")
        assert run_cli(capsys, *zero) == fresh(*zero)
        assert fresh(*zero)[0] == 1
        two = (*self.SIM, "--n-workers", "2")
        assert run_cli(capsys, *two) == fresh(*two)

    def test_build_parser_returns_a_new_parser_each_call(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        build_parser, built = cli.build_parser, []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            main(["--help"])
            main(["solve", "--map", "nope"])
            main(["lyapunov", "--map", "logistic", "--r", "2.5", "--iters", "10"])
            main(["solve", "--map", "logistic", "--k", "2", "--var-eps", "0.1"])
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()
        assert built == [1]


class TestLyapunov:
    def test_value_printed(self, capsys):
        code, out, _ = run_cli(
            capsys, "lyapunov", "--map", "logistic", "--r", "4.0", "--iters", "20000"
        )
        assert code == 0
        lam = float(out.split("=")[1])
        assert lam == pytest.approx(math.log(2.0), abs=5e-3)

    def test_divergence_is_3(self, capsys):
        code, _, err = run_cli(capsys, "lyapunov", "--map", "logistic", "--r", "4.5")
        assert code == 3

    @pytest.mark.parametrize("r", ["nan", "inf", "-1", "0"])
    def test_bad_growth_rate_is_usage(self, capsys, r):
        code, out, err = run_cli(capsys, "lyapunov", "--map", "logistic", "--r", r)
        assert code == 1 and out == ""
        assert "growth rate" in err

    def test_negative_burn_in_is_usage(self, capsys):
        code, out, err = run_cli(capsys, "lyapunov", "--map", "logistic", "--r", "4", "--burn-in", "-3")
        assert (code, out, err) == (1, "", "error: burn_in must be >= 0, got -3\n")

    def test_x0_is_usage(self, capsys):
        # the estimate always starts its orbits from the map's default start
        code, out, err = run_cli(capsys, "lyapunov", "--map", "logistic", "--r", "3.5", "--x0", "0.3")
        assert code == 1 and out == ""
        assert err.endswith("error: unrecognized arguments: --x0 0.3\n")

    def test_ricker_overflow_is_3_and_named(self, capsys):
        # y = ln 0.7 + 3000 (1 - 0.7) passes ln(DBL_MAX) in one step, beyond the cap
        code, out, err = run_cli(capsys, "lyapunov", "--map", "ricker", "--r", "3000")
        assert code == 3 and out == ""
        assert err == "numerical failure: ricker orbit from x0=0.7 escaped [0, 1e+06] at step 1, x=inf\n"


class TestTransition:
    def test_ricker_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "transition", "--map", "ricker", "--k", "1.0", "--var-eps", "0.0"
        )
        assert code == 0
        assert out.splitlines()[0] == "TRANSITION"
        assert "regime=chaotic" in out

    def test_logistic_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "transition", "--map", "logistic", "--k", "1.0", "--var-eps", "0.05"
        )
        assert code == 0
        assert out.splitlines()[0] == "NO TRANSITION"
        assert "branch=plus" in out and "branch=minus" in out

    # the benchmark's eleven transition inputs: (argv tail, verdict, and per
    # branch its regime, period and, on a chaotic branch, the exact exponent,
    # standard error and steps per orbit printed by the ensemble estimate)
    GOLDEN = [
        (("ricker", "0.2", "0"), "TRANSITION", [("plus", "chaotic", None, (
            "0.050720602958540015", "0.0026684420505065825", "200"))]),
        (("ricker", "0.5", "0"), "TRANSITION", [("plus", "chaotic", None, (
            "0.4631805017568795", "0.0024323976826759455", "200"))]),
        (("ricker", "1", "0"), "TRANSITION", [("plus", "chaotic", None, (
            "0.47163600403285943", "0.0025681610526748855", "200"))]),
        (("ricker", "2", "0"), "TRANSITION", [("plus", "chaotic", None, (
            "0.35521147851228896", "0.0016813139235045292", "200"))]),
        (("ricker", "5", "0"), "NO TRANSITION", [("plus", "periodic", "2", None)]),
        (("ricker", "10", "0"), "NO TRANSITION", [("plus", "periodic", "2", None)]),
        (("ricker", "100", "0"), "NO TRANSITION", [("plus", "periodic", "2", None)]),
        (("ricker", "1", "0.05"), "TRANSITION", [
            ("plus", "chaotic", None, ("0.5176200284125154", "0.0021346165937699184", "200")),
            ("minus", "stable_fixed", "1", None),
        ]),
        (("logistic", "0.5", "0.05"), "NO TRANSITION",
         [("plus", "stable_fixed", "1", None), ("minus", "stable_fixed", "1", None)]),
        (("logistic", "2.0", "0.05"), "NO TRANSITION",
         [("plus", "stable_fixed", "1", None), ("minus", "stable_fixed", "1", None)]),
        (("logistic", "10.0", "0.041666666666666664"), "NO TRANSITION",
         [("plus", "stable_fixed", "1", None), ("minus", "stable_fixed", "1", None)]),
    ]

    @pytest.mark.parametrize("args,verdict,branches", GOLDEN)
    def test_golden_verdicts(self, capsys, args, verdict, branches):
        kind, k, v = args
        code, out, _ = run_cli(capsys, "transition", "--map", kind, "--k", k, "--var-eps", v)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == verdict
        rows = [dict(part.split("=", 1) for part in line.split()) for line in lines[1:]]
        assert len(rows) == len(branches)
        for row, (label, regime, period, estimate) in zip(rows, branches):
            assert (row["branch"], row["regime"], row.get("period")) == (label, regime, period)
            if estimate is not None:
                assert (row["lyapunov"], row["se"], row["iters"]) == estimate
            else:
                # a cycle's multiplier is exact: no standard error
                assert "se" not in row and "iters" not in row
            if regime == "stable_fixed":
                # the exact fixed-point multiplier: f'(x*) = 2 - r logistic, 1 - r Ricker
                r = float(row["r"])
                want = math.log(abs(2.0 - r)) if kind == "logistic" else math.log(abs(1.0 - r))
                assert float(row["lyapunov"]) == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_root_beyond_rmax_note(self, capsys):
        # r+ = 99.76 lies past r_max = 10: the note follows the one branch line, as in solve
        code, out, err = run_cli(capsys, "transition", "--map", "ricker", "--k", "0.01", "--var-eps", "0.5")
        assert (code, err) == (0, "")
        note = "note: the plus root lies beyond r_max=10.0"
        assert out.splitlines()[0] == "NO TRANSITION"
        assert out.splitlines()[1].startswith("branch=minus r=0.2575235816063039 regime=stable_fixed")
        assert out.splitlines()[2:] == [note]
        code, solved, _ = run_cli(capsys, "solve", "--map", "ricker", "--k", "0.01", "--var-eps", "0.5")
        assert code == 0 and solved.splitlines()[-1] == note

    def test_period_80_branch(self, capsys):
        # the k = 2.6 root settles on a cycle of period 80
        code, out, _ = run_cli(capsys, "transition", "--map", "ricker", "--k", "2.6", "--var-eps", "0")
        assert code == 0
        assert out == ("NO TRANSITION\nbranch=plus r=2.697280516561611 regime=periodic "
                       "lyapunov=-0.03420012635518399 period=80\n")


class TestConverge:
    def test_ladder_echoed(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--map", "logistic", "--r", "2.0",
            "--ladder", "1e-2,1e-3", "--t-max", "5", "--n-traj", "500",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "var,max_deviation"
        assert len(lines) == 3

    def test_ricker_overflow_is_3_and_named(self, capsys):
        # the first step from 0.7 needs e^900; at r = 750 the orbit escapes first
        code, out, err = run_cli(
            capsys, "converge", "--map", "ricker", "--r", "3000", "--ladder", "1e-2",
            "--n-traj", "10", "--t-max", "3",
        )
        assert code == 3 and out == ""
        assert err == "numerical failure: ricker orbit from x0=0.7 escaped [0, 1e+06] at step 1, x=inf\n"

    @pytest.mark.parametrize("r,x", [("700", "1.1141386482645677e+91"),
                                     ("750", "3.642138596519466e+97")], ids=["r700", "r750"])
    def test_ricker_escape_is_3_and_named(self, capsys, r, x):
        # it used to print 0.01,nan at r = 700 and exit 0
        code, out, err = run_cli(
            capsys, "converge", "--map", "ricker", "--r", r, "--ladder", "1e-2",
            "--n-traj", "10", "--t-max", "3",
        )
        assert code == 3 and out == ""
        assert err == f"numerical failure: ricker orbit from x0=0.7 escaped [0, 1e+06] at step 1, x={x}\n"

    def test_subnormal_level_is_exact(self, capsys):
        # its gamma start used to fail with "shape k must be finite"
        argv = ("converge", "--map", "ricker", "--r", "1.5", "--t-max", "3", "--n-traj", "100", "--ladder")
        code, out, err = run_cli(capsys, *argv, "1e-2,1e-320")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *argv, "1e-2,0")[1].replace("\n0.0,", "\n1e-320,")
        assert out.endswith("\n1e-320,0.0\n")

    def test_every_trajectory_exiting_is_3_and_named(self, capsys):
        # the orbit 0.7 -> 1.1e5 -> 0 stays in the domain, but at this seed
        # every trajectory crosses the cap, so the level has no mean
        code, out, err = run_cli(
            capsys, "converge", "--map", "ricker", "--r", "40", "--ladder", "2",
            "--n-traj", "10", "--t-max", "3",
        )
        assert code == 3 and out == ""
        assert err == ("numerical failure: the ricker ensemble at variance level 2.0 kept 0 "
                       "of 10 trajectories in [0, 1e+06] over 3 steps; a mean needs 2\n")

    @pytest.mark.parametrize("r", ["nan", "inf", "-1", "0"])
    def test_bad_growth_rate_is_usage(self, capsys, r):
        # r is checked before the deterministic orbit can read it as an escape
        code, out, err = run_cli(
            capsys, "converge", "--map", "ricker", "--r", r, "--ladder", "1e-2",
            "--n-traj", "10", "--t-max", "3",
        )
        assert code == 1 and out == ""
        assert "growth rate" in err

    @pytest.mark.parametrize("ladder,t_max", [("1e-2", "-3"), ("0", "-1"), ("0", "0"), ("1e-2,0", "0")])
    def test_t_max_below_one_is_usage(self, capsys, ladder, t_max):
        # -3 used to print numpy's "negative dimensions are not allowed", and
        # the noiseless ladder 0 to print 0.0,0.0 and exit 0
        code, out, err = run_cli(
            capsys, "converge", "--map", "logistic", "--r", "2.0", "--ladder", ladder,
            "--t-max", t_max, "--n-traj", "100",
        )
        assert (code, out, err) == (1, "", f"error: t_max must be >= 1, got {t_max}\n")

    @pytest.mark.parametrize("ladder", ["0", "1e-2"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--n-traj", "1", "n_traj must be >= 2, got 1"),
        ("--seed", "-1", "seed must be >= 0 and < 2**64, got -1"),
    ])
    def test_ensemble_argument_is_usage_whatever_the_ladder(self, capsys, ladder, flag, value, message):
        # the noiseless ladder 0 used to print 0.0,0.0 and exit 0
        code, out, err = run_cli(
            capsys, "converge", "--map", "logistic", "--r", "2.0", "--ladder", ladder, "--t-max", "5",
            "--n-traj", "100", flag, value,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_empty_ladder_is_usage(self, capsys):
        # it used to print only the header and exit 0
        code, out, err = run_cli(capsys, "converge", "--map", "logistic", "--r", "2", "--ladder", ",")
        assert (code, out) == (1, "")
        assert err.endswith("error: argument --ladder: expected comma-separated floats, got ','\n")

    def test_bad_ladder_is_usage(self, capsys):
        code, _, _ = run_cli(
            capsys, "converge", "--map", "logistic", "--r", "2.0",
            "--ladder", "1e-3,1e-2", "--t-max", "5", "--n-traj", "500",
        )
        assert code == 1


class TestSeeds:
    # each command draws from PCG64DXSM streams keyed by (seed, block) through
    # SeedSequence spawn keys; the seed domain is [0, 2**64)
    COMMANDS = {
        "simulate": ("simulate", "--map", "ricker", "--r", "1.5", "--x0", "0.7", "--noise-var", "0.1",
                     "--t-max", "2", "--n-traj", "10"),
        "stationarity": ("stationarity", "--map", "logistic", "--k", "2", "--var-eps", "0.1",
                         "--n-traj", "1000"),
        "converge": ("converge", "--map", "logistic", "--r", "2.0", "--ladder", "1e-2", "--t-max", "3",
                     "--n-traj", "100"),
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_largest_seed_runs(self, capsys, command):
        code, out, _ = run_cli(capsys, *self.COMMANDS[command], "--seed", str(2**64 - 1))
        assert code == 0 and out

    @pytest.mark.parametrize("seed", [2**64, -1])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_seed_outside_64_bits_is_usage(self, capsys, command, seed):
        # 2**64 used to exit 1 with numpy's "key must be positive and less than 2**128."
        code, out, err = run_cli(capsys, *self.COMMANDS[command], "--seed", str(seed))
        assert (code, out, err) == (1, "", f"error: seed must be >= 0 and < 2**64, got {seed}\n")

    # Golden Monte Carlo outputs at fixed seeds: a change of generator or of
    # its keying moves these pins, and must say so
    def test_golden_stationarity_line(self, capsys):
        # 10^5 samples span two chunks, so two streams, whose partial
        # moments merge
        code, out, _ = run_cli(capsys, "stationarity", "--map", "ricker", "--k", "1", "--var-eps", "0.05",
                               "--n-traj", "100000", "--seed", "42")
        assert (code, out) == (0, (
            "PASS mean_z=-0.16901273792645652 var_z=-1.2137633839400477 mean=1.3674195248011016 "
            "target_mean=1.3681491214257893 variance=1.8634886759350882 "
            "target_variance=1.871832018458159\n"))

    def test_golden_stationarity_line_of_one_chunk(self, capsys):
        # a sample of at most CHUNK draws from stream 0 alone, starts then
        # noise, as the single-stream sampler did: these are its digits
        assert simulate.CHUNK == 65536
        code, out, _ = run_cli(capsys, "stationarity", "--map", "ricker", "--k", "1", "--var-eps", "0.05",
                               "--n-traj", "65536", "--seed", "42")
        assert (code, out) == (0, (
            "PASS mean_z=0.3305134092644828 var_z=-0.29757845518267023 mean=1.3699143023283058 "
            "target_mean=1.3681491214257893 variance=1.8693051525772104 "
            "target_variance=1.871832018458159\n"))

    def test_golden_simulate_csv(self, capsys):
        # 3000 trajectories are one chunk: one stream, starts then one noise
        # variate per trajectory at each step, stepped in ln x by maps.orbit_step
        code, out, _ = run_cli(capsys, "simulate", "--map", "ricker", "--r", "1.3", "--noise-var", "0.05",
                               "--init-k", "2", "--init-theta", "0.3", "--t-max", "20",
                               "--n-traj", "3000", "--seed", "7")
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == "5304d6a7c06d4b78452f79c7de61e95d"


class TestSelfCheck:
    def test_runs_clean(self, capsys):
        code, out, _ = run_cli(capsys, "self-check")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 4


def readme_examples():
    """(argv, trailing comment) of each command in the README's ```sh block
    of CLI examples, the one that holds ``steadychaos solve``; a backslash
    continues a command on the next line."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    (block,) = [b for b in blocks if "steadychaos solve" in b]
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            examples.append((shlex.split(command), comment.strip()))
    return examples


EXAMPLES = readme_examples()


class TestReadmeExamples:
    def test_block_holds_every_example(self):
        assert len(EXAMPLES) == 11
        assert all(argv[0] == "steadychaos" for argv, _ in EXAMPLES)
        assert [comment for _, comment in EXAMPLES].count("prints TRANSITION") == 1

    @pytest.mark.parametrize("argv,comment", EXAMPLES, ids=[f"{i}-{argv[1]}" for i, (argv, _) in enumerate(EXAMPLES)])
    def test_example_runs(self, capsys, argv, comment):
        code, out, err = run_cli(capsys, *argv[1:])
        assert code == 0, err
        if comment == "prints TRANSITION":
            assert out.startswith("TRANSITION")
