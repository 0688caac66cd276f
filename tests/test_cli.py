import json
import math

import pytest

from steadychaos import logistic_solve, ricker_solve
from steadychaos.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_success_is_0(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--map", "logistic", "--k", "2.0", "--var-eps", "0.1")
        assert code == 0


class TestSolve:
    def test_logistic_branches_printed(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--map", "logistic", "--k", "2.0", "--var-eps", "0.1")
        sol = logistic_solve(2.0, 0.1)
        assert f"r={sol.branches[0].r!r}" in out
        assert "branch=plus" in out and "branch=minus" in out

    def test_degenerate_marked(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--map", "logistic", "--k", "1.0", "--var-eps", "0.0")
        assert "degenerate" in out

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


class TestRickerCurve:
    def test_monotone_decreasing(self, capsys):
        _, out, _ = run_cli(capsys, "ricker-curve", "--k-min", "0.5", "--k-max", "10", "--steps", "5")
        lines = out.strip().splitlines()
        assert lines[0] == "k,r"
        rs = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(rs, rs[1:]))
        assert all(r > 2.0 for r in rs)


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

    def test_seed_changes_output(self, capsys):
        _, a, _ = run_cli(capsys, *self.BASE)
        _, b, _ = run_cli(capsys, *self.BASE[:-1], "8")
        assert a != b


class TestStationarity:
    def test_pass_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "stationarity", "--map", "logistic", "--k", "2.0", "--var-eps", "0.1",
            "--branch", "plus", "--n-traj", "100000", "--seed", "42",
        )
        assert code == 0
        assert out.startswith("PASS")
        assert "mean_z=" in out and "var_z=" in out


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

    def test_bad_ladder_is_usage(self, capsys):
        code, _, _ = run_cli(
            capsys, "converge", "--map", "logistic", "--r", "2.0",
            "--ladder", "1e-3,1e-2", "--t-max", "5", "--n-traj", "500",
        )
        assert code == 1


class TestSelfCheck:
    def test_runs_clean(self, capsys):
        code, out, _ = run_cli(capsys, "self-check")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 4
