"""The three benchmark workloads and the oracles that check their outputs.

Every oracle here is written out in this file from the closed forms in
PAPER.md and README.md; none calls the steadychaos function it checks.

An operation is one closed-loop command: a ``steadychaos.cli.main`` argv,
or a public library call where the CLI has no flag for the case.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

# The k list and var_eps range of scripts/reproduce_figures.py. The real
# figure uses 101 grid steps; 6 steps keep the grid a subset of that one
# (var_eps = 0, 0.1, ..., 0.5), so the share of points without a root stays
# close to the real figure's while one pass takes about 10 s on 2 vCPUs
# instead of about 120 s.
FIG_K = (0.01, 1.0, 10.0, 100.0)
FIG_STEPS = 6
FIG_REAL_STEPS = 101
FIG_VAR_MAX = 0.5

# A Ricker root residual is scored relative to 2 e^{r/(k+1)}.
RICKER_REL_RESIDUAL = 1e-10

STATIONARITY_N = 1_000_000
# Ensemble sizes are cut from the README's 10^4 (simulate) and the CLI's
# 2*10^4 (converge) so that one ensemble pass takes about 3 s and a 30 s run
# holds about eight passes, enough samples of each command. At 10^4
# the converge deviations still fall by a factor of 3.7 or more per ladder
# step (seeds 1-15), so the decrease check keeps its margin.
SIM_N_TRAJ = 2_000
SIM_T_MAX = 50
CONVERGE_N_TRAJ = 10_000
CONVERGE_T_MAX = 20
LADDER = (1e-2, 1e-3, 1e-4)


@dataclass
class Result:
    """What one operation returned; ``value`` is set for library calls."""

    code: Optional[int]
    stdout: str = ""
    stderr: str = ""
    warnings: list = field(default_factory=list)
    value: Any = None
    error: Optional[str] = None  # an exception that escaped the call
    start_s: float = 0.0  # perf_counter() when the call began
    latency_s: float = 0.0  # without the time of probes taken during the call
    scaled_s: float = 0.0  # latency_s at the nominal host speed (probe.py)


@dataclass
class Op:
    name: str
    argv: Optional[list] = None
    call: Optional[Callable[[Any], Any]] = None  # takes the steadychaos package
    expect_exit: int = 0
    # check(result, earlier results of this pass by op name) -> problems
    check: Optional[Callable[[Result, dict], list]] = None
    work: float = 1.0
    # Edge ops are scored against the README contract through ``failed``
    # only; every other op must also pass for the run to be ``correct``.
    edge: bool = False
    # ops timed at --n-workers 1 and 2; speedup_2w is their ratio
    workers: Optional[int] = None


@dataclass
class Workload:
    name: str
    ops: list
    work_unit: str


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def logistic_bound(k: float) -> float:
    return min(1.0 / (k + 2.0), 0.5)


def logistic_roots(k: float, v: float) -> tuple[float, float]:
    half = (k + 1.0) * math.sqrt(max((1.0 - v * (k + 2.0)) / (v + 1.0), 0.0))
    return ((2.0 * k + 4.0 + half) / (k + 3.0), (2.0 * k + 4.0 - half) / (k + 3.0))


def ricker_rel_residual(r: float, k: float, v: float) -> float:
    """(2e^{r/(k+1)} - ((1+v)e^{2r})^{1/(k+2)} - 1) / (2e^{r/(k+1)}), in log space."""
    a = r / (k + 1.0)
    b = (math.log1p(v) + 2.0 * r) / (k + 2.0)
    return 1.0 - 0.5 * math.exp(b - a) - 0.5 * math.exp(-a)


def ricker_vmax(k: float) -> float:
    """Closed-form feasibility bound for r_max = infinity (ROADMAP item 1)."""
    p = 2.0 * (k + 1.0) / (k + 2.0)
    return ((2.0 / p) * (2.0 * (p - 1.0) / p) ** (p - 1.0)) ** (k + 2.0) - 1.0


def ricker_tangency_r(k: float) -> float:
    """Growth rate where the two Ricker roots meet at v = v_max(k)."""
    p = 2.0 * (k + 1.0) / (k + 2.0)
    return (k + 1.0) * math.log(p / (2.0 * (p - 1.0)))


def no_root_share(steps: int) -> float:
    """Share of Ricker fig-3 grid points with no root, from the closed-form bound."""
    grid = np.linspace(0.0, FIG_VAR_MAX, steps)
    missing = sum(float(v) > ricker_vmax(k) for k in FIG_K for v in grid)
    return missing / (len(FIG_K) * steps)


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Output parsers
# ---------------------------------------------------------------------------

def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _key_values(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def _branch_lines(stdout: str) -> list[dict]:
    return [_key_values(line) for line in stdout.splitlines() if line.startswith("branch=")]


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def _check_prefix(rows: list[dict], problems: list) -> None:
    by_k: dict[float, list] = {}
    for row in rows:
        by_k.setdefault(float(row["k"]), []).append((float(row["var_eps"]), row["feasible"] == "true"))
    for k, pts in by_k.items():
        flags = [feasible for _, feasible in sorted(pts)]
        if any(later and not earlier for earlier, later in zip(flags, flags[1:])):
            problems.append(f"k={k}: feasible rows are not a prefix in var_eps")


def _check_grid(rows: list[dict], problems: list) -> None:
    want = {(k, float(v)) for k in FIG_K for v in np.linspace(0.0, FIG_VAR_MAX, FIG_STEPS)}
    got = {(float(row["k"]), float(row["var_eps"])) for row in rows}
    if got != want:
        problems.append(f"grid has {len(got)} (k, var_eps) points, expected {len(want)}")


def check_logistic_scan(res: Result, _prior: dict) -> list:
    problems: list = []
    rows = _csv_rows(res.stdout)
    _check_grid(rows, problems)
    _check_prefix(rows, problems)
    for row in rows:
        k, v = float(row["k"]), float(row["var_eps"])
        feasible = row["feasible"] == "true"
        if feasible != (v <= logistic_bound(k)):
            problems.append(f"k={k} v={v}: feasible={feasible} against bound {logistic_bound(k)}")
            continue
        if not feasible:
            continue
        r = float(row["r"])
        plus, minus = logistic_roots(k, v)
        want = plus if row["branch"] == "plus" else minus
        if not abs(r - want) <= 1e-12:
            problems.append(f"k={k} v={v} {row['branch']}: r={r!r}, closed form {want!r}")
        if not 1.0 <= r < 3.0:
            problems.append(f"k={k} v={v}: logistic r={r!r} outside [1, 3)")
    return problems


def _check_ricker_row(k: float, v: float, r: float, problems: list) -> None:
    rel = ricker_rel_residual(r, k, v)
    if not abs(rel) <= RICKER_REL_RESIDUAL:
        problems.append(f"ricker k={k} v={v} r={r!r}: relative residual {rel:.3e}")


def check_ricker_curve(res: Result, _prior: dict) -> list:
    problems: list = []
    rows = _csv_rows(res.stdout)
    if len(rows) != FIG_STEPS:
        problems.append(f"{len(rows)} curve rows, expected {FIG_STEPS}")
    rs = []
    for row in rows:
        k, r = float(row["k"]), float(row["r"])
        _check_ricker_row(k, 0.0, r, problems)
        if not r > 2.0:
            problems.append(f"r(k={k})={r!r} is not above 2")
        rs.append(r)
    if any(not b < a for a, b in zip(rs, rs[1:])):
        problems.append("r(k) is not decreasing")
    return problems


def check_ricker_scan(res: Result, _prior: dict) -> list:
    problems: list = []
    rows = _csv_rows(res.stdout)
    _check_grid(rows, problems)
    _check_prefix(rows, problems)
    for row in rows:
        k, v = float(row["k"]), float(row["var_eps"])
        feasible = row["feasible"] == "true"
        vmax = ricker_vmax(k)
        if abs(v - vmax) > 1e-6 * vmax and feasible != (v < vmax):
            problems.append(f"ricker k={k} v={v}: feasible={feasible} against v_max {vmax!r}")
        if not feasible:
            continue
        r, theta = float(row["r"]), float(row["theta"])
        _check_ricker_row(k, v, r, problems)
        want = math.expm1(r / (k + 1.0)) / r
        if not _close(theta, want, 1e-12):
            problems.append(f"ricker k={k} v={v}: theta={theta!r}, expm1 form {want!r}")
    return problems


def figures() -> Workload:
    ks = ",".join(repr(k) for k in FIG_K)
    steps = str(FIG_STEPS)
    grid_points = len(FIG_K) * FIG_STEPS
    ops = [
        Op("fig1_logistic_scan",
           ["scan", "--map", "logistic", "--k", ks, "--var-eps-max", "0.5", "--steps", steps],
           check=check_logistic_scan, work=grid_points),
        Op("fig2_ricker_curve",
           ["ricker-curve", "--k-min", "0.5", "--k-max", "100", "--steps", steps, "--r-max", "20"],
           check=check_ricker_curve, work=FIG_STEPS),
        Op("fig3_ricker_scan",
           ["scan", "--map", "ricker", "--k", ks, "--var-eps-max", "0.5", "--steps", steps,
            "--r-max", "200"],
           check=check_ricker_scan, work=grid_points),
    ]
    return Workload("figures", ops, "grid and curve points solved")


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _fixed_point_lyapunov(kind: str, r: float) -> float:
    # logistic: x* = 1 - 1/r, f'(x*) = 2 - r; ricker: x* = 1, f'(x*) = 1 - r
    return math.log(abs(2.0 - r)) if kind == "logistic" else math.log(abs(1.0 - r))


def transition_check(kind: str, verdict: Optional[str]) -> Callable:
    def check(res: Result, _prior: dict) -> list:
        lines = res.stdout.splitlines()
        problems: list = []
        if not lines or lines[0] not in ("TRANSITION", "NO TRANSITION"):
            return [f"no verdict line in {res.stdout!r}"]
        branches = _branch_lines(res.stdout)
        chaotic = any(b.get("regime") == "chaotic" for b in branches)
        if (lines[0] == "TRANSITION") != chaotic:
            problems.append(f"verdict {lines[0]} disagrees with branch regimes")
        if kind == "logistic" and lines[0] == "TRANSITION":
            problems.append("logistic equilibrium reported TRANSITION")
        if verdict is not None and lines[0] != verdict:
            problems.append(f"verdict {lines[0]}, expected {verdict}")
        for b in branches:
            if b.get("regime") == "stable_fixed":
                want = _fixed_point_lyapunov(kind, float(b["r"]))
                if not abs(float(b["lyapunov"]) - want) <= 1e-6:
                    problems.append(f"stable branch r={b['r']}: lyapunov {b['lyapunov']}, want {want!r}")
        return problems
    return check


def lyapunov_check(kind: str, r: float) -> Callable:
    def check(res: Result, _prior: dict) -> list:
        lam = float(_key_values(res.stdout)["lyapunov"])
        if kind == "logistic" and r == 4.0:
            ok, want = abs(lam - math.log(2.0)) <= 1e-3, "ln 2 within 1e-3"
        elif r == 3.0:
            ok, want = lam > 0.0, "a positive exponent"
        else:
            ok, want = abs(lam - _fixed_point_lyapunov(kind, r)) <= 1e-8, "ln|f'(x*)|"
        return [] if ok else [f"lyapunov({kind}, {r}) = {lam!r}, expected {want}"]
    return check


def check_stationarity_pass(res: Result, _prior: dict) -> list:
    return [] if res.stdout.startswith("PASS ") else [f"stationarity: {res.stdout.strip()}"]


def check_negative_control(res: Result, _prior: dict) -> list:
    rep = res.value
    if rep.passed or not abs(rep.mean_z) > 4.0:
        return [f"perturbed-r control was not rejected: {rep!r}"]
    return []


def check_self_check(res: Result, _prior: dict) -> list:
    lines = res.stdout.splitlines()
    if len(lines) < 4 or not all(line.startswith("PASS ") for line in lines):
        return [f"self-check output: {res.stdout!r}"]
    return []


def check_bifurcate(res: Result, _prior: dict) -> list:
    rows = _csv_rows(res.stdout)
    problems: list = []
    if len(rows) != 200 * 100:
        problems.append(f"{len(rows)} bifurcation rows, expected 20000")
    first = [row for row in rows if float(row["r"]) == 2.5]
    last = [row for row in rows if float(row["r"]) == 4.0]
    if not first or not last:
        return problems + ["grid end points r=2.5 and r=4.0 missing"]
    if not all(abs(float(row["x_sample"]) - 0.6) <= 1e-9 for row in first):
        problems.append("r=2.5 samples are not the fixed point 0.6")
    if not abs(float(first[0]["lyapunov"]) - math.log(0.5)) <= 1e-8:
        problems.append(f"lyapunov at r=2.5 is {first[0]['lyapunov']}, want ln 0.5")
    if not float(last[0]["lyapunov"]) > 0.0:
        problems.append(f"lyapunov at r=4 is {last[0]['lyapunov']}, want > 0")
    if any(not 0.0 <= float(row["x_sample"]) <= 1.0 for row in rows):
        problems.append("logistic attractor sample outside [0, 1]")
    return problems


def solve_roots_check(k: float, v: float, near_bound: bool = False) -> Callable:
    """Two real roots exist; each must satisfy the benchmark's residual."""
    def check(res: Result, _prior: dict) -> list:
        problems: list = []
        branches = _branch_lines(res.stdout)
        rs = [float(b["r"]) for b in branches]
        if len(rs) != 2:
            problems.append(f"{len(rs)} roots printed, two exist")
        for r in rs:
            _check_ricker_row(k, v, r, problems)
        if len(rs) == 2 and near_bound:
            r_star = ricker_tangency_r(k)
            if not rs[1] < r_star < rs[0]:
                problems.append(f"roots {rs} do not straddle the tangency r*={r_star!r}")
        return problems
    return check


def verdicts(seed: int) -> Workload:
    s = str(seed)
    ops = []
    for k in ("0.2", "0.5", "1", "2", "5", "10", "100"):
        verdict = {"0.5": "TRANSITION", "100": "NO TRANSITION"}.get(k)
        ops.append(Op(f"transition_ricker_k{k}",
                      ["transition", "--map", "ricker", "--k", k, "--var-eps", "0"],
                      check=transition_check("ricker", verdict)))
    # the minus branch at r ~ 0.05 is a stable fixed point
    ops.append(Op("transition_ricker_k1_v0.05",
                  ["transition", "--map", "ricker", "--k", "1", "--var-eps", "0.05"],
                  check=transition_check("ricker", "TRANSITION")))
    for k in (0.5, 2.0, 10.0):
        v = min(0.05, 0.5 * logistic_bound(k))
        ops.append(Op(f"transition_logistic_k{k:g}",
                      ["transition", "--map", "logistic", "--k", repr(k), "--var-eps", repr(v)],
                      check=transition_check("logistic", "NO TRANSITION")))
    for kind, r in (("logistic", 4.0), ("logistic", 2.5), ("ricker", 3.0), ("ricker", 1.5)):
        ops.append(Op(f"lyapunov_{kind}_r{r:g}",
                      ["lyapunov", "--map", kind, "--r", repr(r)],
                      check=lyapunov_check(kind, r)))
    for kind, k, v in (("logistic", "2", "0.1"), ("ricker", "1", "0.05")):
        for branch in ("plus", "minus"):
            ops.append(Op(f"stationarity_{kind}_{branch}",
                          ["stationarity", "--map", kind, "--k", k, "--var-eps", v,
                           "--branch", branch, "--n-traj", str(STATIONARITY_N), "--seed", s],
                          check=check_stationarity_pass))
    # the CLI has no flag for a perturbed r, so the control is a library call
    ops.append(Op("stationarity_negative_control",
                  call=lambda sc: sc.simulate.stationarity_check(
                      "logistic", 2.0, 0.1, "plus", n_traj=STATIONARITY_N, seed=seed, r_offset=0.2),
                  check=check_negative_control))
    ops.append(Op("self_check", ["self-check"], check=check_self_check))
    ops.append(Op("bifurcate_logistic",
                  ["bifurcate", "--map", "logistic", "--r-min", "2.5", "--r-max", "4.0",
                   "--steps", "200"],
                  check=check_bifurcate))
    # Edge inputs, scored against README's exit codes: 0 success, 2 noise
    # variance beyond the bound, 3 no root in range. v_max(1) = 11/16 exactly.
    vmax1 = 11.0 / 16.0
    v_near = vmax1 * (1.0 - 1e-9)
    ops.append(Op("edge_near_bound",
                  ["solve", "--map", "ricker", "--k", "1", "--var-eps", repr(v_near)],
                  check=solve_roots_check(1.0, v_near, near_bound=True), edge=True))
    ops.append(Op("edge_above_bound",
                  ["solve", "--map", "ricker", "--k", "1", "--var-eps", "0.7"],
                  expect_exit=2, edge=True))
    ops.append(Op("edge_r_max_1500",
                  ["solve", "--map", "ricker", "--k", "1", "--var-eps", "0.05", "--r-max", "1500"],
                  check=solve_roots_check(1.0, 0.05), edge=True))
    # the v=0 root for k=0.1 lies beyond the default r_max = 10
    ops.append(Op("edge_root_beyond_r_max",
                  ["solve", "--map", "ricker", "--k", "0.1", "--var-eps", "0"],
                  expect_exit=3, edge=True))
    return Workload("verdicts", ops, "commands")


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

def check_same_as(twin: str) -> Callable:
    def check(res: Result, prior: dict) -> list:
        other = prior.get(twin)
        if other is None or other.stdout != res.stdout:
            return [f"stdout differs from {twin} (worker count changed the output)"]
        return []
    return check


def _sim_rows(res: Result) -> list[dict]:
    rows = _csv_rows(res.stdout)
    if len(rows) != SIM_T_MAX + 1:
        raise ValueError(f"{len(rows)} simulate rows, expected {SIM_T_MAX + 1}")
    return rows


def gamma_init_check(k: float, theta: float) -> Callable:
    # t = 0 holds the initial Gamma(k, theta) draws: mean k theta, variance
    # k theta^2, fourth central moment 3k(k+2)theta^4; six standard errors
    def check(res: Result, _prior: dict) -> list:
        row = _sim_rows(res)[0]
        n = SIM_N_TRAJ
        mean, var = k * theta, k * theta**2
        se_mean = math.sqrt(var / n)
        se_var = math.sqrt((3.0 * k * (k + 2.0) * theta**4 - var**2) / n)
        problems = []
        if not abs(float(row["mean"]) - mean) <= 6.0 * se_mean:
            problems.append(f"t=0 mean {row['mean']} is not Gamma mean {mean}")
        if not abs(float(row["variance"]) - var) <= 6.0 * se_var:
            problems.append(f"t=0 variance {row['variance']} is not Gamma variance {var}")
        return problems
    return check


def point_mass_check(x0: float) -> Callable:
    # the mean is a float sum over the surviving trajectories, so allow rounding
    def check(res: Result, _prior: dict) -> list:
        row = _sim_rows(res)[0]
        if not abs(float(row["mean"]) - x0) <= 1e-12 or float(row["variance"]) != 0.0:
            return [f"t=0 row {row} is not the point mass {x0}"]
        return []
    return check


def check_converge(res: Result, _prior: dict) -> list:
    rows = _csv_rows(res.stdout)
    levels = [float(row["var"]) for row in rows]
    devs = [float(row["max_deviation"]) for row in rows]
    if levels != list(LADDER):
        return [f"ladder echoed as {levels}"]
    if any(not b < a for a, b in zip(devs, devs[1:])):
        return [f"deviations {devs} do not decrease down the ladder"]
    return []


def ensemble(seed: int) -> Workload:
    s = str(seed)
    sims = [
        ("ricker", ["--r", "1.3", "--noise-var", "0.05", "--init-k", "2", "--init-theta", "0.3"],
         gamma_init_check(2.0, 0.3)),
        ("logistic", ["--r", "2.8", "--noise-var", "0.01", "--x0", "0.3"], point_mass_check(0.3)),
    ]
    ops = []
    for kind, extra, init_check in sims:
        base = ["simulate", "--map", kind, *extra, "--t-max", str(SIM_T_MAX),
                "--n-traj", str(SIM_N_TRAJ), "--seed", s]
        w1 = f"simulate_{kind}_w1"
        ops.append(Op(w1, base + ["--n-workers", "1"], check=init_check,
                      work=SIM_N_TRAJ * SIM_T_MAX, workers=1))
        ops.append(Op(f"simulate_{kind}_w2", base + ["--n-workers", "2"], check=check_same_as(w1),
                      work=SIM_N_TRAJ * SIM_T_MAX, workers=2))
    ladder = ",".join(f"{v:g}" for v in LADDER)
    for kind, r in (("logistic", "2.0"), ("ricker", "1.5")):
        ops.append(Op(f"converge_{kind}",
                      ["converge", "--map", kind, "--r", r, "--ladder", ladder,
                       "--t-max", str(CONVERGE_T_MAX), "--n-traj", str(CONVERGE_N_TRAJ),
                       "--seed", s],
                      check=check_converge, work=len(LADDER) * CONVERGE_N_TRAJ * CONVERGE_T_MAX))
    return Workload("ensemble", ops, "trajectory-steps")


def computed_bytes() -> dict:
    """Sizes of the largest float64 arrays the workloads make, computed, not measured."""
    return {
        # ensemble: n_traj x (t_max + 1) trajectory matrix of one simulate call
        "ensemble_matrix": max(SIM_N_TRAJ * (SIM_T_MAX + 1), CONVERGE_N_TRAJ * (CONVERGE_T_MAX + 1)) * 8,
        # verdicts: x0, eps and x1 of one 10^6-sample stationarity check
        "stationarity_arrays": 3 * STATIONARITY_N * 8,
        # verdicts: the Ricker residual grid at r_max = 1500, step 1e-3
        "ricker_grid_r_max_1500": 1_500_000 * 8,
    }


def build(name: str, seed: int) -> Workload:
    if name == "figures":
        return figures()
    if name == "verdicts":
        return verdicts(seed)
    return ensemble(seed)


NAMES = ("figures", "verdicts", "ensemble")
