"""Command-line front end emitting machine-readable scan, simulation, and
verdict data.

Exit codes: 0 success, 1 usage/parse error (including a growth rate r that
is not finite and > 0), 2 infeasible domain input (noise variance beyond the
equilibrium bound), 3 numerical failure (roots only beyond r_max, a Ricker
theta = e^(r/(k+1))/r beyond the float range, divergence, including a start
point outside the map's domain, a stationarity sample with no spread).

``main(argv)`` may be called repeatedly in one process, as
``scripts/reproduce_figures.py`` does: it builds its parser on the first call
and reuses it, and keeps no other state between calls, so each call gives
what a fresh process gives.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import repeat
from typing import Iterator, Optional, Sequence

import numpy as np

from . import chaos, equilibrium, maps, mean_dynamics, selfcheck, simulate
from .equilibrium import InfeasibleError, NoRootError, NoiseSpec
from .gamma_core import GammaParams

# Fixed default so bare invocations are reproducible.
DEFAULT_SEED = 20250823

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the exit-code contract reserves 2
    # for infeasible inputs
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(header: list[str], rows: list[Sequence], fmt: str, output: Optional[str]) -> None:
    if fmt == "csv":
        lines = [",".join(header), *(",".join(map(_fmt, row)) for row in rows)]
    else:
        # JSON (RFC 8259) has no NaN or infinity: a non-finite float is null
        lines = []
        for row in rows:
            cells = [None if isinstance(v, float) and not math.isfinite(v) else v for v in row]
            lines.append(json.dumps(dict(zip(header, cells)), allow_nan=False))
    _write(lines, output)


def _write(lines: list[str], output: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="") as fh:
            fh.write(text)


def _comma_floats(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        values = []
    if not values:  # an empty list would print only a header
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    sol = equilibrium.solve(args.map, args.k, args.var_eps, r_max=args.r_max)
    print(f"map={sol.map} k={_fmt(sol.k)} var_eps={_fmt(sol.var_eps)} bound_var={_fmt(sol.bound_var)}")
    for b in sol.branches:
        print(
            f"branch={b.label} r={_fmt(b.r)} theta={_fmt(b.theta)}"
            + (" degenerate" if b.degenerate else "")
        )
    _note_roots_beyond(sol, args.r_max)
    return EXIT_OK


def _note_roots_beyond(sol: equilibrium.EquilibriumSolution, r_max: float) -> None:
    if sol.roots_beyond_rmax:
        print(f"note: the plus root lies beyond r_max={_fmt(r_max)}")


def cmd_scan(args) -> int:
    maps.check_count("steps", args.steps, 1)
    header = ["k", "var_eps", "branch", "r", "theta", "feasible"]
    grid = np.linspace(0.0, args.var_eps_max, args.steps)
    rows = []
    for k in args.k:
        for v in grid:
            v = float(v)
            try:
                sol = equilibrium.solve(args.map, k, v, r_max=args.r_max)
            except (InfeasibleError, NoRootError):
                rows.append([k, v, "none", float("nan"), float("nan"), False])
                continue
            for b in sol.branches:
                rows.append([k, v, b.label, b.r, b.theta, True])
    _emit(header, rows, args.format, args.output)
    return EXIT_OK


def cmd_ricker_curve(args) -> int:
    maps.check_count("steps", args.steps, 1)
    header = ["k", "r"]
    rows = []
    for k in np.linspace(args.k_min, args.k_max, args.steps):
        sol = equilibrium.solve("ricker", float(k), 0.0, r_max=args.r_max)
        rows.append([float(k), sol.branches[0].r])
    _emit(header, rows, args.format, args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    maps.check_count("n_workers", args.n_workers, 1)
    if args.x0 is not None and (args.init_k is not None or args.init_theta is not None):
        raise ValueError("give either --x0 or --init-k/--init-theta, not both")
    if args.x0 is not None:
        init = args.x0
    elif args.init_k is not None and args.init_theta is not None:
        init = GammaParams(args.init_k, args.init_theta)
    else:
        raise ValueError("initial condition required: --x0 or --init-k with --init-theta")
    stats = simulate.run_ensemble(
        simulate.MapSpec(args.map, args.r),
        init,
        NoiseSpec(args.noise_var, args.family),
        t_max=args.t_max,
        n_traj=args.n_traj,
        seed=args.seed,
    )
    header = ["t", "mean", "variance", "se_mean", "se_variance", "extinct_fraction"]
    rows = [
        [int(t), float(stats.mean[t]), float(stats.variance[t]),
         float(stats.se_mean[t]), float(stats.se_variance[t]), stats.extinct_fraction]
        for t in stats.times
    ]
    _emit(header, rows, args.format, args.output)
    print(f"extinct_fraction={_fmt(stats.extinct_fraction)} n_traj={stats.n_traj}", file=sys.stderr)
    return EXIT_OK


def cmd_stationarity(args) -> int:
    report = simulate.stationarity_check(
        args.map, args.k, args.var_eps, args.branch,
        n_traj=args.n_traj, seed=args.seed, family=args.family,
    )
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict} mean_z={_fmt(report.mean_z)} var_z={_fmt(report.var_z)} "
          f"mean={_fmt(report.mean)} target_mean={_fmt(report.target_mean)} "
          f"variance={_fmt(report.variance)} target_variance={_fmt(report.target_variance)}")
    return EXIT_OK


def cmd_bifurcate(args) -> int:
    maps.check_count("steps", args.steps, 2)
    maps.check_count("samples", args.samples, 0)
    records = chaos.bifurcation_scan(
        args.map, args.r_min, args.r_max, args.steps, samples_per_r=args.samples
    )
    header = ["r", "x_sample", "lyapunov"]
    if args.format == "csv":
        _write([",".join(header), *_bifurcate_csv_rows(records)], args.output)
        return EXIT_OK
    rows = []
    for rec in records:
        rows.extend(zip(repeat(rec.r), rec.samples.tolist(), repeat(rec.lyapunov)))
    _emit(header, rows, args.format, args.output)
    return EXIT_OK


def _bifurcate_csv_rows(records) -> Iterator[str]:
    # the text of r and lyapunov once per record, and of each distinct sample
    # once per record (a periodic attractor repeats its few points)
    for rec in records:
        head, tail = f"{_fmt(rec.r)},", f",{_fmt(rec.lyapunov)}"
        texts = {}
        for x in rec.samples.tolist():
            text = texts.get(x) if x else None  # -0.0 == 0.0 share a key, not a text
            if text is None:
                text = texts[x] = repr(x)
            yield head + text + tail


def cmd_lyapunov(args) -> int:
    lam = chaos.lyapunov(args.map, args.r, burn_in=args.burn_in, iters=args.iters)
    print(f"lyapunov={_fmt(lam)}")
    return EXIT_OK


def cmd_transition(args) -> int:
    report = chaos.transition_report(args.map, args.k, args.var_eps)
    print("TRANSITION" if report.transition_found else "NO TRANSITION")
    for label, regime in report.branches:
        suffix = f" period={regime.period}" if regime.period is not None else ""
        if regime.se is not None:
            suffix += f" se={_fmt(regime.se)} iters={regime.iters}"
        print(
            f"branch={label} r={_fmt(regime.r)} regime={regime.regime} "
            f"lyapunov={_fmt(regime.lyapunov)}{suffix}"
        )
    _note_roots_beyond(report.solution, equilibrium.RICKER_DEFAULT_R_MAX)
    return EXIT_OK


def cmd_converge(args) -> int:
    results = mean_dynamics.convergence_sweep(
        args.map, args.r, args.ladder, t_max=args.t_max,
        n_traj=args.n_traj, seed=args.seed,
    )
    header = ["var", "max_deviation"]
    rows = [[v, dev] for v, dev in results]
    _emit(header, rows, args.format, args.output)
    return EXIT_OK


def cmd_self_check(args) -> int:
    failures = 0
    for name, passed, detail in selfcheck.run_all():
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        failures += 0 if passed else 1
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_map_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", choices=tuple(maps.UPPER), required=True)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output file path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    # the help text leaves out the docstring's last paragraph, which is for
    # Python callers (no docstring under python -OO)
    description = __doc__ and __doc__.rsplit("\n\n", 1)[0]
    parser = _Parser(prog="steadychaos", description=description)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="equilibrium branches r+/- and theta for (k, var_eps)")
    _add_map_flag(p)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--var-eps", type=float, required=True)
    p.add_argument("--r-max", type=float, default=equilibrium.RICKER_DEFAULT_R_MAX)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("scan", help="branch curves r(var_eps) over a uniform grid")
    _add_map_flag(p)
    p.add_argument("--k", type=_comma_floats, required=True, help="comma-separated shape values")
    p.add_argument("--var-eps-max", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--r-max", type=float, default=equilibrium.RICKER_DEFAULT_R_MAX)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("ricker-curve", help="positive Ricker root r(k) at var_eps=0")
    p.add_argument("--k-min", type=float, default=0.5)
    p.add_argument("--k-max", type=float, default=100.0)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--r-max", type=float, default=equilibrium.RICKER_DEFAULT_R_MAX)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_ricker_curve)

    p = sub.add_parser("simulate", help="Monte Carlo ensemble statistics per time step")
    _add_map_flag(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--noise-var", type=float, default=0.0)
    p.add_argument("--family", choices=equilibrium.FAMILIES, default="gamma")
    p.add_argument("--x0", type=float, default=None, help="point-mass initial condition")
    p.add_argument("--init-k", type=float, default=None, help="gamma initial shape")
    p.add_argument("--init-theta", type=float, default=None, help="gamma initial scale")
    p.add_argument("--t-max", type=int, default=50)
    p.add_argument("--n-traj", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--n-workers", type=int, default=1,
                   help="must be >= 1; accepted for compatibility, changes neither output nor speed")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("stationarity", help="one-step moment preservation z-test")
    _add_map_flag(p)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--var-eps", type=float, required=True)
    p.add_argument("--branch", choices=equilibrium.BRANCHES, default="plus")
    p.add_argument("--family", choices=equilibrium.FAMILIES, default="gamma")
    p.add_argument("--n-traj", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(handler=cmd_stationarity)

    p = sub.add_parser("bifurcate", help="attractor samples and Lyapunov exponents over r")
    _add_map_flag(p)
    p.add_argument("--r-min", type=float, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--samples", type=int, default=100)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_bifurcate)

    p = sub.add_parser("lyapunov", help="Lyapunov exponent of the deterministic map")
    _add_map_flag(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--burn-in", type=int, default=chaos.DEFAULT_BURN_IN)
    p.add_argument("--iters", type=int, default=chaos.DEFAULT_ITERS)
    p.set_defaults(handler=cmd_lyapunov)

    p = sub.add_parser("transition", help="steady-state-to-chaos verdict for (k, var_eps)")
    _add_map_flag(p)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--var-eps", type=float, required=True)
    p.set_defaults(handler=cmd_transition)

    p = sub.add_parser("converge", help="stochastic-to-deterministic convergence sweep")
    _add_map_flag(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--ladder", type=_comma_floats, required=True,
                   help="strictly decreasing variance levels, e.g. 1e-2,1e-3,1e-4")
    p.add_argument("--t-max", type=int, default=20)
    p.add_argument("--n-traj", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_converge)

    p = sub.add_parser("self-check", help="run the built-in invariant battery")
    p.set_defaults(handler=cmd_self_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one serves every main call
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc} (bound={_fmt(exc.bound)})", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NoRootError, maps.DivergenceError, OverflowError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
