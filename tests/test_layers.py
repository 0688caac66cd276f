"""Import layering of the package: the map kernel at the bottom, analysis
and simulation above it side by side, the CLI on top. The kernel also owns
every shared argument rule, and each rule's message is pinned here."""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steadychaos import (
    GammaParams,
    MapSpec,
    MeanState,
    NoiseSpec,
    chaos,
    cli,
    convergence_sweep,
    deterministic_orbit,
    equilibrium,
    maps,
    mean_update,
    raw_moment,
    stationarity_check,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "steadychaos"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def package_imports(module: str) -> set:
    """Package modules that ``module`` imports, read from its source."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:  # from .maps import step
                names = [node.module]
            elif node.level or node.module == "steadychaos":  # from . import maps
                names = [alias.name for alias in node.names]
            elif (node.module or "").startswith("steadychaos."):
                names = [node.module.split(".", 1)[1]]
            else:
                continue
        elif isinstance(node, ast.Import):
            names = [a.name.split(".", 1)[1] for a in node.names if a.name.startswith("steadychaos.")]
        else:
            continue
        found.update(name.split(".")[0] for name in names)
    return found


def test_reads_relative_and_absolute_imports():
    assert {"equilibrium", "maps"} <= package_imports("chaos")
    assert "chaos" in package_imports("cli")


def test_maps_imports_nothing_from_the_package():
    assert package_imports("maps") == set()


def test_chaos_and_simulate_are_independent():
    assert "simulate" not in package_imports("chaos")
    assert "chaos" not in package_imports("simulate")


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli"])
def test_nothing_imports_the_cli(module):
    assert "cli" not in package_imports(module)


def called_names(module: str) -> set:
    """Names of the functions that ``module`` calls, bare or as attributes."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                found.add(func.id)
            elif isinstance(func, ast.Attribute):
                found.add(func.attr)
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "equilibrium"])
def test_only_equilibrium_dispatches_between_solvers(module):
    """The map kind selects a solver in ``equilibrium.solve`` and nowhere else."""
    assert not {"logistic_solve", "ricker_solve"} <= called_names(module)


@pytest.mark.parametrize("module", ["chaos", "mean_dynamics", "simulate"])
def test_only_maps_exponentiates_an_orbit(module):
    """Map steps are taken through ``maps``: analysis, mean dynamics and the
    Monte Carlo call no exp."""
    assert "exp" not in called_names(module)


@pytest.mark.parametrize("module", ["chaos", "mean_dynamics"])
def test_only_maps_steps_an_orbit(module):
    """Orbits are stepped in ``maps`` (``blocks``, ``orbit``): analysis and
    mean dynamics call no ``orbit_step``."""
    assert "orbit_step" not in called_names(module)


def test_one_stepper_per_orbit_count():
    """A single orbit, the cycle check's or a recorded one, is stepped by the
    float loop of ``maps.orbit``; only vectors of orbits, the ensemble exponent
    and the scan, go through ``maps.blocks``."""
    assert outermost_callers({"orbit"}) == {"chaos._attracting_cycle", "mean_dynamics.deterministic_orbit"}
    assert outermost_callers({"blocks"}) == {"chaos._ensemble_exponent", "chaos.bifurcation_scan"}


def test_one_step_for_every_ricker_trajectory():
    """Outside ``maps``, whose ``orbit`` and ``blocks`` write ``orbit_step``
    out, only the Monte Carlo's ``simulate._iterate`` calls it: every Ricker
    trajectory steps ln x by that one definition."""
    callers = {name for name in outermost_callers({"orbit_step"}) if not name.startswith("maps.")}
    assert callers == {"simulate._iterate"}


def test_one_domain_for_orbits_and_trajectories():
    """Every vector of orbits and every Monte Carlo trajectory leaves by
    ``maps.in_domain``; ``maps.orbit`` writes it out for floats."""
    assert outermost_callers({"in_domain"}) == {
        "chaos._ensemble_exponent", "chaos.bifurcation_scan",
        "simulate._iterate", "simulate.run_trajectory", "simulate.run_ensemble",
    }


def test_divergence_error_is_defined_once_in_maps():
    defined_in = [
        module for module in MODULES
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "DivergenceError"
    ]
    assert defined_in == ["maps"]
    import steadychaos
    from steadychaos import chaos, maps
    assert steadychaos.DivergenceError is maps.DivergenceError is chaos.DivergenceError


RULE_TEMPLATES = (" must be >= {least}, got {value}", " must be finite and > 0, got ",
                  " must be finite and >= 0, got ")
# float rules that accept inf, with their own wording
OWN_COUNT_WORDING = {("mean_dynamics", "var_x"), ("mean_dynamics", "variance levels")}


def test_each_argument_rule_is_written_once_in_maps():
    """The count, positive and non-negative rules are ``maps.check_count``,
    ``check_positive`` and ``check_nonnegative``: no other module spells out
    their messages or keeps a helper of its own."""
    sources = {module: (PACKAGE / f"{module}.py").read_text() for module in MODULES}
    for template in RULE_TEMPLATES:
        assert [m for m, text in sources.items() if template in text] == ["maps"], template
    inline = {(m, name) for m, text in sources.items()
              for name in re.findall(r'"([\w ]+) must be >= -?\d+, got', text)}
    assert inline == OWN_COUNT_WORDING
    defined = {node.name for text in sources.values() for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.FunctionDef)}
    assert not {"_check_count", "check_n_traj", "_check_k", "_check_var"} & defined


@pytest.mark.parametrize("call", [
    lambda: chaos.lyapunov("henon", 2.0),
    lambda: chaos.classify("henon", 2.0),
    lambda: chaos.bifurcation_scan("henon", 2.0, 3.0, 5),
    lambda: chaos.transition_report("henon", 1.0, 0.0),
    lambda: equilibrium.solve("henon", 1.0, 0.0),
    lambda: stationarity_check("henon", 1.0, 0.0, "plus", n_traj=100, seed=1),
    lambda: MapSpec("henon", 2.0),
    lambda: mean_update("henon", 2.0, MeanState(0.5, 0.0)),
    lambda: deterministic_orbit("henon", 2.0, 0.5, 10),
    lambda: convergence_sweep("henon", 2.0, [1e-3], 10),
], ids=["lyapunov", "classify", "bifurcation_scan", "transition_report", "solve", "stationarity_check",
        "MapSpec", "mean_update", "deterministic_orbit", "convergence_sweep"])
def test_every_entry_point_refuses_an_unknown_kind(call):
    with pytest.raises(ValueError, match="^unknown map kind 'henon'$"):
        call()


def test_the_kind_rule_and_the_derivative_are_written_once():
    """``maps.check`` owns the kind rule, and the kernel functions take a
    checked kind; the one other raise is the solver dispatch,
    ``equilibrium.solve``. f' is written once, in ``maps.lyapunov_terms``:
    ``maps`` defines no ``derivative``."""
    spelled = sorted(name for module in MODULES for name, node in owned_nodes(module)
                     if isinstance(node, ast.Constant) and "unknown map kind" in str(node.value))
    assert spelled == ["equilibrium.solve", "maps.check"]
    assert not hasattr(maps, "derivative")


def _simulate_handler(*flags):
    args = cli.build_parser().parse_args(["simulate", "--map", "logistic", "--r", "2", "--x0", "0.5", *flags])
    return args.handler(args)


@pytest.mark.parametrize("call,message", [
    (lambda: GammaParams(0.0, 1.0), "shape k must be finite and > 0, got 0.0"),
    (lambda: equilibrium.logistic_noise_bound(-1.0), "shape k must be finite and > 0, got -1.0"),
    (lambda: GammaParams(1.0, math.inf), "scale theta must be finite and > 0, got inf"),
    (lambda: equilibrium.ricker_residual(1.0, 1.0, -0.1), "var_eps must be finite and >= 0, got -0.1"),
    (lambda: equilibrium.logistic_solve(1.0, math.nan), "var_eps must be finite and >= 0, got nan"),
    (lambda: NoiseSpec(-1.0), "noise variance must be finite and >= 0, got -1.0"),
    (lambda: raw_moment(GammaParams(1.0, 1.0), -1), "moment order must be >= 0, got -1"),
    (lambda: raw_moment(GammaParams(1.0, 1.0), np.int64(-2)), "moment order must be >= 0, got -2"),
    (lambda: _simulate_handler("--n-workers", "0"), "n_workers must be >= 1, got 0"),
    (lambda: chaos.lyapunov("logistic", 3.5, iters=0), "iters must be >= 1, got 0"),
    (lambda: chaos.classify("logistic", 3.5, iters=0), "iters must be >= 1, got 0"),
    (lambda: chaos.bifurcation_scan("logistic", 2.0, 3.0, 1), "n_r must be >= 2, got 1"),
    (lambda: chaos.bifurcation_scan("logistic", 2.0, 3.0, 5, lyap_iters=0), "lyap_iters must be >= 1, got 0"),
], ids=["shape_k", "shape_k_equilibrium", "scale_theta", "var_eps", "var_eps_nan", "noise_variance",
        "moment_order", "moment_order_numpy", "n_workers", "iters_lyapunov", "iters_classify", "n_r",
        "lyap_iters"])
def test_argument_messages_are_pinned(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_only_trajectory_rng_builds_a_bit_generator():
    """Every random stream comes from ``simulate.trajectory_rng``, keyed by
    (seed, block): no other function builds a bit generator or calls
    ``default_rng``."""
    import numpy as np
    builders = {name for name in dir(np.random)
                if isinstance(getattr(np.random, name), type)
                and issubclass(getattr(np.random, name), np.random.BitGenerator)}
    assert {"PCG64DXSM", "Philox", "MT19937"} <= builders
    builders |= {"default_rng", "RandomState"}
    assert outermost_callers(builders) == {"simulate.trajectory_rng"}


def outermost_callers(names: set) -> set:
    """``module.function`` for each outermost function that calls one of
    ``names``, bare or as an attribute; ``module.<module>`` for a call at
    import."""
    return {
        owner
        for module in MODULES
        for owner, node in owned_nodes(module)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in names
    }


def owned_nodes(module: str) -> list:
    """(``module.function``, node) for each node of ``module``, under its
    outermost function, or ``module.<module>`` outside every function."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                owner.setdefault(node, fn.name)
    return [(f"{module}.{owner.get(node, '<module>')}", node) for node in ast.walk(tree)]


def test_only_the_chunk_runner_starts_threads():
    """Both Monte Carlo paths run their chunks through ``simulate._chunked``,
    the one place that starts threads: no other function, and no module at
    import, starts a thread or a process."""
    starters = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "Pool", "Process",
                "start_new_thread", "fork", "Popen"}
    assert outermost_callers(starters) == {"simulate._chunked"}


@pytest.mark.parametrize("name", ["trajectory_rng", "_reduce"])
def test_only_the_chunk_runner_opens_and_reduces_a_chunk(name):
    """Each Monte Carlo chunk has one owner: ``simulate._chunked`` opens its
    stream and reduces what the path's draw returns; no path does either."""
    assert outermost_callers({name}) == {"simulate._chunked"}


def test_importing_the_cli_does_not_import_concurrent_futures():
    """``concurrent.futures`` takes 6-8 ms to import, so ``simulate._chunked``
    imports it when it first needs a pool, not at CLI start-up."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    script = "import sys, steadychaos.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_cli_takes_choice_lists_from_the_library():
    spelled_out = {("logistic", "ricker"), ("gamma", "lognormal"), ("plus", "minus")}
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, (ast.Tuple, ast.List)):
            values = tuple(e.value if isinstance(e, ast.Constant) else None for e in node.elts)
            assert values not in spelled_out, f"line {node.lineno}"


NO_SCIPY_SCRIPT = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
import steadychaos
from steadychaos.cli import main

for argv in [
    ["self-check"],
    ["solve", "--map", "ricker", "--k", "1.0", "--var-eps", "0.05"],
    ["transition", "--map", "logistic", "--k", "1.0", "--var-eps", "0.05"],
    ["stationarity", "--map", "logistic", "--k", "2.0", "--var-eps", "0.1", "--n-traj", "1000"],
    ["simulate", "--map", "ricker", "--r", "1.5", "--x0", "0.7", "--t-max", "5", "--n-traj", "100"],
    ["converge", "--map", "logistic", "--r", "2.0", "--ladder", "1e-3,1e-4", "--t-max", "5",
     "--n-traj", "200"],
]:
    code = main(argv)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")
if "scipy" in sys.modules:
    raise SystemExit("scipy was imported")
"""


def test_cli_runs_without_scipy():
    """SciPy is a test oracle only: with every scipy import blocked, the
    package imports and the commands above exit 0 without importing it."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
