"""Import layering of the package: the map kernel at the bottom, analysis
and simulation above it side by side, the CLI on top."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("module", ["chaos", "mean_dynamics"])
def test_only_maps_exponentiates_an_orbit(module):
    """Map steps are taken through ``maps``: analysis and mean dynamics call no exp."""
    assert "exp" not in called_names(module)


@pytest.mark.parametrize("module", ["chaos", "mean_dynamics"])
def test_only_maps_steps_an_orbit(module):
    """Orbits are stepped in ``maps`` (``blocks``, ``orbit``): analysis and
    mean dynamics call no ``orbit_step``."""
    assert "orbit_step" not in called_names(module)


def test_only_the_cycle_check_steps_a_single_orbit():
    """``maps.orbit`` settles the orbit of the cycle check and nothing else;
    every other deterministic orbit, recorded ones included, is stepped by
    ``maps.blocks``."""
    callers = {
        f"{module}.{fn.name}"
        for module in MODULES
        for fn in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "orbit"
    }
    assert callers == {"chaos._attracting_cycle"}
    assert "blocks" in called_names("mean_dynamics")


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
    callers = set()
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        # each node belongs to its outermost function, or to the module
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        callers |= {
            f"{module}.{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in names
        }
    return callers


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
    spelled_out = {("logistic", "ricker"), ("gamma", "lognormal")}
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
