"""Import layering of the package: the map kernel at the bottom, analysis
and simulation above it side by side, the CLI on top."""

import ast
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
