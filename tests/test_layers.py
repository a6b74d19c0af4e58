"""The package's layer graph, read from the source: every import a module
makes, at any depth, including one inside a function."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "supercircle"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# module -> the package modules it may not import
FORBIDDEN = {
    "liealg": {"grassmann", "supermatrix", "supergroup"},
    "reps": {"grassmann", "supermatrix", "supergroup"},
    "supergroup": {"liealg", "reps", "harmonic"},
}
FRONT = {"cli", "_checks"}  # no layer imports these


def package_imports(module):
    """The package modules that module names in an import statement."""
    path = PACKAGE / (module + ".py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):  # relative to the package
            if node.module:
                names = ["supercircle." + node.module]
            else:
                names = ["supercircle." + alias.name for alias in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in names
                  if name.startswith("supercircle.")}
    return found


def test_the_walk_finds_both_forms_of_relative_import():
    # "from . import _checks" and "from .supergroup import ..."
    assert {"_checks", "supergroup"} <= package_imports("cli")
    assert package_imports("scalars") == {"_values"}


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_respect_the_layer_graph(module):
    forbidden = FORBIDDEN.get(module, set())
    if module not in FRONT:
        forbidden = forbidden | FRONT
    assert package_imports(module) & forbidden == set()
