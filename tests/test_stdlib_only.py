"""The package promises to need nothing outside the standard library."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "supercircle"


def _imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_stdlib_or_the_package():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    foreign = {
        (path.name, name)
        for path in files
        for name in _imported_modules(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"supercircle"}
    }
    assert foreign == set()
