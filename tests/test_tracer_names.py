"""Every name the benchmark tracer wraps is defined where it looks.

``perfbench/tracer.py`` finds each spanned or counted function through
``vars(owner)``, so a refactor that moves a method into a base class or
renames a function would break only the traced benchmark run.  This test
loads the tracer by path and resolves the names without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_tracer_names", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
NAMES = sorted({(module, attr) for _, module, attr in tracer.SPANNED}
               | {(module, attr) for _, module, attrs in tracer.COUNTED
                  for attr in attrs})


@pytest.mark.parametrize("module,attr", NAMES)
def test_traced_name_resolves_through_vars(module, attr):
    owner = importlib.import_module(module)
    *path, key = attr.split(".")
    for part in path:
        owner = vars(owner)[part]
    assert callable(vars(owner)[key])
