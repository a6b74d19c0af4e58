"""The package's exports: every name in ``__all__`` is defined, so a deleted
name cannot linger there, and a layer is loaded only when it is used."""

import os
import subprocess
import sys

import pytest

import supercircle

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
LAYERS = ("scalars", "grassmann", "linalg", "supermatrix", "liealg", "reps",
          "supergroup", "harmonic")


def loaded_after(statement):
    """The supercircle modules a fresh interpreter holds after one import."""
    code = ("import sys; %s; print(' '.join(sorted(k for k in sys.modules "
            "if k.split('.')[0] == 'supercircle')))" % statement)
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return set(out.split())


def test_every_name_in_all_resolves():
    assert [name for name in supercircle.__all__
            if not hasattr(supercircle, name)] == []
    assert len(set(supercircle.__all__)) == len(supercircle.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from supercircle import *", namespace)
    assert set(supercircle.__all__) <= set(namespace)


def test_supermatrix_loads_only_the_layers_below_it():
    assert loaded_after("import supercircle.supermatrix") == {
        "supercircle", "supercircle._values", "supercircle.scalars",
        "supercircle.grassmann", "supercircle.supermatrix"}


def test_reps_loads_neither_grassmann_nor_the_layers_above_it():
    loaded = loaded_after("import supercircle.reps")
    assert "supercircle.reps" in loaded
    assert loaded.isdisjoint({
        "supercircle.grassmann", "supercircle.supermatrix",
        "supercircle.harmonic", "supercircle.supergroup", "supercircle.cli"})


def test_bare_import_resolves_every_layer_as_an_attribute():
    code = "import supercircle; " + "; ".join(
        "supercircle.%s.__name__" % layer for layer in LAYERS)
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    for layer in LAYERS:
        assert getattr(supercircle, layer).__name__ == "supercircle." + layer


def test_dir_lists_every_exported_name():
    assert set(supercircle.__all__) <= set(dir(supercircle))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        supercircle.no_such_name
