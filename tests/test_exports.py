"""The package's exports: every name in ``__all__`` is defined, so a deleted
name cannot linger there."""

import supercircle


def test_every_name_in_all_resolves():
    assert [name for name in supercircle.__all__
            if not hasattr(supercircle, name)] == []
    assert len(set(supercircle.__all__)) == len(supercircle.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from supercircle import *", namespace)
    assert set(supercircle.__all__) <= set(namespace)
