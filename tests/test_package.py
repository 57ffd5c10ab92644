"""The package's top-level namespace."""

import thrusterbiped


def test_every_exported_name_resolves():
    assert len(set(thrusterbiped.__all__)) == len(thrusterbiped.__all__)
    for name in thrusterbiped.__all__:
        assert getattr(thrusterbiped, name) is not None, name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from thrusterbiped import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(thrusterbiped.__all__)
