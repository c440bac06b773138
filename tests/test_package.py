"""Package surface: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import fds

MODULES = sorted(m.name for m in pkgutil.iter_modules(fds.__path__, "fds."))


def test_every_module_is_listed():
    assert "fds.dyadic" in MODULES and "fds.spectra" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a stale __all__ entry breaks `from fds.x import *` but not `import fds`
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
