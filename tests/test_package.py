"""Package surface: every name a module exports exists, and every private
module-level definition is used."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

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


def _reads(node) -> Counter:
    """The names that Name and Attribute nodes under node read."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _unread_definitions():
    """(module, name) of every module-level function or class in the
    package that no Name or Attribute node reads outside its own
    definition."""
    files = sorted(Path(fds.__file__).parent.glob("*.py"))
    trees = {f"fds.{p.stem}": ast.parse(p.read_text()) for p in files}
    reads = sum(map(_reads, trees.values()), Counter())
    return [
        (mod, node.name)
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and reads[node.name] == _reads(node)[node.name]
    ]


def test_private_definitions_are_used():
    """Every private module-level function or class in the package is read
    outside its own definition, so a path nothing calls any more does not
    stay behind."""
    unused = [name for _, name in _unread_definitions()
              if name.startswith("_") and not name.startswith("__")]
    assert unused == []


def test_public_definitions_are_used_or_exported():
    """Every public module-level function or class in the package is read
    outside its own definition or listed in its module's __all__."""
    unused = [
        name
        for mod, name in _unread_definitions()
        if not name.startswith("_")
        and name not in getattr(importlib.import_module(mod), "__all__", ())
    ]
    # only the benchmark's tracer reads these two; ROADMAP item 3 points it
    # at the kernels that run and deletes both
    assert sorted(unused) == ["runlen_table", "suffix_slope_max"]
