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


def test_private_definitions_are_used():
    """Every private module-level function or class in the package is read
    by a Name or Attribute node outside its own definition, so a path
    nothing calls any more does not stay behind."""
    trees = [ast.parse(p.read_text()) for p in sorted(Path(fds.__file__).parent.glob("*.py"))]
    reads = sum(map(_reads, trees), Counter())
    unused = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and reads[node.name] == _reads(node)[node.name]
    ]
    assert unused == []
