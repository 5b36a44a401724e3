"""The export surface resolves: every name in each module's ``__all__`` and
every name the package ``__init__`` imports, so a deleted function leaves no
stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rbsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(rbsim.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_all_name_resolves(module):
    mod = importlib.import_module(f"rbsim.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_are_module_exports():
    tree = ast.parse(Path(rbsim.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"rbsim.{node.module}")
        for alias in node.names:
            assert alias.name in source.__all__, (node.module, alias.name)
            assert getattr(rbsim, alias.asname or alias.name) is getattr(source, alias.name)
