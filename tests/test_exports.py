"""The export surface resolves: every name in each module's ``__all__`` and
every name the package ``__init__`` imports, so a deleted function leaves no
stale export behind.  And the package holds only what it runs: every export
is read by the package, wrapped by the benchmark's tracer, or kept for a
stated reason."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import rbsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(rbsim.__path__))

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# exports that no package code reads, and why each stays
KEPT = {
    "depolarizing_parameter": "the acceptance (ROADMAP item 1) and channel-E (item 3) studies",
    "stabilizer_group": "the oracle of the engine kernel's tests",
    "parse_circuit": "reads the test circuit format README documents",
    "rotation_expansion_recipe": "the rotation identities of acceptance criterion 5",
}


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


def _read_names(module: str) -> set:
    """Every name a module's code reads: loaded names, attributes and imports
    (its definitions and the strings of its ``__all__`` are not reads)."""
    tree = ast.parse(Path(rbsim.__path__[0], f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _trace_targets() -> set:
    """(module, name) of each ``bench/tracing.TARGETS`` entry; a method's class."""
    spec = importlib.util.spec_from_file_location("bench_tracing_targets", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(module, qualname.split(".")[0]) for module, qualname in tracing.TARGETS}


def test_every_export_is_read_traced_or_kept():
    # the package ``__init__`` is not among MODULES: a re-export is not a use
    read = set().union(*(_read_names(module) for module in MODULES))
    traced = _trace_targets()
    exports = {(module, name) for module in MODULES
               for name in importlib.import_module(f"rbsim.{module}").__all__}
    unused = sorted(export for export in exports
                    if export[1] not in read and export not in traced)
    assert [name for _, name in unused if name not in KEPT] == []
    # the kept list names only exports that still need a reason
    assert sorted(KEPT) == sorted(name for _, name in unused)
