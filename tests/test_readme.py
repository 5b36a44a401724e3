"""README's code references resolve: every backticked ``rbsim.<module>.<name>``
and every backticked library name (a CamelCase name such as ``RBData`` or
``RBData.fitted``) is a live object, and the ``python`` block imports
cleanly, so a renamed or deleted name cannot linger in the docs."""

import builtins
import importlib
import pkgutil
import re
from pathlib import Path

import rbsim
from rbsim.irbgs import _NAMED_TARGETS

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
SPAN = re.compile(r"`([^`]+)`")
# a dotted name, optionally called and indexed: `RBData.fitted(config, x)[0]`
REFERENCE = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?(?:\[.*\])?", re.S)
CAMEL = re.compile(r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*")


def _library_names() -> dict:
    """Every name a README may cite bare: the exports of each rbsim module,
    the builtins, and the generator targets a recipe may name."""
    names = dict(vars(builtins))
    for info in pkgutil.iter_modules(rbsim.__path__):
        module = importlib.import_module(f"rbsim.{info.name}")
        names.update((name, getattr(module, name)) for name in module.__all__)
    names.update(_NAMED_TARGETS)
    return names


def _resolves(path: str, names: dict) -> bool:
    parts = path.split(".")
    if parts[0] == "rbsim":
        # the longest importable module prefix, then attributes
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ModuleNotFoundError:
                continue
            parts = parts[cut:]
            break
    elif parts[0] in names:
        obj, parts = names[parts[0]], parts[1:]
    else:
        return False
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def references(text: str) -> list:
    """The backticked spans of ``text`` outside code fences that cite a
    library name: ``rbsim.…`` paths and CamelCase names."""
    prose = FENCE.sub("", text)
    out = []
    for span in SPAN.findall(prose):
        match = REFERENCE.fullmatch(" ".join(span.split()))
        if match and (match[1].startswith("rbsim.") or CAMEL.fullmatch(match[1].split(".")[0])):
            out.append(match[1])
    return out


def unresolved(text: str) -> list:
    names = _library_names()
    return [path for path in references(text) if not _resolves(path, names)]


def test_every_backticked_library_name_resolves():
    text = README.read_text(encoding="utf-8")
    cited = references(text)
    # the checks read the API sections, not a handful of stray names
    assert sum(path.startswith("rbsim.") for path in cited) >= 10
    assert {"RBData", "rbsim.engines.SequenceBatch", "rbsim.engines.CompiledSequence"} <= set(cited)
    assert unresolved(text) == []


def test_a_deleted_name_fails_the_check():
    text = ("`SequenceSpec` and `rbsim.engines.SequenceSpec(n, elements)` and "
            "`RBData.p_m`, beside `RBData.fitted` and `numpy.random.Generator`")
    assert unresolved(text) == ["SequenceSpec", "rbsim.engines.SequenceSpec", "RBData.p_m"]


def test_python_block_imports_cleanly():
    blocks = [body for lang, body in FENCE.findall(README.read_text(encoding="utf-8"))
              if lang == "python"]
    assert blocks
    for body in blocks:
        exec(compile(body, "README.md", "exec"), {})
