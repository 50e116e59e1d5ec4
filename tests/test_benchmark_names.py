"""The package names that ``benchmarks/*.py`` use still exist.

The scripts under ``benchmarks/`` are not collected with these tests, so a
change that deletes or renames a name they use would pass here and fail
only when the benchmark runs. This test reads each script with ``ast``,
without importing or running it. For every name a script imports from
``visuomotor``, and every ``name.attr`` read on such a name, it checks that
the package still defines it.

It sees only names reached through an import: not an instance attribute
such as ``result.trace``, nor a keyword such as ``replace(config,
seed=...)``. ``benchmarks/selftest.py`` still covers those.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
PACKAGE = "visuomotor"


def _in_package(dotted: str) -> bool:
    return dotted.split(".")[0] == PACKAGE


def _member(obj, attr):
    """``obj.attr``, importing it first if it is a submodule not yet loaded.
    Raises AttributeError when there is no such member."""
    if hasattr(obj, attr):
        return getattr(obj, attr)
    if isinstance(obj, ModuleType):
        try:
            return importlib.import_module(f"{obj.__name__}.{attr}")
        except ModuleNotFoundError:
            pass
    raise AttributeError(attr)


def _missing_names(tree: ast.Module) -> tuple[list[str], int]:
    """The package names ``tree`` uses that do not exist, and how many
    references it checked."""
    bound = {}  # local name -> the package object it was imported as
    missing = []
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _in_package(node.module or ""):
            module = importlib.import_module(node.module)
            for alias in node.names:
                checked += 1
                try:
                    bound[alias.asname or alias.name] = _member(module, alias.name)
                except AttributeError:
                    missing.append(f"{node.module}.{alias.name} (line {node.lineno})")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _in_package(alias.name):
                    checked += 1
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = module
                    else:
                        bound[PACKAGE] = importlib.import_module(PACKAGE)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
        ):
            checked += 1
            try:
                _member(bound[node.value.id], node.attr)
            except AttributeError:
                missing.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return missing, checked


def test_names_the_benchmark_uses_exist():
    scripts = sorted(BENCHMARKS.glob("*.py"))
    assert scripts, f"no scripts under {BENCHMARKS}"
    missing = []
    checked = 0
    for script in scripts:
        names, count = _missing_names(ast.parse(script.read_text(), str(script)))
        missing += [f"{script.name}: {name}" for name in names]
        checked += count
    assert checked > 0
    assert not missing, "names the benchmark uses are gone:\n" + "\n".join(missing)
