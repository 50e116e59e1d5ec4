"""The package names that ``benchmarks/*.py`` use still exist.

The scripts under ``benchmarks/`` are not collected with these tests, so a
change that deletes or renames a name they use would pass here and fail
only when the benchmark runs. This test reads each script with ``ast``,
without importing or running it. For every name a script imports from
``visuomotor``, and every ``name.attr`` read on such a name, it checks that
the package still defines it.

It sees only names reached through an import: not an instance attribute
such as ``result.trace``. ``benchmarks/selftest.py`` still covers those.
The one exception is the parsed arguments: every ``args.attr`` read on a
result of ``cli.parse_args`` must be an attribute the parser sets.

Each keyword passed to a package function or class so reached, such as
``harness.default_config(..., camera=...)``, must be a parameter of its
signature. A keyword passed to anything else stays unchecked, among them
those passed to ``dataclasses.replace``, such as ``replace(config,
seed=...)``.
"""

import ast
import importlib
import inspect
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


def _imports(tree: ast.Module) -> tuple[dict, list[str], int]:
    """Each local name ``tree`` imports from the package, bound to the
    object it was imported as; the imported names that do not exist; and
    how many imports it checked."""
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
    return bound, missing, checked


def _missing_names(tree: ast.Module) -> tuple[list[str], int]:
    """The package names ``tree`` uses that do not exist, and how many
    references it checked."""
    bound, missing, checked = _imports(tree)
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


def _resolve(node: ast.expr, bound: dict):
    """The package object that a name, or a chain of attributes on one,
    stands for, or None."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, bound)
        if owner is not None:
            try:
                return _member(owner, node.attr)
            except AttributeError:
                pass
    return None


def _bad_keywords(tree: ast.Module) -> tuple[list[str], int]:
    """The keywords ``tree`` passes to a package callable that are not
    parameters of it, and how many keywords it checked."""
    bound = _imports(tree)[0]
    bad = []
    checked = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.keywords:
            continue
        target = _resolve(node.func, bound)
        if not callable(target) or not _in_package(getattr(target, "__module__", "")):
            continue
        parameters = inspect.signature(target).parameters
        if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
            continue
        for keyword in node.keywords:
            if keyword.arg is not None:  # not a ``**mapping``
                checked += 1
                if keyword.arg not in parameters:
                    bad.append(f"{ast.unparse(node.func)}({keyword.arg}=...) "
                               f"(line {node.lineno})")
    return bad, checked


def _parsed_attributes(tree: ast.Module) -> set[str]:
    """Every ``X.attr`` read in a function of ``tree`` that assigns
    ``X = cli.parse_args(...)``, with ``cli`` imported from the package."""
    from visuomotor import cli

    bound = _imports(tree)[0]
    attributes = set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        parsed = {
            target.id
            for node in ast.walk(function)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and isinstance(node.value.func.value, ast.Name)
            and bound.get(node.value.func.value.id) is cli
            and node.value.func.attr == "parse_args"
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        attributes |= {
            node.attr
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in parsed
        }
    return attributes


def test_parser_attributes_the_benchmark_reads_exist():
    from visuomotor import cli

    read = set()
    for script in sorted(BENCHMARKS.glob("*.py")):
        read |= _parsed_attributes(ast.parse(script.read_text(), str(script)))
    assert read, "no script reads a cli.parse_args result"
    dests = set(vars(cli.parse_args(["run"]))) | set(vars(cli.parse_args(["compare"])))
    assert read <= dests, f"the parser no longer sets {sorted(read - dests)}"


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


def test_keywords_the_benchmark_passes_exist():
    bad = []
    checked = 0
    for script in sorted(BENCHMARKS.glob("*.py")):
        keywords, count = _bad_keywords(ast.parse(script.read_text(), str(script)))
        bad += [f"{script.name}: {keyword}" for keyword in keywords]
        checked += count
    assert checked > 0
    assert not bad, "keywords the benchmark passes are gone:\n" + "\n".join(bad)
