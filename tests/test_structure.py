"""Static checks on how the package's modules import each other.

Every import sits at module level, and the modules import each other without
a cycle, so no import has to be deferred into a function to break one.
"""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dsegsim"


def parsed_modules():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def package_imports(tree):
    """Names of the package's modules that a module imports, anywhere in it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dsegsim."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                a.name.split(".")[1] for a in node.names if a.name.startswith("dsegsim.")
            )
    return found


def test_package_has_modules():
    assert {"engine", "scheduler", "segments", "trace"} <= set(parsed_modules())


def test_no_import_inside_a_function():
    offenders = []
    for name, tree in parsed_modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [
                    f"{name}.py:{node.lineno} in {fn.name}()"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert offenders == []


def test_intra_package_import_graph_is_acyclic():
    graph = {name: package_imports(tree) for name, tree in parsed_modules().items()}
    assert any(graph.values())  # the parser does see the package's imports
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
