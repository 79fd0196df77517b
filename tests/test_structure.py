"""Static checks on the package's source.

Every import sits at module level, and the modules import each other without
a cycle, so no import has to be deferred into a function to break one. Every
function reads each of its parameters, so no argument is threaded through
call sites for nothing.
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


def unread_parameters(fn):
    """Parameters of a function, other than self and cls, that its body never
    reads."""
    a = fn.args
    params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
    names = {p.arg for p in params if p is not None} - {"self", "cls"}
    read = {
        node.id
        for stmt in fn.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(names - read)


def test_every_parameter_is_read():
    offenders = [
        f"{name}.py:{fn.lineno} {fn.name}({param})"
        for name, tree in parsed_modules().items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for param in unread_parameters(fn)
    ]
    assert offenders == []
