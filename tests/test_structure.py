"""Static checks on the package's source.

Every import sits at module level, and the modules import each other without
a cycle, so no import has to be deferred into a function to break one. Every
function reads each of its parameters, so no argument is threaded through
call sites for nothing. The package root re-exports nothing, every
definition has a caller outside the tests, so no library code exists only
for them, and every field has a reader outside the tests, so no value is
stored that nothing reads. The types built once or more per replayed event
are slotted and not frozen, and the functions run per event read no Enum
member off its class, pass no keyword to ``min`` or ``max`` and build no
record with keywords. A free list builds no segment descriptor, and neither
does a release. No module freezes or thaws the collector's heap. Outside a
named one, no test patches the engine internals whose work each
reselection's record reports.
"""

import ast
import collections
import graphlib
from pathlib import Path

from dsegsim.engine import LiveVm
from dsegsim.report import VmRecord
from dsegsim.segments import SegmentDescriptor, VMAllocation
from dsegsim.trace import start_event

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


def test_package_root_imports_nothing():
    """Library names live in their submodules; the root re-exports none."""
    tree = parsed_modules()["__init__"]
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


# Definitions that nothing outside the tests calls, kept on purpose.
UNREFERENCED_BY_DESIGN = {
    "walk_refs": "the paper's per-miss reference count, checked by criterion 3",
    "dsn_reg_ops": "the paper's register-operation count, checked by criterion 3",
    "estimate_runtime_dsn": "the paper's runtime model, checked by criterion 3",
    "alloc_frequency": "trace context the report is to show (ROADMAP item 3)",
    "demand_size_cdf": "trace context the report is to show (ROADMAP item 3)",
    "check_invariants": "the free-segment list's safety check",
    "default_fleet_spec": "a fleet of DEFAULT_GENERATIONS, the README's default mix",
    "core": "SimulationReport.core, the projection that identical output and the goldens compare",
}

BENCH = PACKAGE.parent.parent / "bench"


def referenced_names(node):
    """How often a tree reads or imports each name: identifiers, attributes
    and import aliases."""
    names = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name.split(".")[-1]] += 1
    return names


def attribute_names(node, owners=None):
    """How often a tree reads each attribute name: on any object, or only
    through a bare name in ``owners``."""
    return collections.Counter(
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        and (owners is None or isinstance(n.value, ast.Name) and n.value.id in owners)
    )


def definitions(tree):
    """Top-level functions and classes, then the non-dunder methods of the
    classes: each with its defining node and its class (None at the top)."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, node, None))
        if isinstance(node, ast.ClassDef):
            defs += [
                (m.name, m, node)
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (m.name.startswith("__") and m.name.endswith("__"))
            ]
    return defs


def test_every_definition_has_a_caller_outside_the_tests():
    """Each definition in the package is referenced from another module
    (the root aside), from its own module outside its body, or from the
    benchmark. A method or property counts only attribute references, and
    inside its own class only those through ``self``, ``cls`` or the class
    name, so a local variable or another object's attribute of the same name
    does not hide it."""
    modules = {name: tree for name, tree in parsed_modules().items() if name != "__init__"}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in BENCH.glob("*.py")]
    names = {name: referenced_names(tree) for name, tree in modules.items()}
    attrs = {name: attribute_names(tree) for name, tree in modules.items()}
    bench_names = sum(map(referenced_names, bench), collections.Counter())
    bench_attrs = sum(map(attribute_names, bench), collections.Counter())
    offenders = []
    for name, tree in modules.items():
        names_elsewhere = sum((c for other, c in names.items() if other != name), bench_names)
        attrs_elsewhere = sum((c for other, c in attrs.items() if other != name), bench_attrs)
        for def_name, node, cls in definitions(tree):
            if cls is None:
                elsewhere = names_elsewhere[def_name]
                own = names[name][def_name] - referenced_names(node)[def_name]
            else:
                mine = {"self", "cls", cls.name}
                elsewhere = attrs_elsewhere[def_name]
                own = (
                    attrs[name][def_name] - attribute_names(cls)[def_name]
                    + attribute_names(cls, mine)[def_name]
                    - attribute_names(node, mine)[def_name]
                )
            if not (elsewhere or own or def_name in UNREFERENCED_BY_DESIGN):
                offenders.append(f"{name}.{def_name}")
    assert offenders == []


def fields(tree):
    """Each class's annotated class-body fields and the ``self`` attributes
    its ``__init__`` assigns, as (class name, field name, line)."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                found.append((cls.name, node.target.id, node.lineno))
            elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                found += [
                    (cls.name, n.attr, n.lineno)
                    for n in ast.walk(node)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"
                ]
    return found


def test_every_field_has_a_reader_outside_the_tests():
    """Each field's name is loaded as an attribute somewhere in the package
    or the benchmark."""
    modules = parsed_modules()
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in BENCH.glob("*.py")]
    read = {
        n.attr
        for tree in [*modules.values(), *bench]
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    offenders = [
        f"{name}.py:{line} {cls}.{field}"
        for name, tree in modules.items()
        for cls, field, line in fields(tree)
        if field not in read
    ]
    assert offenders == []


def test_per_event_types_are_slotted():
    """Instances without a ``__dict__``, whose ``__init__`` assigns each
    field plainly: a frozen dataclass sets each field through
    ``object.__setattr__``, several times the cost per event."""
    segment = SegmentDescriptor(0, 4096)
    allocation = VMAllocation("vm", (segment,))
    instances = [
        start_event("vm", 0, 1, 4096),
        VmRecord("vm", 0, 0, 1, "dsn", 0.0),
        segment,
        allocation,
        LiveVm(0, allocation, 1),
    ]
    for obj in instances:
        cls = type(obj)
        assert "__slots__" in vars(cls), cls.__name__
        assert not hasattr(obj, "__dict__"), cls.__name__
        assert not cls.__dataclass_params__.frozen, cls.__name__


# The functions that run once or more per replayed event, by module; a method
# is named ``Class.method``.
PER_EVENT_FUNCTIONS = {
    "engine": (
        "step", "_start_vm", "_release", "reselect_option", "_may_compose", "_outscores",
    ),
    "scheduler": ("filter_min_segments", "fitting_machines"),
    "segments": ("_plan", "allocate", "peek_segment_count", "release", "SegmentDescriptor.__init__"),
    "trace": ("event_order", "parse_trace", "VmEvent.__init__"),
}
ENUMS = {"EventKind", "SimVariant", "AllocationPolicy", "VmMode"}


def functions_of(tree):
    """A module's functions by name, its methods as ``Class.method``."""
    return {
        f"{cls.name}.{fn.name}" if cls else fn.name: fn
        for cls in [None, *(n for n in tree.body if isinstance(n, ast.ClassDef))]
        for fn in (cls or tree).body
        if isinstance(fn, ast.FunctionDef)
    }


def per_event_functions():
    """(module, name, node) of each of ``PER_EVENT_FUNCTIONS``. A function
    missing from its module fails the lookup, so none goes unchecked."""
    modules = parsed_modules()
    for module, names in PER_EVENT_FUNCTIONS.items():
        functions = functions_of(modules[module])
        for name in names:
            yield module, name, functions[name]


def test_per_event_functions_read_no_enum_member_off_its_class():
    """A read such as ``EventKind.START`` looks the member up through the
    Enum's metaclass, several times the cost of a module constant; the
    per-event functions test members bound once, at import."""
    offenders = [
        f"{module}.py:{node.lineno} {name} reads {node.value.id}.{node.attr}"
        for module, name, fn in per_event_functions()
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id in ENUMS
    ]
    assert offenders == []


def test_per_event_functions_pass_no_keyword_to_min_or_max():
    """``max(sizes, default=0)`` costs about 250 ns more than ``max(sizes)``
    on CPython 3.11, for the keyword alone; the per-event functions test for
    an empty sequence themselves."""
    offenders = [
        f"{module}.py:{node.lineno} {name} calls {node.func.id}(..., {kw.arg}=...)"
        for module, name, fn in per_event_functions()
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id in ("min", "max")
        for kw in node.keywords
    ]
    assert offenders == []


# The slotted types that the per-event functions build.
PER_EVENT_RECORDS = {"VMAllocation", "VmRecord", "LiveVm", "SegmentDescriptor", "VmEvent"}


def test_per_event_functions_build_no_record_by_keyword():
    """``VMAllocation(vm_id=..., segments=...)`` costs about 0.29 us against
    0.15 us positionally on CPython 3.11, for the keywords alone; the
    per-event functions build their records positionally."""
    offenders = [
        f"{module}.py:{node.lineno} {name} builds {node.func.id}(..., {kw.arg}=...)"
        for module, name, fn in per_event_functions()
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id in PER_EVENT_RECORDS
        for kw in node.keywords
    ]
    assert offenders == []


def test_release_and_the_free_list_build_no_descriptor():
    """A free list keeps its segments as int columns, and ``SegmentDescriptor``
    objects are built only for what ``allocate`` grants. ``segments``, the
    descriptor view that the tests and the benchmark's tracer read, is the
    one method exempt; nothing on the per-event path reads it."""
    functions = functions_of(parsed_modules()["segments"])
    checked = [
        name for name in functions
        if name == "release" or name.startswith("FreeSegmentList.")
        and name != "FreeSegmentList.segments"
    ]
    assert {"release", "FreeSegmentList.__init__", "FreeSegmentList.copy"} <= set(checked)
    offenders = [
        f"segments.py:{node.lineno} {name} builds a SegmentDescriptor"
        for name in checked
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "SegmentDescriptor"
    ]
    assert offenders == []


TESTS = Path(__file__).resolve().parent

# Engine internals that no test patches: a test that wraps one to count what
# reselection did must be rewritten whenever the scoring changes, while the
# record each reselection leaves (``SimulationReport.reselections``) says it
# as output. The exceptions, by test, with their reasons.
UNPATCHED_ENGINE_NAMES = {"new_state", "_fork", "_outscores", "allocate", "step", "reselect_option"}
ENGINE_PATCHES_BY_DESIGN = {
    "test_engine.py::TestReselectionRecord::count_calls":
        "the record's cross-check, which counts the real calls the record stands for",
}


def engine_patches(node):
    """The engine names that a tree patches: by ``setattr(engine, name, ...)``
    or ``setattr("dsegsim.engine.name", ...)``, the forms
    ``monkeypatch.setattr`` takes, or by assigning ``engine.name``."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and "setattr" in (getattr(n.func, "attr", None),
                                                     getattr(n.func, "id", None)):
            args = [a.id if isinstance(a, ast.Name) else getattr(a, "value", None)
                    for a in n.args[:2]]
            if len(args) == 2 and args[0] == "engine":
                found.add(args[1])
            elif args and isinstance(args[0], str) and args[0].startswith("dsegsim.engine."):
                found.add(args[0].removeprefix("dsegsim.engine."))
        elif isinstance(n, ast.Assign):
            found.update(t.attr for t in n.targets if isinstance(t, ast.Attribute)
                         and isinstance(t.value, ast.Name) and t.value.id == "engine")
    return found


def test_no_test_patches_the_engine_internals_that_reselection_records():
    """No test function, method or closure in ``tests/`` patches
    ``engine.new_state``, ``_fork``, ``_outscores``, ``allocate``, ``step`` or
    ``reselect_option``, except those named in ``ENGINE_PATCHES_BY_DESIGN``;
    each of those still does."""
    patched = {
        f"{path.name}::{name.replace('.', '::')}"
        for path in sorted(TESTS.glob("*.py"))
        for name, fn in functions_of(ast.parse(path.read_text(encoding="utf-8"))).items()
        if engine_patches(fn) & UNPATCHED_ENGINE_NAMES
    }
    assert sorted(patched - set(ENGINE_PATCHES_BY_DESIGN)) == []
    assert sorted(set(ENGINE_PATCHES_BY_DESIGN) - patched) == []


def test_no_module_freezes_or_thaws_the_heap():
    """A replay nested in another, as reselection's are, cannot thaw a heap
    its caller froze: no module calls ``gc.freeze`` or ``gc.unfreeze``."""
    offenders = [
        f"{name}.py:{node.lineno} reads gc.{node.attr}"
        for name, tree in parsed_modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("freeze", "unfreeze")
        and isinstance(node.value, ast.Name) and node.value.id == "gc"
    ]
    assert offenders == []
