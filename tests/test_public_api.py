"""Public API: each module's ``__all__`` and the names the package exports."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ftqc_estimator
from ftqc_estimator.errors import EstimatorError
from ftqc_estimator.records import Record

PACKAGE = Path(ftqc_estimator.__file__).parent
MODULES = {
    path.stem: importlib.import_module(f"ftqc_estimator.{path.stem}")
    for path in sorted(PACKAGE.glob("*.py"))
    if path.stem != "__init__"
}


def star_names(module):
    """The names ``from module import *`` binds: ``__all__``, or without it
    every name not starting with an underscore."""
    if hasattr(module, "__all__"):
        return module.__all__
    return [name for name in vars(module) if not name.startswith("_")]


def package_records():
    """Every record the package's modules declare: a :class:`Record`
    subclass with at least one field, in module order.  Bases with no
    field (``JsonRecord``, the formula-node base) are left out."""
    return [
        value
        for module in MODULES.values()
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and issubclass(value, Record)
        and value._field_names
    ]


def package_imports():
    """(home module, name) for each name ``ftqc_estimator`` imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", [n for n, m in MODULES.items() if hasattr(m, "__all__")])
def test_every_name_in_all_exists(name):
    module = MODULES[name]
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_exported_name_is_in_its_home_modules_all():
    imports = package_imports()
    public = {
        name
        for name, value in vars(ftqc_estimator).items()
        if not name.startswith("_") and not isinstance(value, type(ftqc_estimator))
    }
    assert public == {name for _, name in imports}
    unlisted = [
        f"{home}.{name}" for home, name in imports if name not in star_names(MODULES[home])
    ]
    assert unlisted == []


FRAME_NAMES = {"gi_code", "gi_frame", "f_locals", "_getframe"}


def names_read(tree):
    """Each attribute, name, imported name and string constant in ``tree``;
    a string may name an attribute for ``getattr``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


@pytest.mark.parametrize("name", sorted(MODULES) + ["__init__"])
def test_no_module_reads_generator_or_frame_internals(name):
    # what the package does must not hang on CPython's generator and frame internals
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    assert sorted(FRAME_NAMES.intersection(names_read(tree))) == []


# Every record takes ``==``, ``hash`` and ``repr`` from records.Record,
# written once there, and documents itself.


@pytest.mark.parametrize("cls", package_records(), ids=lambda cls: cls.__name__)
def test_record_defines_no_eq_hash_or_repr(cls):
    assert [name for name in ("__eq__", "__hash__", "__repr__") if name in vars(cls)] == []


def test_a_record_is_declared_by_subclassing_alone():
    # no decorator named record anywhere, and records binds no record
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    decorated = [
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        and "record" in {name for decorator in node.decorator_list for name in names_read(decorator)}
    ]
    assert decorated == []
    assert not hasattr(MODULES["records"], "record")
    assert [cls.__name__ for cls in package_records() if "__init__" not in vars(cls)] == []


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_record_has_its_own_docstring(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    record_names = {
        cls.__name__ for cls in package_records() if cls.__module__ == f"ftqc_estimator.{name}"
    }
    undocumented = [
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and node.name in record_names
        and not ast.get_docstring(node)
    ]
    assert undocumented == []


def test_errors_holds_only_errors():
    # the record layer lives in records, which imports errors, not the reverse
    errors = MODULES["errors"]
    classes = [value for value in vars(errors).values() if isinstance(value, type)]
    declared = [cls for cls in classes if cls.__module__ == errors.__name__]
    assert declared and [cls for cls in declared if not issubclass(cls, EstimatorError)] == []
    imported = {
        node.module
        for node in ast.walk(ast.parse((PACKAGE / "errors.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
    }
    assert imported == set()


def test_only_qec_builds_formula_rows_and_applies_the_distance_1_rule():
    # the factory search reads a qec._Rows table; it builds no row itself
    # and catches no formula error
    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    moved = {"FormulaDomainError", "DivisionByZeroError", "_distance_row", "_base_row"}
    assert moved & set(names(trees["tfactory"])) == set()
    callers = {
        stem
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "_distance_row" in names(node.func)
    }
    assert callers == {"qec"}


def test_only_the_reader_and_from_mapping_build_trace_events():
    # a reader is counted from its decoded lines: an event is built only when
    # one is taken from a reader, or read from a record by json.loads
    builders = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and (
                child.func.id == "TraceEvent" or child.func.id == "cls" and scope[:1] == ("TraceEvent",)
            ):
                builders.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse((PACKAGE / "counts.py").read_text()), ())
    assert builders == {"_TraceReader.__next__", "TraceEvent.from_mapping"}


def test_running_jobs_from_the_cli_leaves_csv_for_sweep_and_dataclasses_unloaded(tmp_path):
    # -S too: a site hook may import importlib.resources itself; built-in
    # profiles are read beside the package's files, without it.  Records
    # are made without dataclasses, which would bring inspect and its parsers
    golden = Path(__file__).parent / "golden"
    runs = {
        "gate_ns_e3_counts": ["estimate"],
        "frontier_custom_units": ["frontier", "--slowdown-grid", "1,1.5,2,4,8"],
    }
    argvs = [
        [command, "--job", str(golden / f"{name}.json"), *rest, "--out", str(tmp_path / name)]
        for name, (command, *rest) in runs.items()
    ]
    probe = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); from ftqc_estimator import cli; "
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]; "
        "print(json.dumps([codes, [name for name in sys.argv[3:] if name in sys.modules]]))"
    )
    unused = ["csv", "importlib.resources", "dataclasses", "inspect", "ast", "dis", "tokenize"]
    env = {key: value for key, value in os.environ.items() if key != "FTQC_PROFILE_DIR"}
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-W", "error", "-c", probe, str(PACKAGE.parent), json.dumps(argvs), *unused],
        capture_output=True, text=True, check=True, timeout=120, env=env,
    )
    assert json.loads(done.stdout) == [[0, 0], []]
    for name in runs:
        expected = json.loads((golden / "expected" / f"{name}.json").read_text())
        assert (tmp_path / name).read_text(encoding="utf-8") == expected["stdout"]
