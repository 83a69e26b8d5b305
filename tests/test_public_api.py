"""Public API: each module's ``__all__`` and the names the package exports."""

import ast
import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import ftqc_estimator

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


def package_dataclasses():
    """Every dataclass the package's modules define, in module order."""
    return [
        value
        for module in MODULES.values()
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and dataclasses.is_dataclass(value)
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


# Importing the package should generate only what each dataclass needs:
# ``==``, ``hash`` and ``repr`` come from errors.Record, and a class
# without a docstring makes dataclasses build one from its signature.


@pytest.mark.parametrize("cls", package_dataclasses(), ids=lambda cls: cls.__name__)
def test_dataclass_generates_no_eq_hash_or_repr(cls):
    assert [name for name in ("__eq__", "__hash__", "__repr__") if name in vars(cls)] == []


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_dataclass_has_its_own_docstring(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    dataclass_names = {
        cls.__name__ for cls in package_dataclasses() if cls.__module__ == f"ftqc_estimator.{name}"
    }
    undocumented = [
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and node.name in dataclass_names
        and not ast.get_docstring(node)
    ]
    assert undocumented == []


def test_importing_the_cli_leaves_csv_for_sweep():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ftqc_estimator.cli; "
        "print('csv' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "False"
