"""Public API: each module's ``__all__`` and the names the package exports."""

import ast
import importlib
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
