"""The package's public surface: what each module exports resolves, the
package root re-exports exactly what it imports, and no module imports a
name it never uses."""
import ast
import importlib
from pathlib import Path

import pytest

import bb84rate

PACKAGE_DIR = Path(bb84rate.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py"))


def _module(name: str):
    return importlib.import_module("bb84rate" if name == "__init__" else f"bb84rate.{name}")


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE_DIR / f"{name}.py").read_text())


def _imported_names(tree: ast.Module) -> set[str]:
    """The names a module's import statements bind, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = _module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_root_exports_what_it_imports():
    assert set(bb84rate.__all__) == _imported_names(_tree("__init__"))


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_import(name):
    tree = _tree(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in __all__ is imported to be re-exported
    used.update(getattr(_module(name), "__all__", []))
    assert sorted(_imported_names(tree) - used) == []
