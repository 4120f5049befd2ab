"""The package's public surface: what each module exports resolves, the
package root re-exports exactly what it imports, no module imports a name
it never uses, and every module-level name outside __all__ is used
somewhere else in the package."""
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


def _definitions(tree: ast.Module):
    """(name, node) of each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _references(nodes) -> set[str]:
    """The names that the given nodes read, import or look up as attributes."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(a.name for a in sub.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_unexported_definition_is_used(name):
    # a module-level name that is not exported exists for the package's own use
    trees = {m: _tree(m) for m in MODULES}
    other_modules = _references(t for m, t in trees.items() if m != name)
    exported = set(getattr(_module(name), "__all__", []))
    unused = []
    for defined, node in _definitions(trees[name]):
        if defined in exported or (defined.startswith("__") and defined.endswith("__")):
            continue
        rest_of_module = (n for n in trees[name].body if n is not node)
        if defined not in other_modules | _references(rest_of_module):
            unused.append(defined)
    assert unused == []
