"""Guard for the benchmark's traced runs.

bench/tracer.py patches each (module, attribute) binding in its CALL_SITES
table; a refactor that renames or removes one breaks traced runs silently.
The table is read from the file, not imported, so the guard runs no
benchmark code.
"""
import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def call_sites():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CALL_SITES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no CALL_SITES table in {TRACER}")


def test_every_call_site_resolves_to_a_callable():
    sites = call_sites()
    assert sites
    for module_name, attr, layer in sites:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} (layer {layer}) is not callable"


def test_max_tolerable_loss_accepts_optimize_params():
    from bb84rate.optimize import max_tolerable_loss
    assert "optimize_params" in inspect.signature(max_tolerable_loss).parameters
