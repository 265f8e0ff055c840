"""The bench tracer wraps package functions at the module attributes their
callers look them up through, so an attribute that is renamed or dropped
breaks every traced bench run.  This reads the tracer's SITES table without
importing or executing it and checks each site against the package."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_sites():
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SITES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SITES table in {TRACER}")


def test_every_traced_site_exists():
    sites = _traced_sites()
    assert sites
    missing = [f"tactsim.{module}.{attr}" for module, attr, _ in sites
               if not hasattr(importlib.import_module(f"tactsim.{module}"), attr)]
    assert not missing, f"the bench tracer wraps attributes that do not exist: {missing}"
