"""The names the benchmark uses must exist in the program.

``perfbench/ledger.py`` wraps each ``ENTRY_POINTS`` entry by looking the
attribute up in its owner's ``__dict__`` (or the module namespace for a
module-level function), and ``perfbench/job.py`` imports names from
``repro`` and calls attributes on them (``Trace.scan``).  A refactor
that deletes or moves one of those names would only fail inside a
benchmark run; these tests fail it in tier-1 instead.  The ledger module
is loaded read-only and the job script is only parsed: nothing is
installed, patched or run.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"
LEDGER = PERFBENCH / "ledger.py"
JOB = PERFBENCH / "job.py"


def _entry_points() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_ledger", LEDGER)
    assert spec is not None and spec.loader is not None
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    return ledger.ENTRY_POINTS


def test_every_ledger_entry_point_resolves():
    entries = _entry_points()
    assert entries
    unresolved = []
    for module_name, owner_name, attr, *_ in entries:
        module = importlib.import_module(module_name)
        namespace = vars(getattr(module, owner_name)) if owner_name else vars(module)
        if attr not in namespace:
            unresolved.append(f"{module_name}:{owner_name or '<module>'}.{attr}")
    assert unresolved == []


def _imported(module_name: str, name: str) -> object:
    """What ``from module_name import name`` binds, or None."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return None


def test_every_name_the_job_script_uses_resolves():
    tree = ast.parse(JOB.read_text(encoding="utf-8"), filename=str(JOB))
    bound: dict[str, object] = {}
    unresolved = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.module.split(".")[0] != "repro":
            continue
        for alias in node.names:
            value = _imported(node.module, alias.name)
            if value is None:
                unresolved.append(f"{node.module}:{alias.name}")
            bound[alias.asname or alias.name] = value
    attributes = {
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id in bound
    }
    for dotted in sorted(attributes):
        owner, attr = dotted.split(".")
        if not hasattr(bound[owner], attr):
            unresolved.append(dotted)
    assert "Trace.scan" in attributes
    assert unresolved == []
