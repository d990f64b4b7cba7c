"""The benchmark ledger's wrapped names must exist in the program.

``perfbench/ledger.py`` wraps each ``ENTRY_POINTS`` entry by looking the
attribute up in its owner's ``__dict__`` (or the module namespace for a
module-level function).  A refactor that deletes or moves a wrapped
name would only fail inside a traced benchmark run; this test fails it
in tier-1 instead.  The ledger module is loaded read-only: nothing is
installed or patched.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[2] / "perfbench" / "ledger.py"


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
