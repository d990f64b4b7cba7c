"""Every registered hot entry point must name real code.

``_hot_paths`` skips a :data:`HOT_ENTRIES` suffix that matches no
function, so deleting or renaming an entry point would otherwise shrink
PERF001–003 coverage without any finding or error.
"""

from __future__ import annotations

from pathlib import Path

from repro.devtools.lint.context import ModuleContext
from repro.devtools.lint.graph import ProjectContext
from repro.devtools.lint.rules.hotpath import HOT_ENTRIES

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_every_hot_entry_matches_a_function_in_the_tree():
    modules = [
        ModuleContext.from_source(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SRC.rglob("*.py"))
    ]
    project = ProjectContext(modules)
    missing = [
        suffix for suffix in HOT_ENTRIES if not project.functions_matching(suffix)
    ]
    assert missing == []
