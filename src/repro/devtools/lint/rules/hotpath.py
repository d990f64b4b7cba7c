"""Hot-path hygiene rules (PERF001–PERF004), cross-module.

The event loop dispatches tens of millions of events per run (54.3M in
the 15k-peer mainnet hour); a single stray allocation, closure, or
f-string on the dispatch path costs minutes of wall clock.  These rules
hold the *transitive* callees of the hot entry points to the standards
the hot code itself was written to (PR 1/PR 7 profiling):

* PERF001 — no per-call closure construction or container allocation
  inside loops;
* PERF002 — no string formatting (f-strings, ``str.format``,
  ``print``) — reporting belongs to trace records, and error text to
  the ``raise`` path (which is exempt);
* PERF003 — no scalar ``Network.send`` inside a loop where the wave
  API (``send_many``/``send_each``) prices the whole fan-out in one
  vectorized draw;
* PERF004 — no direct ``heapq`` imports outside ``repro.sim``: event
  ordering is :class:`~repro.sim.events.EventQueue`'s contract, and a
  hand-rolled heap elsewhere silently bypasses its ``(time, priority,
  sequence)`` tie-ordering.

The registry of hot entry points lives in :data:`HOT_ENTRIES`; mark
additional entry points with a ``# repro: hotpath`` comment on (or
directly above) the ``def`` line.  Traversal follows *unguarded* edges
only: calls behind ``...enabled`` trace guards or inside
``raise``/``assert`` error paths are cold by construction.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.context import ModuleContext
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.graph.callgraph import Site
from repro.devtools.lint.graph.project import ProjectContext
from repro.devtools.lint.registry import ProjectRule, Rule, register

#: Qualname suffixes of the hot entry points.  Extend in source with a
#: ``# repro: hotpath`` marker rather than here — the marker keeps the
#: declaration next to the code it describes.
HOT_ENTRIES: tuple[str, ...] = (
    "Simulator.run",
    "EventQueue.push_batch",
    "Network.send",
    "Network.send_many",
    "Network.send_each",
    "WaveDelivery.fire",
)


def _hot_paths(project: ProjectContext) -> dict[str, tuple[str, ...]]:
    """Qualname -> path-from-entry for everything hot-reachable."""
    roots: list[str] = []
    for suffix in HOT_ENTRIES:
        roots.extend(info.qualname for info in project.functions_matching(suffix))
    for qualname in sorted(project.index.functions):
        if project.index.functions[qualname].hot_marked:
            roots.append(qualname)
    return project.summaries.reachable(sorted(set(roots)), include_guarded=False)


def _route(path: tuple[str, ...]) -> str:
    if len(path) == 1:
        return f"hot entry point {path[0]}"
    return f"hot path {' -> '.join(path)}"


class _HotSiteRule(ProjectRule):
    """Shared traversal: subclasses pick the sites and the message."""

    def sites(self, project: ProjectContext, qualname: str) -> list[Site]:
        raise NotImplementedError

    message: str = ""

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        hot = _hot_paths(project)
        for qualname in sorted(hot):
            facts = project.graph.facts.get(qualname)
            if facts is None:
                continue
            for site in self.sites(project, qualname):
                if site.guarded:
                    continue
                detail = f" ({site.detail})" if site.detail else ""
                yield project.finding(
                    self.rule_id,
                    facts.info.relpath,
                    site.lineno,
                    site.col,
                    f"{self.message}{detail} on {_route(hot[qualname])}",
                )


@register
class HotAllocationRule(_HotSiteRule):
    """PERF001 — hot callees allocate nothing per call."""

    rule_id = "PERF001"
    title = "allocation/closure on a hot dispatch path"
    invariant = (
        "transitive callees of the hot entry points build no closures "
        "and no per-iteration containers — the event loop's cost is "
        "dispatch, not garbage"
    )
    suggestion = (
        "hoist the closure/container out of the call (pooled event "
        "records, preallocated buffers), or mark the containing "
        "function cold by moving it behind a guard"
    )
    message = "per-call allocation"

    def sites(self, project: ProjectContext, qualname: str) -> list[Site]:
        facts = project.graph.facts[qualname]
        return [*facts.closures, *facts.allocs_in_loop]


@register
class HotFormattingRule(_HotSiteRule):
    """PERF002 — no string building on hot paths."""

    rule_id = "PERF002"
    title = "string formatting on a hot dispatch path"
    invariant = (
        "hot code never formats text — observations are typed trace "
        "records, error text lives on the raise path"
    )
    suggestion = (
        "emit a trace record / metric instead, or move the formatting "
        "into the raise statement (exempt as an error path)"
    )
    message = "string formatting"

    def sites(self, project: ProjectContext, qualname: str) -> list[Site]:
        return list(project.graph.facts[qualname].fstrings)


@register
class HotScalarSendRule(_HotSiteRule):
    """PERF003 — use the wave API for fan-out."""

    rule_id = "PERF003"
    title = "scalar send inside a loop on a hot path"
    invariant = (
        "gossip fan-out is priced as one vectorized wave "
        "(`send_many`/`send_each`), never one latency draw per peer"
    )
    suggestion = (
        "collect the recipients and issue one `network.send_many(...)` "
        "/ `send_each(...)` call for the wave"
    )
    message = "scalar `send` in a loop — use the send_many/send_each wave API"

    def sites(self, project: ProjectContext, qualname: str) -> list[Site]:
        return list(project.graph.facts[qualname].scalar_sends_in_loop)


#: The one layer allowed to touch ``heapq`` directly: the event queue
#: itself (and the engine loop that inlines its pops).
_QUEUE_LAYER = "repro/sim/"


@register
class DirectHeapqImportRule(Rule):
    """PERF004 — priority-queue access goes through the event queue."""

    rule_id = "PERF004"
    title = "direct heapq import outside repro.sim"
    invariant = (
        "event ordering lives in repro.sim's EventQueue; no other "
        "layer hand-rolls a heap, so the (time, priority, sequence) "
        "tie-ordering contract has exactly one home"
    )
    suggestion = (
        "schedule through Simulator/EventQueue instead; for non-event "
        "priority work justify the import with "
        "`# repro: noqa[PERF004] <why>`"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if _QUEUE_LAYER in module.relpath:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "heapq" or alias.name.startswith("heapq."):
                        yield self.finding(
                            module,
                            node,
                            "direct `import heapq` outside repro.sim — "
                            "event ordering belongs to EventQueue",
                        )
                        break
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "heapq":
                    yield self.finding(
                        module,
                        node,
                        "direct `from heapq import ...` outside repro.sim — "
                        "event ordering belongs to EventQueue",
                    )
