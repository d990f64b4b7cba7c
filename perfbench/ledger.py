"""Per-layer cost ledger for traced benchmark runs.

The ledger wraps the public entry points of each ``repro`` layer from
outside the program: nothing under ``src/`` is edited and the program's
own tracing (``repro.obs``) is not used.  Every wrapped call is one span;
spans are aggregated per entry point (count, total time, time spent in
wrapped children, items handled, and for a few entry points a latency
histogram) instead of being recorded one by one, because a campaign
makes millions of calls.

Self time of an entry point is its total time minus the time of the
wrapped spans it called.  Summing self times per layer splits the event
loop between layers; whatever the loop spends outside any wrapped span
(heap pops, dispatch, unwrapped callbacks) stays as the self time of
``Simulator.run`` and is reported as ``sim.loop_self_s``.

Install the wrappers before ``build_scenario`` runs: ``Network.__init__``
binds ``EventQueue.push_raw``/``push_batch`` and ``ProtocolNode`` binds
its handler table per instance, so wrappers installed later would never
see those calls.  ``sample_targets`` and ``validate_block`` are imported
by name into ``repro.node.node`` and are patched in that namespace.
"""

from __future__ import annotations

import importlib
import math
import time
from typing import Any, Callable, Optional

#: Layers whose self time is summed.  ``Simulator.run`` is the only span
#: of layer ``loop``: its self time is the unattributed rest (pop +
#: dispatch + unwrapped callbacks).
LAYERS = (
    "sim", "geo", "p2p", "node", "chain", "measurement", "obs", "setup",
    "fleet",
)

_BLOCK_MESSAGES = ("NewBlockMessage", "NewBlockHashesMessage")


def _one(args: tuple[Any, ...]) -> int:
    return 1


def _batch_len(args: tuple[Any, ...]) -> int:
    # push_batch(self, times, batch, priority)
    return len(args[1])


def _regions_len(args: tuple[Any, ...]) -> int:
    # delays(self, origin, destinations, size)
    return len(args[2])


def _wave_len(args: tuple[Any, ...]) -> int:
    # send_many/send_each(self, sender, recipients, message(s)); a wave of
    # one recipient is routed through ``send`` and counted there.
    count = len(args[2])
    return count if count > 1 else 0


def _block_message(args: tuple[Any, ...]) -> int:
    # deliver(self, sender_id, message)
    return 1 if type(args[2]).__name__ in _BLOCK_MESSAGES else 0


#: (module, owner class, attribute, layer, span name, items counter,
#: keep a latency histogram).  ``owner`` is ``""`` for a module-level
#: function, which is patched in that module's namespace.
ENTRY_POINTS: tuple[
    tuple[str, str, str, str, str, Optional[Callable[[tuple[Any, ...]], int]], bool],
    ...,
] = (
    ("repro.sim.engine", "Simulator", "run", "loop", "sim.run", None, False),
    ("repro.sim.events", "EventQueue", "push", "sim", "sim.push", _one, False),
    ("repro.sim.events", "EventQueue", "push_raw", "sim", "sim.push", _one, False),
    ("repro.sim.events", "EventQueue", "push_batch", "sim", "sim.push", _batch_len, False),
    ("repro.geo.latency", "LatencyModel", "delays", "geo", "geo.delays", _regions_len, True),
    ("repro.geo.latency", "LatencyModel", "delay", "geo", "geo.delays", _one, True),
    ("repro.p2p.network", "Network", "send", "p2p", "p2p.send", _one, False),
    ("repro.p2p.network", "Network", "send_many", "p2p", "p2p.wave", _wave_len, False),
    ("repro.p2p.network", "Network", "send_each", "p2p", "p2p.wave", _wave_len, False),
    ("repro.node.node", "", "sample_targets", "p2p", "p2p.sample_targets", None, False),
    ("repro.node.node", "ProtocolNode", "dial_peers", "p2p", "p2p.dial", None, False),
    ("repro.node.node", "ProtocolNode", "deliver", "node", "node.deliver", _block_message, True),
    ("repro.node.node", "ProtocolNode", "inject_block", "node", "node.entry", None, False),
    ("repro.node.node", "ProtocolNode", "submit_transaction", "node", "node.entry", None, False),
    # The node's own event callbacks, fired by the loop without going
    # through ``deliver``; left unwrapped they would read as loop cost.
    ("repro.node.node", "ProtocolNode", "_propagate_direct", "node", "node.entry", None, False),
    ("repro.node.node", "ProtocolNode", "_finish_import", "node", "node.entry", None, False),
    ("repro.node.node", "ProtocolNode", "_flush_tx_queues", "node", "node.entry", None, False),
    ("repro.node.pool", "MiningPool", "on_win", "node", "node.entry", None, False),
    ("repro.chain.forkchoice", "BlockTree", "add", "chain", "chain.tree", None, False),
    ("repro.node.node", "", "validate_block", "chain", "chain.validate", None, False),
    ("repro.chain.mempool", "Mempool", "add", "chain", "chain.mempool", None, False),
    ("repro.chain.mempool", "Mempool", "select", "chain", "chain.mempool", None, False),
    ("repro.chain.mempool", "Mempool", "remove_included", "chain", "chain.mempool", None, False),
    ("repro.chain.mempool", "Mempool", "reinject", "chain", "chain.mempool", None, False),
    ("repro.measurement.instrumented", "InstrumentedNode", "_observe_block_message", "measurement", "measurement.collect", None, False),
    ("repro.measurement.instrumented", "InstrumentedNode", "_observe_transactions", "measurement", "measurement.collect", None, False),
    ("repro.measurement.instrumented", "InstrumentedNode", "_observe_block_import", "measurement", "measurement.collect", None, False),
    ("repro.measurement.instrumented", "InstrumentedNode", "_observe_connection", "measurement", "measurement.collect", None, False),
    ("repro.measurement.campaign", "Campaign", "_collect", "measurement", "measurement.collect", None, False),
    ("repro.measurement.dataset", "MeasurementDataset", "save", "measurement", "measurement.save", None, False),
    ("repro.measurement.dataset", "MeasurementDataset", "load", "measurement", "measurement.load", None, False),
    ("repro.measurement.campaign", "", "build_scenario", "setup", "setup.build", None, False),
    ("repro.measurement.campaign", "Campaign", "deploy", "setup", "setup.deploy", None, False),
    ("repro.measurement.campaign", "Campaign", "save_trace", "obs", "obs.finalize", None, False),
    ("repro.experiments.fleet", "CampaignPool", "_spawn_worker", "fleet", "fleet.spawn", None, False),
    ("repro.experiments.fleet", "CampaignPool", "_harvest", "fleet", "fleet.harvest", None, False),
) + tuple(
    ("repro.obs.recorder", "TraceRecorder", name, "obs", "obs.emit", None, False)
    for name in (
        "node_registered", "lottery_win", "block_sealed", "gossip_send",
        "gossip_wave", "gossip_each", "delivery_dropped", "block_received",
        "fetch_started", "validation_started", "block_imported",
        "head_changed", "tx_first_seen", "node_offline", "node_online",
        "partition_started", "partition_healed", "link_fault",
        "set_queue_stats", "snapshot_metrics",
    )
)

#: Histogram resolution: sub-buckets per power of two.
_SUB = 16


class Span:
    """Aggregate of every call to the entry points sharing one name."""

    __slots__ = ("layer", "count", "total", "child", "items", "batches", "hist", "peak")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        #: Latency histogram; wrappers hold a reference, so it is only
        #: ever cleared in place.
        self.hist: dict[int, int] = {}
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.child = 0.0
        self.items = 0
        self.batches = 0
        self.hist.clear()
        self.peak = 0

    @property
    def self_s(self) -> float:
        return self.total - self.child

    def to_json(self) -> dict[str, Any]:
        return {
            "layer": self.layer, "count": self.count, "total": self.total,
            "child": self.child, "items": self.items, "batches": self.batches,
            "hist": {str(k): v for k, v in self.hist.items()}, "peak": self.peak,
        }

    def merge(self, data: dict[str, Any]) -> None:
        self.count += data["count"]
        self.total += data["total"]
        self.child += data["child"]
        self.items += data["items"]
        self.batches += data["batches"]
        for key, value in data["hist"].items():
            self.hist[int(key)] = self.hist.get(int(key), 0) + value
        self.peak = max(self.peak, data["peak"])

    def percentile_us(self, q: float) -> float:
        """Latency percentile in microseconds, from the histogram."""
        total = sum(self.hist.values())
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0
        for key in sorted(self.hist):
            seen += self.hist[key]
            if seen >= rank:
                exponent, sub = divmod(key, _SUB)
                # Midpoint of the bucket [sub, sub + 1) / _SUB * 2**exponent.
                return math.ldexp((sub + 0.5) / _SUB, exponent) * 1e6
        return 0.0


class Ledger:
    """Installs span wrappers and aggregates them per entry-point name."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        #: Per-layer self time accumulated while ``Simulator.run`` ran.
        self.loop_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self._stack: list[float] = [0.0]

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        for module_name, owner_name, attr, layer, name, items, hist in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            span = self.spans.get(name)
            if span is None:
                span = self.spans[name] = Span(layer)
            raw = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapper = self._wrap(fn, span, items, hist, name == "sim.push")
            if name == "sim.run":
                wrapper = self._loop_wrapper(wrapper)
            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def _wrap(
        self,
        fn: Callable[..., Any],
        span: Span,
        items: Optional[Callable[[tuple[Any, ...]], int]],
        hist: bool,
        depth: bool,
    ) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter
        frexp = math.frexp
        histogram = span.hist

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if items is not None:
                count = items(args)
                if count:
                    span.items += count
                    span.batches += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.child += stack.pop()
                stack[-1] += elapsed
                span.count += 1
                span.total += elapsed
                if hist and elapsed > 0.0:
                    mantissa, exponent = frexp(elapsed)
                    key = exponent * _SUB + int(mantissa * _SUB)
                    histogram[key] = histogram.get(key, 0) + 1
                if depth:
                    size = len(args[0])
                    if size > span.peak:
                        span.peak = size

        return wrapper

    def _loop_wrapper(self, inner: Callable[..., Any]) -> Callable[..., Any]:
        """Credit the layer self time accrued inside ``Simulator.run``."""

        def run(*args: Any, **kwargs: Any) -> Any:
            before = self.layer_self()
            try:
                return inner(*args, **kwargs)
            finally:
                for layer, value in self.layer_self().items():
                    self.loop_self[layer] += value - before[layer]

        return run

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    def layer_self(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans.values():
            if span.layer in totals:
                totals[span.layer] += span.self_s
        return totals

    def reset(self) -> None:
        """Zero every aggregate (a fleet worker does this per job)."""
        for span in self.spans.values():
            span.reset()
        for layer in self.loop_self:
            self.loop_self[layer] = 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": {name: span.to_json() for name, span in self.spans.items()},
            "loop_self": dict(self.loop_self),
        }

    def merge(self, data: dict[str, Any]) -> None:
        for name, span_data in data["spans"].items():
            span = self.spans.get(name)
            if span is None:
                span = self.spans[name] = Span(span_data["layer"])
            span.merge(span_data)
        for layer, value in data["loop_self"].items():
            self.loop_self[layer] = self.loop_self.get(layer, 0.0) + value
