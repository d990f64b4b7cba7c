"""Ground-truth observability: tracing, metrics, and trace analysis.

The simulator records what the paper's vantage infrastructure could only
approximate — every gossip hop, validation, and head switch at true
simulated time — plus a labeled metrics registry sampled on the sim
timeline.  See DESIGN.md §5e for the architecture.

Import layering: the engine (:mod:`repro.sim.engine`) imports
:mod:`repro.obs.recorder`, so this package's eager surface is restricted
to the sim-free core (records, metrics, recorder, export).  The analysis
and scheduling helpers (:mod:`repro.obs.blocktrace`,
:mod:`repro.obs.snapshot`) import the simulator and measurement layers,
and are therefore loaded lazily via PEP 562 on first attribute access.
"""

from typing import Any

from repro.obs.columns import KindBlock, TraceColumns, TraceSource
from repro.obs.export import (
    TRACE_SCHEMA_VERSION,
    Trace,
    TraceScan,
    convert_trace,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    series_key,
)
from repro.obs.recorder import TraceRecorder
from repro.obs.records import (
    TRACE_RECORD_TYPES,
    BlockImported,
    BlockReceived,
    BlockSealed,
    DeliveryDropped,
    FetchStarted,
    GossipSend,
    HeadChanged,
    LinkFault,
    LotteryWin,
    MetricsSample,
    NodeOffline,
    NodeOnline,
    NodeRegistered,
    PartitionHealed,
    PartitionStarted,
    TraceRecord,
    TxFirstSeen,
    ValidationStarted,
    trace_to_json,
)

#: Lazily resolved attribute -> providing submodule (PEP 562).
_LAZY_ATTRS = {
    "PropagationNode": "repro.obs.blocktrace",
    "PropagationTree": "repro.obs.blocktrace",
    "VantageDelta": "repro.obs.blocktrace",
    "build_propagation_tree": "repro.obs.blocktrace",
    "node_directory": "repro.obs.blocktrace",
    "render_campaign_summary": "repro.obs.blocktrace",
    "render_delta_report": "repro.obs.blocktrace",
    "render_propagation_tree": "repro.obs.blocktrace",
    "resolve_block_hash": "repro.obs.blocktrace",
    "vantage_deltas": "repro.obs.blocktrace",
    "DEFAULT_SNAPSHOT_PERIOD": "repro.obs.snapshot",
    "MetricsSnapshotter": "repro.obs.snapshot",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY_ATTRS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(__all__) | set(globals()))


__all__ = [
    "BlockImported",
    "BlockReceived",
    "BlockSealed",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SNAPSHOT_PERIOD",
    "DeliveryDropped",
    "FetchStarted",
    "Gauge",
    "GossipSend",
    "HeadChanged",
    "Histogram",
    "LinkFault",
    "LotteryWin",
    "MetricsRegistry",
    "MetricsSample",
    "MetricsSnapshotter",
    "NodeOffline",
    "NodeOnline",
    "NodeRegistered",
    "PartitionHealed",
    "PartitionStarted",
    "PropagationNode",
    "PropagationTree",
    "KindBlock",
    "TRACE_RECORD_TYPES",
    "TRACE_SCHEMA_VERSION",
    "Trace",
    "TraceColumns",
    "TraceRecord",
    "TraceRecorder",
    "TraceScan",
    "TraceSource",
    "TxFirstSeen",
    "ValidationStarted",
    "VantageDelta",
    "build_propagation_tree",
    "convert_trace",
    "node_directory",
    "render_campaign_summary",
    "render_delta_report",
    "render_propagation_tree",
    "resolve_block_hash",
    "series_key",
    "trace_to_json",
    "vantage_deltas",
]
