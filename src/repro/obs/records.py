"""Trace record schema: the ground-truth events the simulator can emit.

Vantage logs (:mod:`repro.measurement.records`) model what the paper
*could* observe — NTP-stamped receptions at a handful of nodes.  Trace
records model what the paper could only infer: every hop of every block
and transaction, stamped with **true simulated time**.  A trace is the
ground truth the measurement logs approximate, which is what lets
``repro trace`` quantify the measurement error the paper could only
bound analytically.

Records are frozen, slotted dataclasses.  Traces persist as the
columnar ``.trace.bin`` container (:mod:`repro.obs.binio`);
:func:`trace_to_json` gives the type-tagged JSON form that the JSONL
export writes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any


@dataclass(frozen=True, slots=True)
class NodeRegistered:
    """A node joined the network fabric (trace-time name/id directory).

    Attributes:
        time: Simulated registration time.
        node: Human-readable node name (``reg-0003``, ``gw-Ethermine-0``,
            vantage names ...).
        node_id: The node's wire identifier (what receptions reference).
        region: Geographic region value.
    """

    time: float
    node: str
    node_id: int
    region: str


@dataclass(frozen=True, slots=True)
class LotteryWin:
    """The global PoW lottery assigned a win to a pool."""

    time: float
    pool: str
    block_hashes: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class BlockSealed:
    """A pool sealed one block (one record per one-miner-fork variant)."""

    time: float
    block_hash: str
    parent_hash: str
    height: int
    pool: str
    variant: int
    variants: int
    tx_count: int


@dataclass(frozen=True, slots=True)
class GossipSend:
    """One routed wire message: a gossip hop with its sampled latency.

    ``latency`` is the delay the fabric sampled for this hop, so the
    delivery fires at ``time + latency`` — the trace captures the full
    per-hop propagation timing the paper's vantage logs can only see the
    endpoints of.
    """

    time: float
    kind: str
    sender: str
    recipient: str
    sender_region: str
    recipient_region: str
    size: int
    latency: float
    block_hash: str = ""
    tx_count: int = 0


@dataclass(frozen=True, slots=True)
class DeliveryDropped:
    """An in-flight message arrived after its link was torn down."""

    time: float
    kind: str
    sender: str
    recipient: str
    block_hash: str = ""


@dataclass(frozen=True, slots=True)
class BlockReceived:
    """A block-bearing message arrived at a node (duplicates included).

    Every reception is recorded — not just the first — because reception
    redundancy (the paper's Table II) is exactly the duplicate stream.
    """

    time: float
    node: str
    block_hash: str
    height: int
    peer_id: int
    direct: bool


@dataclass(frozen=True, slots=True)
class FetchStarted:
    """An announcement triggered a header/body fetch."""

    time: float
    node: str
    block_hash: str
    peer_id: int


@dataclass(frozen=True, slots=True)
class ValidationStarted:
    """A node began validating/importing a block (header check + PoW)."""

    time: float
    node: str
    block_hash: str
    height: int


@dataclass(frozen=True, slots=True)
class BlockImported:
    """A block finished import into a node's local tree."""

    time: float
    node: str
    block_hash: str
    height: int
    head_changed: bool


@dataclass(frozen=True, slots=True)
class HeadChanged:
    """A node's canonical head switched (``reorg_depth`` 0 = advance).

    ``reorg_depth`` counts the blocks that fell off the node's canonical
    chain; 0 means the new head simply extended the old one.
    """

    time: float
    node: str
    old_head: str
    new_head: str
    height: int
    reorg_depth: int


@dataclass(frozen=True, slots=True)
class TxFirstSeen:
    """A transaction entered a node's mempool for the first time.

    ``peer_id`` is ``-1`` for locally submitted transactions (the
    wallet/RPC path), else the delivering peer.
    """

    time: float
    node: str
    tx_hash: str
    peer_id: int


@dataclass(frozen=True, slots=True)
class NodeOffline:
    """The fault layer took a node offline.

    ``crash`` distinguishes an abrupt crash (mempool and in-flight state
    lost) from graceful churn (state kept, links torn down).
    """

    time: float
    node: str
    crash: bool


@dataclass(frozen=True, slots=True)
class NodeOnline:
    """A churned or crashed node came back online (re-dial + resync)."""

    time: float
    node: str


@dataclass(frozen=True, slots=True)
class PartitionStarted:
    """A regional partition began: the listed island is cut off."""

    time: float
    regions: tuple[str, ...]
    duration: float


@dataclass(frozen=True, slots=True)
class PartitionHealed:
    """A regional partition healed; cross-island routing resumed."""

    time: float
    regions: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class LinkFault:
    """A per-message link fault fired (drop/duplicate/jitter/partition).

    ``extra_delay`` is the injected additional latency for ``jitter``
    (and the duplicate copy's offset for ``duplicate``); 0 otherwise.
    """

    time: float
    kind: str
    fault: str
    sender: str
    recipient: str
    extra_delay: float = 0.0


@dataclass(frozen=True, slots=True)
class MetricsSample:
    """A point-in-time snapshot of the metrics registry on the sim clock."""

    time: float
    metrics: dict[str, float]


#: Union of every trace record type (what a trace file round-trips).
TraceRecord = (
    NodeRegistered
    | LotteryWin
    | BlockSealed
    | GossipSend
    | DeliveryDropped
    | BlockReceived
    | FetchStarted
    | ValidationStarted
    | BlockImported
    | HeadChanged
    | TxFirstSeen
    | NodeOffline
    | NodeOnline
    | PartitionStarted
    | PartitionHealed
    | LinkFault
    | MetricsSample
)

#: Every record type above, keyed by class name (the JSON ``_type`` tag).
TRACE_RECORD_TYPES: dict[str, type[Any]] = {
    cls.__name__: cls
    for cls in (
        NodeRegistered,
        LotteryWin,
        BlockSealed,
        GossipSend,
        DeliveryDropped,
        BlockReceived,
        FetchStarted,
        ValidationStarted,
        BlockImported,
        HeadChanged,
        TxFirstSeen,
        NodeOffline,
        NodeOnline,
        PartitionStarted,
        PartitionHealed,
        LinkFault,
        MetricsSample,
    )
}


def trace_to_json(record: TraceRecord) -> dict[str, Any]:
    """Serialise a trace record to a JSON-compatible dict with a type tag."""
    payload = asdict(record)
    payload["_type"] = type(record).__name__
    return payload

