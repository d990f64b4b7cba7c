"""The trace recorder every simulation component emits into.

One concrete class, always present as ``Simulator.trace``, created
*disabled*.  Components bind the recorder object once at construction
(it never gets swapped out), and hot paths guard with
``if trace.enabled:`` — when tracing is off, the cost per hook site is a
single attribute check, which is what keeps the no-op default within
the <2% throughput budget.

When tracing is *on*, emit methods append into per-kind columnar ring
buffers (:mod:`repro.obs.columns`): one ``array.extend(tuple)`` per
record, strings interned through the trace symbol table, no per-record
object allocation.  Metrics are **not** maintained per record — emit
sites only touch the columns, and the registry catches up in batch
(:meth:`TraceRecorder.sync_metrics`) whenever it is read: at every
periodic snapshot, at trace export, and whenever a sealed block leaves
the buffer.  The registry is therefore eventually consistent between
sync points but exact at every observation point, and the traced hot
path costs about what a metrics counter used to.

Determinism contract: no method here draws randomness, schedules
events, or reads wall clocks (statically enforced by OBS101/OBS102
over the transitive call graph).  Enabling tracing therefore cannot
change RNG draw order or event order — only the amount of bookkeeping
done while each event runs.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.obs.columns import BLOCK_ROWS, KindStore, TraceColumns
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.records import (
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
)

#: Reorg-depth histogram edges (blocks), matching the registry metric.
_REORG_EDGES = (1.0, 2.0, 3.0, 5.0, 8.0)

#: Latency bucket edges as an ndarray for the vectorized gossip drain.
_LATENCY_EDGES = np.array(DEFAULT_LATENCY_BUCKETS, dtype=np.float64)


class TraceRecorder:
    """Collects trace records into columnar buffers and (in batch)
    feeds the metrics registry.

    Attributes:
        enabled: Master switch.  ``False`` (the default) makes every
            hook site a no-op behind a single boolean check.
        columns: The columnar store the emit methods append into.
        registry: The labeled metrics registry.  Batch-updated: call
            :meth:`sync_metrics` (or :meth:`snapshot_metrics`, which
            does) before reading values directly.
    """

    __slots__ = (
        "enabled",
        "columns",
        "registry",
        # Interning + hot-kind staging bindings (stable array objects).
        "_sym",
        "_idtab",
        "_gossip_rows",
        "_received_rows",
        "_fetch_rows",
        "_validation_rows",
        "_imported_rows",
        "_head_rows",
        "_tx_rows",
        "_dropped_rows",
        "_gossip_limit",
        "_received_limit",
        "_fetch_limit",
        "_validation_limit",
        "_imported_limit",
        "_head_limit",
        "_tx_limit",
        "_dropped_limit",
        # node_id -> (name sym, region sym), filled at registration
        # (lazily for nodes registered before tracing was enabled).
        "_node_syms",
        # Deferred metric aggregates (cleared on every sync).
        "_drains",
        "_agg_gossip",
        "_agg_dropped",
        "_agg_sealed",
        "_agg_link",
        "_agg_receptions",
        "_agg_offline",
        "_agg_head",
        "_agg_head_height",
        "_agg_counts",
        # Registry series (written only from _apply_aggregates).
        "_gossip_total",
        "_gossip_bytes",
        "_gossip_latency",
        "_deliveries_dropped",
        "_blocks_sealed",
        "_block_receptions",
        "_fetches",
        "_validations",
        "_imports",
        "_head_changes",
        "_reorgs",
        "_reorg_depth",
        "_tx_first_seen",
        "_head_height",
        "_nodes",
        "_faults_offline",
        "_faults_online",
        "_faults_nodes_offline",
        "_faults_partitions",
        "_faults_link",
        "_queue_depth",
        "_queue_live",
        "_queue_pushed",
        "_queue_cancelled",
        "_queue_compactions",
        "_queue_resizes",
        "_queue_buckets",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.columns = TraceColumns()
        self._sym = self.columns.symbols
        self._idtab = self.columns.ids
        stores = self.columns.stores
        for kind, attr in (
            (GossipSend, "gossip"),
            (BlockReceived, "received"),
            (FetchStarted, "fetch"),
            (ValidationStarted, "validation"),
            (BlockImported, "imported"),
            (HeadChanged, "head"),
            (TxFirstSeen, "tx"),
            (DeliveryDropped, "dropped"),
        ):
            store = stores[kind]
            setattr(self, f"_{attr}_rows", store.rows)
            setattr(self, f"_{attr}_limit", store.limit)
        self._node_syms: dict[int, tuple[Any, Any]] = {}
        self._drains: dict[type[Any], Callable[[KindStore], None]] = {
            NodeRegistered: self._drain_registered,
            BlockSealed: self._drain_sealed,
            GossipSend: self._drain_gossip,
            DeliveryDropped: self._drain_dropped,
            BlockReceived: self._drain_received,
            FetchStarted: self._drain_fetches,
            ValidationStarted: self._drain_validations,
            BlockImported: self._drain_imports,
            HeadChanged: self._drain_head,
            TxFirstSeen: self._drain_tx,
            NodeOffline: self._drain_offline,
            NodeOnline: self._drain_online,
            PartitionStarted: self._drain_partitions,
            LinkFault: self._drain_link,
        }
        self._agg_gossip: dict[int, list[Any]] = {}
        self._agg_dropped: dict[float, int] = {}
        self._agg_sealed: dict[float, int] = {}
        self._agg_link: dict[float, int] = {}
        self._agg_receptions = [0, 0]  # [direct, announce]
        self._agg_offline = [0, 0]  # [churn, crash]
        self._agg_head: list[Any] = [0, 0, 0.0, [0] * (len(_REORG_EDGES) + 1)]
        self._agg_head_height: dict[float, float] = {}
        self._agg_counts = {
            "registered": 0,
            "fetches": 0,
            "validations": 0,
            "imports": 0,
            "tx": 0,
            "online": 0,
            "partitions": 0,
        }
        self.registry = MetricsRegistry()
        reg = self.registry
        self._gossip_total = reg.counter(
            "gossip_messages_total", help="Routed wire messages by kind."
        )
        self._gossip_bytes = reg.counter(
            "gossip_bytes_total", help="Routed wire bytes by kind."
        )
        self._gossip_latency = reg.histogram(
            "gossip_latency_seconds",
            edges=DEFAULT_LATENCY_BUCKETS,
            help="Sampled per-hop link latency by message kind.",
        )
        self._deliveries_dropped = reg.counter(
            "deliveries_dropped_total",
            help="In-flight messages whose link was torn down.",
        )
        self._blocks_sealed = reg.counter(
            "blocks_sealed_total", help="Blocks sealed, labeled by pool."
        )
        self._block_receptions = reg.counter(
            "block_receptions_total",
            help="Block-bearing message arrivals (duplicates included).",
        )
        self._fetches = reg.counter(
            "block_fetches_total", help="Header/body fetches triggered."
        )
        self._validations = reg.counter(
            "block_validations_total", help="Block validations started."
        )
        self._imports = reg.counter(
            "blocks_imported_total", help="Blocks imported into local trees."
        )
        self._head_changes = reg.counter(
            "head_changes_total", help="Canonical head switches."
        )
        self._reorgs = reg.counter(
            "reorgs_total", help="Head switches that orphaned >= 1 block."
        )
        self._reorg_depth = reg.histogram(
            "reorg_depth_blocks",
            edges=_REORG_EDGES,
            help="Blocks dropped from a node's canonical chain per reorg.",
        )
        self._tx_first_seen = reg.counter(
            "tx_first_seen_total", help="Transactions entering mempools."
        )
        self._head_height = reg.gauge(
            "node_head_height", help="Best head height, labeled by node."
        )
        self._nodes = reg.gauge(
            "nodes_registered", help="Nodes registered on the fabric."
        )
        self._faults_offline = reg.counter(
            "faults_node_offline_total",
            help="Nodes taken offline by the fault layer, by cause.",
        )
        self._faults_online = reg.counter(
            "faults_node_online_total",
            help="Fault-layer rejoins and restarts.",
        )
        self._faults_nodes_offline = reg.gauge(
            "faults_nodes_offline",
            help="Nodes currently offline due to injected faults.",
        )
        self._faults_partitions = reg.counter(
            "faults_partitions_total", help="Partition windows started."
        )
        self._faults_link = reg.counter(
            "faults_link_faults_total",
            help="Per-message link faults, by fault kind.",
        )
        # Event-queue counters, sampled (not incremented) from
        # ``Simulator.queue_stats()`` at every metrics snapshot — gauges,
        # because the queue owns the authoritative counters and the
        # recorder only mirrors them.
        self._queue_depth = reg.gauge(
            "sim_queue_depth",
            help="Event-queue entries (cancelled corpses included).",
        )
        self._queue_live = reg.gauge(
            "sim_queue_live", help="Live scheduled events."
        )
        self._queue_pushed = reg.gauge(
            "sim_queue_pushed_total", help="Events ever pushed."
        )
        self._queue_cancelled = reg.gauge(
            "sim_queue_cancelled_pending",
            help="Cancelled entries awaiting lazy removal.",
        )
        self._queue_compactions = reg.gauge(
            "sim_queue_compactions_total",
            help="Corpse-compaction passes run.",
        )
        self._queue_resizes = reg.gauge(
            "sim_queue_resizes_total", help="Always 0 (see set_queue_stats)."
        )
        self._queue_buckets = reg.gauge(
            "sim_queue_buckets", help="Always 0 (see set_queue_stats)."
        )

    # ----------------------------------------------------------------- #
    # Compatibility views
    # ----------------------------------------------------------------- #

    @property
    def events(self) -> list[TraceRecord]:
        """Every record so far, materialized in chronological order.

        A convenience view for tests and small analyses — it decodes
        the columns back into dataclasses on every access.  Hot-path
        consumers read :attr:`columns` directly.
        """
        return list(self.columns.iter_records())

    # ----------------------------------------------------------------- #
    # Emit methods.  Call sites guard with `if trace.enabled:` so the
    # disabled path never pays for argument packing.  Bodies append to
    # the interleaved staging arrays bound at construction; the bound
    # array objects are stable because sealing clears them in place.
    # ----------------------------------------------------------------- #

    def node_registered(
        self, time: float, node: str, node_id: int, region: str
    ) -> None:
        """A node joined the network fabric."""
        sym = self._sym
        node_sym = sym[node]
        region_sym = sym[region]
        self._node_syms[node_id] = (node_sym, region_sym)
        store = self.columns.stores[NodeRegistered]
        store.rows.extend((time, node_sym, self._idtab[node_id], region_sym))
        if len(store.rows) >= store.limit:
            self._seal(NodeRegistered, store)

    def lottery_win(
        self, time: float, pool: str, block_hashes: tuple[str, ...]
    ) -> None:
        """The global PoW lottery assigned a win to ``pool``."""
        sym = self._sym
        store = self.columns.stores[LotteryWin]
        store.rows.extend((time, sym[pool]))
        store.varlen["block_hashes"].append(
            tuple(sym[item] for item in block_hashes)
        )
        if store.staged_rows >= BLOCK_ROWS:
            self._seal(LotteryWin, store)

    def block_sealed(
        self,
        time: float,
        block_hash: str,
        parent_hash: str,
        height: int,
        pool: str,
        variant: int,
        variants: int,
        tx_count: int,
    ) -> None:
        """A pool sealed a block (one call per one-miner-fork variant)."""
        sym = self._sym
        store = self.columns.stores[BlockSealed]
        store.rows.extend(
            (
                time,
                sym[block_hash],
                sym[parent_hash],
                height,
                sym[pool],
                variant,
                variants,
                tx_count,
            )
        )
        if len(store.rows) >= store.limit:
            self._seal(BlockSealed, store)

    def gossip_send(
        self,
        time: float,
        kind: str,
        sender: str,
        recipient: str,
        sender_region: str,
        recipient_region: str,
        size: int,
        latency: float,
        block_hash: str = "",
        tx_count: int = 0,
    ) -> None:
        """The fabric routed one message with a freshly sampled latency.

        No caller in ``src``; kept because perfbench's ledger wraps it by
        name (the fabric emits through :meth:`gossip_each`).
        """
        sym = self._sym
        rows = self._gossip_rows
        rows.extend(
            (
                time,
                sym[kind],
                sym[sender],
                sym[recipient],
                sym[sender_region],
                sym[recipient_region],
                size,
                latency,
                sym[block_hash],
                tx_count,
            )
        )
        if len(rows) >= self._gossip_limit:
            self._seal(GossipSend, self.columns.stores[GossipSend])

    def gossip_wave(
        self,
        time: float,
        kind: str,
        sender: str,
        sender_region: str,
        recipient_ids: Sequence[int],
        names: dict[int, str],
        regions: dict[int, str],
        size: int,
        latencies: Sequence[float],
        block_hash: str = "",
        tx_count: int = 0,
    ) -> None:
        """A whole fan-out wave of one message, emitted in one call.

        No caller in ``src``; kept because perfbench's ledger wraps it by
        name (the fabric emits through :meth:`gossip_each`).

        Record-for-record identical to calling :meth:`gossip_send` once
        per recipient in order — the per-message context (kind, sender,
        block hash) is interned once per wave and recipient name/region
        symbols come from the per-node cache seeded at registration, so
        each recipient costs one dict hit plus the staging append.
        (Strided slice assignment was benchmarked here and loses below
        ~50 recipients per wave; real waves average 4–10.)
        """
        sym = self._sym
        rows = self._gossip_rows
        extend = rows.extend
        node_syms = self._node_syms
        kind_sym = sym[kind]
        sender_sym = sym[sender]
        sender_region_sym = sym[sender_region]
        hash_sym = sym[block_hash]
        for recipient_id, latency in zip(recipient_ids, latencies):
            entry = node_syms.get(recipient_id)
            if entry is None:
                entry = node_syms[recipient_id] = (
                    sym[names[recipient_id]],
                    sym[regions[recipient_id]],
                )
            recipient_sym, region_sym = entry
            extend(
                (
                    time,
                    kind_sym,
                    sender_sym,
                    recipient_sym,
                    sender_region_sym,
                    region_sym,
                    size,
                    latency,
                    hash_sym,
                    tx_count,
                )
            )
        if len(rows) >= self._gossip_limit:
            self._seal(GossipSend, self.columns.stores[GossipSend])

    def gossip_each(
        self,
        time: float,
        sender: str,
        sender_region: str,
        recipient_ids: Sequence[int],
        names: dict[int, str],
        regions: dict[int, str],
        messages: Sequence[Any],
        sizes: Sequence[int],
        latencies: Sequence[float],
    ) -> None:
        """One routed wave (one message per recipient), in one call.

        Every message the fabric routes is traced here, single sends as
        one-recipient waves.  Record-for-record identical to
        :meth:`gossip_send` per recipient in order; ``messages`` is
        duck-typed (``.kind`` + ``.trace_meta()``) so per-peer
        transaction batches — the most numerous traffic in a loaded
        campaign — emit without a Python call per record beyond
        ``trace_meta`` itself.  Kind and block-hash interning is cached
        across the runs of equal values these waves produce, and
        recipient symbols come from the per-node cache.
        """
        sym = self._sym
        rows = self._gossip_rows
        extend = rows.extend
        node_syms = self._node_syms
        sender_sym = sym[sender]
        sender_region_sym = sym[sender_region]
        last_kind: Any = None
        kind_sym: Any = None
        last_hash: Any = None
        hash_sym: Any = None
        is_tx = False
        for recipient_id, message, size, latency in zip(
            recipient_ids, messages, sizes, latencies
        ):
            kind = message.kind
            if kind is not last_kind:  # ClassVar: identity is stable
                last_kind = kind
                kind_sym = sym[kind]
                is_tx = kind == "Transactions"
            if is_tx:
                # Inlined TransactionsMessage.trace_meta: tx batches are
                # the bulk of routed traffic, and the direct length
                # read skips a method call and tuple per record.
                block_hash = ""
                tx_count = len(message.transactions)
            else:
                block_hash, tx_count = message.trace_meta()
            if block_hash != last_hash:
                last_hash = block_hash
                hash_sym = sym[block_hash]
            entry = node_syms.get(recipient_id)
            if entry is None:
                entry = node_syms[recipient_id] = (
                    sym[names[recipient_id]],
                    sym[regions[recipient_id]],
                )
            recipient_sym, region_sym = entry
            extend(
                (
                    time,
                    kind_sym,
                    sender_sym,
                    recipient_sym,
                    sender_region_sym,
                    region_sym,
                    size,
                    latency,
                    hash_sym,
                    tx_count,
                )
            )
        if len(rows) >= self._gossip_limit:
            self._seal(GossipSend, self.columns.stores[GossipSend])

    def delivery_dropped(
        self,
        time: float,
        kind: str,
        sender: str,
        recipient: str,
        block_hash: str = "",
    ) -> None:
        """An in-flight message arrived after its link was torn down."""
        sym = self._sym
        rows = self._dropped_rows
        rows.extend(
            (time, sym[kind], sym[sender], sym[recipient], sym[block_hash])
        )
        if len(rows) >= self._dropped_limit:
            self._seal(DeliveryDropped, self.columns.stores[DeliveryDropped])

    def block_received(
        self,
        time: float,
        node: str,
        block_hash: str,
        height: int,
        peer_id: int,
        direct: bool,
    ) -> None:
        """A block-bearing message (full block or announcement) arrived."""
        sym = self._sym
        rows = self._received_rows
        rows.extend(
            (time, sym[node], sym[block_hash], height, self._idtab[peer_id], direct)
        )
        if len(rows) >= self._received_limit:
            self._seal(BlockReceived, self.columns.stores[BlockReceived])

    def fetch_started(
        self, time: float, node: str, block_hash: str, peer_id: int
    ) -> None:
        """An announcement triggered a header/body fetch round-trip."""
        sym = self._sym
        rows = self._fetch_rows
        rows.extend((time, sym[node], sym[block_hash], self._idtab[peer_id]))
        if len(rows) >= self._fetch_limit:
            self._seal(FetchStarted, self.columns.stores[FetchStarted])

    def validation_started(
        self, time: float, node: str, block_hash: str, height: int
    ) -> None:
        """A node began the header-check + import path for a block."""
        sym = self._sym
        rows = self._validation_rows
        rows.extend((time, sym[node], sym[block_hash], height))
        if len(rows) >= self._validation_limit:
            self._seal(
                ValidationStarted, self.columns.stores[ValidationStarted]
            )

    def block_imported(
        self,
        time: float,
        node: str,
        block_hash: str,
        height: int,
        head_changed: bool,
    ) -> None:
        """A block finished import into a node's local tree."""
        sym = self._sym
        rows = self._imported_rows
        rows.extend((time, sym[node], sym[block_hash], height, head_changed))
        if len(rows) >= self._imported_limit:
            self._seal(BlockImported, self.columns.stores[BlockImported])

    def head_changed(
        self,
        time: float,
        node: str,
        old_head: str,
        new_head: str,
        height: int,
        reorg_depth: int,
    ) -> None:
        """A node's canonical head switched; depth 0 is a plain advance."""
        sym = self._sym
        rows = self._head_rows
        rows.extend(
            (time, sym[node], sym[old_head], sym[new_head], height, reorg_depth)
        )
        if len(rows) >= self._head_limit:
            self._seal(HeadChanged, self.columns.stores[HeadChanged])

    def tx_first_seen(
        self, time: float, node: str, tx_hash: str, peer_id: int
    ) -> None:
        """A transaction entered a node's mempool for the first time."""
        sym = self._sym
        rows = self._tx_rows
        rows.extend((time, sym[node], sym[tx_hash], self._idtab[peer_id]))
        if len(rows) >= self._tx_limit:
            self._seal(TxFirstSeen, self.columns.stores[TxFirstSeen])

    def node_offline(self, time: float, node: str, crash: bool) -> None:
        """The fault layer took ``node`` offline (churn or crash)."""
        store = self.columns.stores[NodeOffline]
        store.rows.extend((time, self._sym[node], crash))
        if len(store.rows) >= store.limit:
            self._seal(NodeOffline, store)

    def node_online(self, time: float, node: str) -> None:
        """A churned or crashed node came back online."""
        store = self.columns.stores[NodeOnline]
        store.rows.extend((time, self._sym[node]))
        if len(store.rows) >= store.limit:
            self._seal(NodeOnline, store)

    def partition_started(
        self, time: float, regions: tuple[str, ...], duration: float
    ) -> None:
        """A regional partition began."""
        sym = self._sym
        store = self.columns.stores[PartitionStarted]
        store.rows.extend((time, duration))
        store.varlen["regions"].append(tuple(sym[item] for item in regions))
        if store.staged_rows >= BLOCK_ROWS:
            self._seal(PartitionStarted, store)

    def partition_healed(self, time: float, regions: tuple[str, ...]) -> None:
        """A regional partition healed."""
        sym = self._sym
        store = self.columns.stores[PartitionHealed]
        store.rows.append(time)
        store.varlen["regions"].append(tuple(sym[item] for item in regions))
        if store.staged_rows >= BLOCK_ROWS:
            self._seal(PartitionHealed, store)

    def link_fault(
        self,
        time: float,
        kind: str,
        fault: str,
        sender: str,
        recipient: str,
        extra_delay: float = 0.0,
    ) -> None:
        """A per-message link fault fired on a routed message."""
        sym = self._sym
        store = self.columns.stores[LinkFault]
        store.rows.extend(
            (time, sym[kind], sym[fault], sym[sender], sym[recipient], extra_delay)
        )
        if len(store.rows) >= store.limit:
            self._seal(LinkFault, store)

    def set_queue_stats(self, stats: Mapping[str, float]) -> None:
        """Mirror the event queue's counters into the registry.

        Called by the metrics snapshotter just before each sample, with
        the output of ``Simulator.queue_stats()``.  Pure setter — draws
        no randomness and schedules nothing, so it is trace-hook safe
        (OBS101/OBS102).
        """
        if not self.enabled:
            return
        # Fixed label, fixed zeros: pinned .trace.bin snapshots hold all seven series.
        labels = {"backend": "heap"}
        self._queue_depth.set(stats["depth"], labels)
        self._queue_live.set(stats["live"], labels)
        self._queue_pushed.set(stats["pushed_total"], labels)
        self._queue_cancelled.set(stats["cancelled_pending"], labels)
        self._queue_compactions.set(stats["compactions_total"], labels)
        self._queue_resizes.set(0.0, labels)
        self._queue_buckets.set(0.0, labels)

    def snapshot_metrics(self, time: float) -> Optional[MetricsSample]:
        """Sync the registry, record a :class:`MetricsSample` at ``time``.

        Returns the sample (or ``None`` when tracing is disabled — the
        snapshotter process keeps running regardless, so the guard lives
        here too).
        """
        if not self.enabled:
            return None
        self.sync_metrics()
        snap = self.registry.snapshot()
        sym = self._sym
        store = self.columns.stores[MetricsSample]
        store.rows.append(time)
        store.varlen["metrics"].append(
            tuple((sym[key], value) for key, value in snap.items())
        )
        if store.staged_rows >= BLOCK_ROWS:
            self._seal(MetricsSample, store)
        return MetricsSample(time=time, metrics=snap)

    # ----------------------------------------------------------------- #
    # Deferred metrics: emit sites above only append columns; the
    # registry catches up here, in batch, at every read point.
    # ----------------------------------------------------------------- #

    def sync_metrics(self) -> None:
        """Fold every not-yet-drained record into the metrics registry.

        Idempotent and cheap when nothing new was recorded.  Called by
        :meth:`snapshot_metrics`, at trace export, and before sealed
        blocks leave the buffer — any direct registry read in between
        should call it first.
        """
        stores = self.columns.stores
        for kind, drain in self._drains.items():
            store = stores[kind]
            if store.staged_rows > store.drained:
                drain(store)
                store.drained = store.staged_rows
        self._apply_aggregates()

    def _seal(self, kind: type[Any], store: KindStore) -> None:
        """Drain a full staging buffer's metrics, then seal the block."""
        drain = self._drains.get(kind)
        if drain is not None and store.staged_rows > store.drained:
            drain(store)
        self.columns.seal_kind(kind)

    # Per-kind drains.  Column offsets follow dataclass field order; a
    # change to a record's fields must update its drain.

    def _drain_registered(self, store: KindStore) -> None:
        self._agg_counts["registered"] += store.staged_rows - store.drained

    def _drain_fetches(self, store: KindStore) -> None:
        self._agg_counts["fetches"] += store.staged_rows - store.drained

    def _drain_validations(self, store: KindStore) -> None:
        self._agg_counts["validations"] += store.staged_rows - store.drained

    def _drain_imports(self, store: KindStore) -> None:
        self._agg_counts["imports"] += store.staged_rows - store.drained

    def _drain_tx(self, store: KindStore) -> None:
        self._agg_counts["tx"] += store.staged_rows - store.drained

    def _drain_online(self, store: KindStore) -> None:
        self._agg_counts["online"] += store.staged_rows - store.drained

    def _drain_partitions(self, store: KindStore) -> None:
        self._agg_counts["partitions"] += store.staged_rows - store.drained

    def _drain_gossip(self, store: KindStore) -> None:
        # The highest-volume drain, so it vectorizes: one pass builds
        # the per-kind count/bytes/latency sums and bucket tallies for
        # the whole undrained window (numpy draws nothing — OBS101's
        # contract holds).
        rows = store.rows
        base = store.drained * 10
        kinds = np.array(rows[base + 1 :: 10], dtype=np.int64)
        if not kinds.size:
            return
        sizes = np.array(rows[base + 6 :: 10], dtype=np.float64)
        latencies = np.array(rows[base + 7 :: 10], dtype=np.float64)
        bucket_index = np.searchsorted(_LATENCY_EDGES, latencies, side="left")
        agg = self._agg_gossip
        for kind in np.unique(kinds):
            mask = kinds == kind
            entry = agg.get(int(kind))
            if entry is None:
                entry = agg[int(kind)] = [0, 0.0, 0.0, [0] * 11]
            entry[0] += int(mask.sum())
            entry[1] += float(sizes[mask].sum())
            entry[2] += float(latencies[mask].sum())
            buckets = entry[3]
            for i, n in enumerate(
                np.bincount(bucket_index[mask], minlength=11)
            ):
                buckets[i] += int(n)

    def _drain_dropped(self, store: KindStore) -> None:
        rows = store.rows
        agg = self._agg_dropped
        for kind in rows[store.drained * 5 + 1 :: 5]:
            agg[kind] = agg.get(kind, 0) + 1

    def _drain_sealed(self, store: KindStore) -> None:
        rows = store.rows
        agg = self._agg_sealed
        for pool in rows[store.drained * 8 + 4 :: 8]:
            agg[pool] = agg.get(pool, 0) + 1

    def _drain_link(self, store: KindStore) -> None:
        rows = store.rows
        agg = self._agg_link
        for fault in rows[store.drained * 6 + 2 :: 6]:
            agg[fault] = agg.get(fault, 0) + 1

    def _drain_received(self, store: KindStore) -> None:
        count = store.staged_rows - store.drained
        direct = int(sum(store.rows[store.drained * 6 + 5 :: 6]))
        self._agg_receptions[0] += direct
        self._agg_receptions[1] += count - direct

    def _drain_offline(self, store: KindStore) -> None:
        count = store.staged_rows - store.drained
        crashes = int(sum(store.rows[store.drained * 3 + 2 :: 3]))
        self._agg_offline[0] += count - crashes
        self._agg_offline[1] += crashes

    def _drain_head(self, store: KindStore) -> None:
        rows = store.rows
        base = store.drained * 6
        nodes = rows[base + 1 :: 6]
        heights = rows[base + 4 :: 6]
        depths = rows[base + 5 :: 6]
        agg = self._agg_head
        agg[0] += len(depths)
        buckets = agg[3]
        by_node = self._agg_head_height
        bis = bisect_left
        edges = _REORG_EDGES
        for node, height, depth in zip(nodes, heights, depths):
            by_node[node] = height
            if depth > 0.0:
                agg[1] += 1
                agg[2] += depth
                buckets[bis(edges, depth)] += 1

    def _apply_aggregates(self) -> None:
        symbols = self._sym.values_list
        counts = self._agg_counts
        if counts["registered"]:
            self._nodes.set(self._nodes.value() + counts["registered"])
        if counts["fetches"]:
            self._fetches.inc(float(counts["fetches"]))
        if counts["validations"]:
            self._validations.inc(float(counts["validations"]))
        if counts["imports"]:
            self._imports.inc(float(counts["imports"]))
        if counts["tx"]:
            self._tx_first_seen.inc(float(counts["tx"]))
        if counts["online"]:
            self._faults_online.inc(float(counts["online"]))
        if counts["partitions"]:
            self._faults_partitions.inc(float(counts["partitions"]))
        offline_delta = (
            self._agg_offline[0] + self._agg_offline[1] - counts["online"]
        )
        # Matches the per-record path: any offline/online traffic touches
        # the gauge series even when the window nets out to zero.
        offline_touched = bool(
            self._agg_offline[0] or self._agg_offline[1] or counts["online"]
        )
        for key in counts:
            counts[key] = 0
        if self._agg_gossip:
            for kind, entry in self._agg_gossip.items():
                labels = {"kind": symbols[int(kind)]}
                self._gossip_total.inc(float(entry[0]), labels=labels)
                self._gossip_bytes.inc(entry[1], labels=labels)
                self._gossip_latency.merge_bucket_counts(
                    entry[3], entry[2], labels=labels
                )
            self._agg_gossip.clear()
        if self._agg_dropped:
            for kind, n in self._agg_dropped.items():
                self._deliveries_dropped.inc(
                    float(n), labels={"kind": symbols[int(kind)]}
                )
            self._agg_dropped.clear()
        if self._agg_sealed:
            for pool, n in self._agg_sealed.items():
                self._blocks_sealed.inc(
                    float(n), labels={"pool": symbols[int(pool)]}
                )
            self._agg_sealed.clear()
        if self._agg_link:
            for fault, n in self._agg_link.items():
                self._faults_link.inc(
                    float(n), labels={"fault": symbols[int(fault)]}
                )
            self._agg_link.clear()
        if self._agg_receptions[0]:
            self._block_receptions.inc(
                float(self._agg_receptions[0]), labels={"direct": "true"}
            )
        if self._agg_receptions[1]:
            self._block_receptions.inc(
                float(self._agg_receptions[1]), labels={"direct": "false"}
            )
        self._agg_receptions[0] = self._agg_receptions[1] = 0
        if self._agg_offline[0]:
            self._faults_offline.inc(
                float(self._agg_offline[0]), labels={"cause": "churn"}
            )
        if self._agg_offline[1]:
            self._faults_offline.inc(
                float(self._agg_offline[1]), labels={"cause": "crash"}
            )
        if offline_touched:
            self._faults_nodes_offline.set(
                self._faults_nodes_offline.value() + offline_delta
            )
        self._agg_offline[0] = self._agg_offline[1] = 0
        head = self._agg_head
        if head[0]:
            self._head_changes.inc(float(head[0]))
        if head[1]:
            self._reorgs.inc(float(head[1]))
            self._reorg_depth.merge_bucket_counts(head[3], head[2])
        head[0] = head[1] = 0
        head[2] = 0.0
        head[3] = [0] * (len(_REORG_EDGES) + 1)
        if self._agg_head_height:
            for node, height in self._agg_head_height.items():
                self._head_height.set(
                    height, labels={"node": symbols[int(node)]}
                )
            self._agg_head_height.clear()
