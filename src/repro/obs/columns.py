"""Struct-packed columnar storage for trace records.

The trace hot path: a **per-kind ring buffer** of fixed-width columns
that emit sites append into with no per-record object allocation,
sealed into immutable blocks of :data:`BLOCK_ROWS` rows that either
accumulate in memory or stream to a
:class:`~repro.obs.binio.TraceBinWriter` sink.

Layout doctrine (see DESIGN.md §5e):

* Every fixed-width field of a record kind lives interleaved in one
  staging buffer (a plain list — pointer stores beat per-value float
  conversion at emit time); appending a record is a single
  ``list.extend(tuple)`` call.  Sealing slices the staging into per-field
  columns (still pointer copies); the f64 packing happens only at the
  I/O boundary (:mod:`repro.obs.binio`), so neither emitting nor sealing
  ever converts values on the simulation loop.  Logical field types
  (``i64``/``u8``/``sym``/``id``) are recorded in the kind's spec and
  re-applied at materialization time; small ints, bools, and table
  indices are all exactly representable as doubles.
* Strings are **interned** through a per-trace symbol table: the column
  stores the symbol index, the table stores each distinct string once
  (node names, message kinds, block hashes).  256-bit wire identifiers
  (``node_id``/``peer_id``) intern through a separate id table because
  they exceed double precision.
* The three variable-width fields (``block_hashes``, ``regions``,
  ``metrics``) live in parallel per-row side lists — their kinds are
  rare (lottery wins, partitions, metrics samples), so the fast path
  never touches them.

Determinism contract: nothing here draws randomness, schedules events,
or reads wall clocks (OBS101/OBS102 prove this over the transitive call
graph).  Appending and sealing are pure bookkeeping.
"""

from __future__ import annotations

import heapq  # repro: noqa[PERF004] cold-path k-way merge of trace streams, not event scheduling
from array import array
from dataclasses import dataclass, fields
from typing import Any, Iterator, Optional, Protocol, Sequence

from repro.errors import TraceError
from repro.obs.records import TRACE_RECORD_TYPES, TraceRecord

#: Rows per sealed block.  Large enough that seal overhead amortizes to
#: noise, small enough that one block of the widest kind stays ~1.5 MB.
BLOCK_ROWS = 16384

#: Fixed-width logical field types (all stored as f64 in the column).
_FIXED_KINDS = frozenset({"f64", "i64", "u8", "sym", "id"})

#: Dataclass annotation -> logical column type.
_ANNOTATION_KINDS = {
    "float": "f64",
    "int": "i64",
    "str": "sym",
    "bool": "u8",
    "tuple[str, ...]": "symseq",
    "dict[str, float]": "pairs",
}

#: Per-field overrides: wire identifiers are 256-bit ints, far beyond
#: exact double range, so they intern through the id table instead.
_FIELD_OVERRIDES = {"node_id": "id", "peer_id": "id"}

#: Every record kind in serialization order.  The index is the kind id
#: in the binary container *and* the tie-break rank when merging
#: per-kind streams back into one chronological record stream.
KIND_ORDER: tuple[type[Any], ...] = tuple(TRACE_RECORD_TYPES.values())

_KIND_RANK: dict[type[Any], int] = {cls: i for i, cls in enumerate(KIND_ORDER)}


@dataclass(frozen=True)
class FieldSpec:
    """One column of a record kind: field name + logical type."""

    name: str
    kind: str


def _spec_for(cls: type[Any]) -> tuple[FieldSpec, ...]:
    spec: list[FieldSpec] = []
    for item in fields(cls):
        annotation = item.type if isinstance(item.type, str) else str(item.type)
        kind = _FIELD_OVERRIDES.get(
            item.name, _ANNOTATION_KINDS.get(annotation, "")
        )
        if not kind:
            raise TraceError(
                f"no column mapping for {cls.__name__}.{item.name}: "
                f"{annotation!r}"
            )
        spec.append(FieldSpec(item.name, kind))
    return tuple(spec)


#: Kind class -> ordered field specs (dataclass field order).
KIND_SPECS: dict[type[Any], tuple[FieldSpec, ...]] = {
    cls: _spec_for(cls) for cls in KIND_ORDER
}


class InternTable(dict):  # type: ignore[type-arg]
    """Value -> index interning dict; ``table[v]`` interns on miss.

    A plain ``dict`` subclass so the hot path is a C-speed subscript;
    ``__missing__`` only runs the first time a value is seen.
    ``values_list`` is the inverse mapping (index -> value).
    """

    __slots__ = ("values_list",)

    def __init__(self) -> None:
        super().__init__()
        self.values_list: list[Any] = []

    def __missing__(self, key: Any) -> int:
        index = len(self.values_list)
        self.values_list.append(key)
        self[key] = index
        return index


class KindBlock:
    """An immutable sealed block: per-field columns for one kind.

    Fixed-width fields are flat value sequences — raw staging lists on
    recorder-sealed blocks, ``array('d')`` on blocks decoded from a
    container; variable-width fields are lists of per-row tuples.
    Blocks are the unit of container I/O and of streaming analysis.
    """

    __slots__ = ("kind", "count", "cols")

    def __init__(
        self, kind: type[Any], count: int, cols: dict[str, Any]
    ) -> None:
        self.kind = kind
        self.count = count
        self.cols = cols

    def col(self, name: str) -> Any:
        """The named column (flat value sequence or list of tuples)."""
        return self.cols[name]


class KindStore:
    """Mutable staging buffer + sealed blocks for one record kind.

    Attributes:
        rows: Interleaved fixed-width staging (stride = #fixed fields).
            The list object is stable for the store's lifetime —
            emit sites bind it once and sealing clears it in place.
        varlen: Per-varlen-field parallel side lists (one entry per row).
        blocks: Sealed blocks retained in memory (empty while streaming
            to a sink).
        drained: Rows of the current staging already folded into metric
            aggregates (recorder bookkeeping; reset on seal).
    """

    __slots__ = (
        "kind",
        "spec",
        "fixed",
        "stride",
        "limit",
        "rows",
        "varlen",
        "blocks",
        "drained",
    )

    def __init__(self, kind: type[Any]) -> None:
        self.kind = kind
        self.spec = KIND_SPECS[kind]
        self.fixed = tuple(f for f in self.spec if f.kind in _FIXED_KINDS)
        self.stride = len(self.fixed)
        self.limit = self.stride * BLOCK_ROWS if self.stride else BLOCK_ROWS
        self.rows: list[float] = []
        self.varlen: dict[str, list[tuple[Any, ...]]] = {
            f.name: [] for f in self.spec if f.kind not in _FIXED_KINDS
        }
        self.blocks: list[KindBlock] = []
        self.drained = 0

    @property
    def staged_rows(self) -> int:
        """Rows currently in staging (not yet sealed)."""
        if self.stride:
            return len(self.rows) // self.stride
        first = next(iter(self.varlen.values()), [])
        return len(first)

    def staging_block(self) -> Optional[KindBlock]:
        """A sealed *view* of the current staging (staging unchanged)."""
        count = self.staged_rows
        if count == 0:
            return None
        return self._make_block(count)

    def seal(self) -> Optional[KindBlock]:
        """Seal the staging buffer into a block and clear it in place."""
        count = self.staged_rows
        if count == 0:
            return None
        block = self._make_block(count)
        del self.rows[:]
        for side in self.varlen.values():
            side.clear()
        self.drained = 0
        return block

    def _make_block(self, count: int) -> KindBlock:
        cols: dict[str, Any] = {}
        # Pointer slices, no conversion: sealing must stay cheap enough
        # to sit on the simulation loop.  The binary writer packs these
        # lists into ``array('d')`` bytes at the I/O boundary instead.
        for index, field in enumerate(self.fixed):
            cols[field.name] = self.rows[index :: self.stride]
        for name, side in self.varlen.items():
            cols[name] = list(side)
        return KindBlock(self.kind, count, cols)


class TraceSource(Protocol):
    """What trace analysis needs: header context + columnar access.

    Implemented by the in-memory :class:`~repro.obs.export.Trace` and
    the file-backed streaming :class:`~repro.obs.export.TraceScan`, so
    :mod:`repro.obs.blocktrace` runs identically over both.
    """

    @property
    def seed(self) -> int: ...

    @property
    def preset(self) -> str: ...

    @property
    def canonical_hashes(self) -> tuple[str, ...]: ...

    @property
    def head_hash(self) -> str: ...

    def iter_kind_blocks(self, kind: type[Any]) -> Iterator[KindBlock]: ...

    def symbol_id(self, value: str) -> Optional[int]: ...

    def resolve_symbol(self, index: int) -> str: ...

    def resolve_id(self, index: int) -> int: ...


class TraceColumns:
    """The columnar trace store: per-kind buffers + intern tables.

    A sink (duck-typed: anything with a ``write_block(block)`` method)
    may be attached; sealed blocks are then handed off instead of
    retained, bounding memory for arbitrarily long runs.
    """

    __slots__ = ("symbols", "ids", "stores", "sink")

    def __init__(self) -> None:
        self.symbols = InternTable()
        self.ids = InternTable()
        self.stores: dict[type[Any], KindStore] = {
            kind: KindStore(kind) for kind in KIND_ORDER
        }
        self.sink: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def store(self, kind: type[Any]) -> KindStore:
        return self.stores[kind]

    def seal_kind(self, kind: type[Any]) -> None:
        """Seal ``kind``'s staging; retain the block or pass to the sink."""
        block = self.stores[kind].seal()
        if block is None:
            return
        if self.sink is not None:
            self.sink.write_block(block)
        else:
            self.stores[kind].blocks.append(block)

    def seal_all(self) -> None:
        for kind in KIND_ORDER:
            self.seal_kind(kind)

    def append_record(self, record: TraceRecord) -> None:
        """Generic (cold-path) append: pack one dataclass into columns.

        Emit hot paths in :class:`~repro.obs.recorder.TraceRecorder`
        bypass this and extend the staging arrays directly; this path
        serves hand-built :class:`~repro.obs.export.Trace` objects and
        tests.
        """
        kind = type(record)
        store = self.stores.get(kind)
        if store is None:
            raise TraceError(f"unknown trace record kind {kind.__name__}")
        symbols = self.symbols
        ids = self.ids
        fixed: list[float] = []
        for field in store.spec:
            value = getattr(record, field.name)
            fk = field.kind
            if fk == "sym":
                fixed.append(symbols[value])
            elif fk == "id":
                fixed.append(ids[value])
            elif fk == "symseq":
                store.varlen[field.name].append(
                    tuple(symbols[item] for item in value)
                )
            elif fk == "pairs":
                store.varlen[field.name].append(
                    tuple((symbols[k], float(v)) for k, v in value.items())
                )
            else:
                fixed.append(float(value))
        store.rows.extend(fixed)
        if store.staged_rows >= BLOCK_ROWS:
            self.seal_kind(kind)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def iter_kind_blocks(self, kind: type[Any]) -> Iterator[KindBlock]:
        """Sealed blocks, then a view of the unsealed staging remainder."""
        if self.sink is not None:
            raise TraceError(
                "trace blocks were streamed to a sink; re-open the "
                "written container to read them"
            )
        store = self.stores[kind]
        yield from store.blocks
        tail = store.staging_block()
        if tail is not None:
            yield tail

    def symbol_id(self, value: str) -> Optional[int]:
        # dict.get never triggers __missing__, so lookups don't intern.
        return self.symbols.get(value)

    def resolve_symbol(self, index: int) -> str:
        try:
            return str(self.symbols.values_list[index])
        except IndexError:
            raise TraceError(f"symbol index {index} out of range") from None

    def resolve_id(self, index: int) -> int:
        try:
            return int(self.ids.values_list[index])
        except IndexError:
            raise TraceError(f"id index {index} out of range") from None

    def record_count(self) -> int:
        total = 0
        for store in self.stores.values():
            total += store.staged_rows
            for block in store.blocks:
                total += block.count
        return total

    def kind_count(self, kind: type[Any]) -> int:
        store = self.stores[kind]
        return store.staged_rows + sum(b.count for b in store.blocks)

    def iter_block_records(self, block: KindBlock) -> Iterator[TraceRecord]:
        """Materialize one block back into dataclasses, row by row."""
        yield from materialize_block(
            block, self.symbols.values_list, self.ids.values_list
        )

    def iter_records(self) -> Iterator[TraceRecord]:
        """All records merged back into chronological emission order.

        Per-kind order is exact emission order; cross-kind ties at one
        timestamp order by kind rank (deterministic, though not
        necessarily the original interleaving — nothing downstream
        depends on cross-kind tie order, see blocktrace).
        """
        return merge_kind_streams(
            self, self.symbols.values_list, self.ids.values_list
        )


def materialize_block(
    block: KindBlock, symbols: Sequence[str], ids: Sequence[int]
) -> Iterator[TraceRecord]:
    """Decode a block's columns and yield its records as dataclasses."""
    spec = KIND_SPECS[block.kind]
    decoded: list[list[Any]] = []
    try:
        for field in spec:
            col = block.col(field.name)
            fk = field.kind
            if fk == "f64":
                decoded.append(list(col))
            elif fk == "i64":
                decoded.append([int(v) for v in col])
            elif fk == "u8":
                decoded.append([v != 0.0 for v in col])
            elif fk == "sym":
                decoded.append([symbols[int(v)] for v in col])
            elif fk == "id":
                decoded.append([ids[int(v)] for v in col])
            elif fk == "symseq":
                decoded.append(
                    [tuple(symbols[i] for i in row) for row in col]
                )
            else:  # pairs
                decoded.append(
                    [{symbols[i]: v for i, v in row} for row in col]
                )
    except IndexError:
        raise TraceError(
            f"corrupted {block.kind.__name__} block: symbol or id index "
            "out of table range"
        ) from None
    cls = block.kind
    for values in zip(*decoded):
        yield cls(*values)


def merge_kind_streams(
    source: "TraceSource", symbols: Sequence[str], ids: Sequence[int]
) -> Iterator[TraceRecord]:
    """Merge per-kind block streams into one time-ordered record stream.

    Works block-at-a-time: at most one decoded block per kind is alive,
    so a multi-gigabyte trace streams in bounded memory.
    """

    def stream(kind: type[Any]) -> Iterator[tuple[float, int, int, Any]]:
        rank = _KIND_RANK[kind]
        index = 0
        for block in source.iter_kind_blocks(kind):
            times = block.col("time")
            for time, record in zip(times, materialize_block(block, symbols, ids)):
                yield (time, rank, index, record)
                index += 1

    merged = heapq.merge(*(stream(kind) for kind in KIND_ORDER))
    for _, _, _, record in merged:
        yield record
