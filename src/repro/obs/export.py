"""Trace persistence: the binary columnar container and its JSONL export.

``.trace.bin`` (:mod:`repro.obs.binio`) is the one trace format the
program reads or writes: per-kind column blocks and interned symbol
tables, written atomically and streamable both ways.  :meth:`Trace.save`
writes an in-memory trace; a campaign streaming to disk finishes through
the same :meth:`Trace.write_to`.  :meth:`Trace.scan` opens a container
as a file-backed streaming view (:class:`TraceScan`) — both it and
:class:`Trace` satisfy :class:`~repro.obs.columns.TraceSource`, the
protocol :mod:`repro.obs.blocktrace` consumes.

:func:`convert_trace` (``repro trace convert``) exports a container as
line-per-record JSONL for other tools: a header line, then one
type-tagged record per line.  It is write-only; nothing here loads it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional

from repro.errors import TraceError
from repro.obs.binio import TraceBinReader, TraceBinWriter
from repro.obs.columns import (
    KindBlock,
    TraceColumns,
    merge_kind_streams,
)
from repro.obs.records import TraceRecord, trace_to_json

#: Bumped whenever a record's field set changes incompatibly.
TRACE_SCHEMA_VERSION = 2


class Trace:
    """An in-memory trace: header context + columnar record store.

    Attributes:
        seed: Scenario seed the trace was recorded under.
        preset: Preset label, when the campaign came from one (else "").
        canonical_hashes: The run's final canonical chain, genesis first,
            captured at collection time so ``repro trace`` can tell
            canonical blocks from uncles without the dataset.
        head_hash: Final canonical head.
        columns: The columnar record store (see
            :class:`~repro.obs.columns.TraceColumns`).
    """

    __slots__ = ("seed", "preset", "canonical_hashes", "head_hash", "columns")

    def __init__(
        self,
        seed: int = 0,
        preset: str = "",
        canonical_hashes: tuple[str, ...] = (),
        head_hash: str = "",
        records: Optional[Iterable[TraceRecord]] = None,
        columns: Optional[TraceColumns] = None,
    ) -> None:
        self.seed = seed
        self.preset = preset
        self.canonical_hashes = tuple(canonical_hashes)
        self.head_hash = head_hash
        self.columns = columns if columns is not None else TraceColumns()
        if records is not None:
            for record in records:
                self.columns.append_record(record)

    # ------------------------------------------------------------------ #
    # TraceSource surface (what blocktrace analysis consumes)
    # ------------------------------------------------------------------ #

    @property
    def records(self) -> list[TraceRecord]:
        """All records materialized as dataclasses, in time order.

        A convenience for tests and small traces — each access decodes
        the columns.  Streaming consumers use :meth:`iter_records` or
        :meth:`iter_kind_blocks`.
        """
        return list(self.iter_records())

    def iter_records(self) -> Iterator[TraceRecord]:
        """Stream records in chronological order (block-at-a-time)."""
        return self.columns.iter_records()

    def iter_kind_blocks(self, kind: type[Any]) -> Iterator[KindBlock]:
        return self.columns.iter_kind_blocks(kind)

    def symbol_id(self, value: str) -> Optional[int]:
        return self.columns.symbol_id(value)

    def resolve_symbol(self, index: int) -> str:
        return self.columns.resolve_symbol(index)

    def resolve_id(self, index: int) -> int:
        return self.columns.resolve_id(index)

    def record_count(self) -> int:
        return self.columns.record_count()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path: str | Path) -> Path:
        """Write the trace as a ``.trace.bin`` container, atomically.

        Raises:
            TraceError: when ``path`` does not end in ``.bin``.
        """
        writer = TraceBinWriter(require_bin_path(path), TRACE_SCHEMA_VERSION)
        return self.write_to(writer)

    def write_to(self, writer: TraceBinWriter) -> Path:
        """Write every block through ``writer`` and finalize the container.

        Per kind, in ``KIND_ORDER``: the retained sealed blocks, then a
        view of the staging tail.  A writer that streamed blocks as they
        sealed (:meth:`~repro.measurement.campaign.Campaign.stream_trace_to`)
        has an empty ``blocks`` list behind it, so only the tails are
        left to write.  Any failure removes the temp file.
        """
        try:
            for store in self.columns.stores.values():
                for block in store.blocks:
                    writer.write_block(block)
                tail = store.staging_block()
                if tail is not None:
                    writer.write_block(tail)
            return writer.finalize(
                self.columns,
                seed=self.seed,
                preset=self.preset,
                canonical_hashes=self.canonical_hashes,
                head_hash=self.head_hash,
            )
        except BaseException:
            writer.abort()
            raise

    @classmethod
    def scan(cls, path: str | Path) -> "TraceScan":
        """Open the ``.trace.bin`` container at ``path`` for analysis.

        The returned :class:`TraceScan` reads block-at-a-time straight
        off disk, so a 15k-peer trace never needs to fit in RAM.

        Raises:
            TraceError: when the file is missing, not a container
                (a JSONL export included), truncated, corrupt, or
                written by a newer schema.
        """
        return TraceScan(path)


def require_bin_path(path: str | Path) -> Path:
    """``path`` as a :class:`Path`, when it names a ``.bin`` container.

    Raises:
        TraceError: for any other suffix — traces are only written as
            ``.trace.bin``; JSONL is an export made from one.
    """
    path = Path(path)
    if path.suffix != ".bin":
        raise TraceError(
            f"{path}: traces are written as .trace.bin containers; "
            "export JSONL from one with `repro trace convert`"
        )
    return path


class TraceScan:
    """A file-backed streaming view of a binary trace container.

    Satisfies :class:`~repro.obs.columns.TraceSource`: per-kind block
    iteration seeks straight to matching sections and decodes one block
    at a time, so analysis over mainnet-scale traces runs in bounded
    memory.  Header context and the intern tables (loaded from the
    container trailer) live in memory; the columns stay on disk.
    """

    __slots__ = ("path", "_reader", "_symbol_ids")

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._reader = TraceBinReader(self.path, TRACE_SCHEMA_VERSION)
        self._symbol_ids: Optional[dict[str, int]] = None

    @property
    def seed(self) -> int:
        return self._reader.seed

    @property
    def preset(self) -> str:
        return self._reader.preset

    @property
    def canonical_hashes(self) -> tuple[str, ...]:
        return self._reader.canonical_hashes

    @property
    def head_hash(self) -> str:
        return self._reader.head_hash

    def iter_kind_blocks(self, kind: type[Any]) -> Iterator[KindBlock]:
        return self._reader.iter_kind_blocks(kind)

    def symbol_id(self, value: str) -> Optional[int]:
        if self._symbol_ids is None:
            self._symbol_ids = {
                symbol: index
                for index, symbol in enumerate(self._reader.symbols)
            }
        return self._symbol_ids.get(value)

    def resolve_symbol(self, index: int) -> str:
        try:
            return self._reader.symbols[index]
        except IndexError:
            raise TraceError(f"symbol index {index} out of range") from None

    def resolve_id(self, index: int) -> int:
        try:
            return self._reader.ids[index]
        except IndexError:
            raise TraceError(f"id index {index} out of range") from None

    def record_count(self) -> int:
        return self._reader.record_count

    def iter_records(self) -> Iterator[TraceRecord]:
        """Stream all records in chronological order, bounded memory."""
        return merge_kind_streams(
            self, self._reader.symbols, self._reader.ids
        )


def convert_trace(src: str | Path, dst: str | Path) -> Path:
    """Export the ``.trace.bin`` container at ``src`` as JSONL at ``dst``.

    The export is a header line followed by one type-tagged
    :func:`~repro.obs.records.trace_to_json` line per record, in time
    order.  It streams record-at-a-time, so exporting a mainnet-scale
    container never materializes the whole trace, and lands atomically
    (tmp + replace).  Nothing reads it back.

    Raises:
        TraceError: when ``src`` is not a readable container, or ``dst``
            ends in ``.bin``.
    """
    dst = Path(dst)
    if dst.suffix == ".bin":
        raise TraceError(
            f"{dst}: convert exports JSONL; .trace.bin is the container "
            "format itself"
        )
    source = TraceScan(src)
    header: dict[str, Any] = {
        "_type": "TraceHeader",
        "schema": TRACE_SCHEMA_VERSION,
        "seed": source.seed,
        "preset": source.preset,
        "canonical_hashes": list(source.canonical_hashes),
        "head_hash": source.head_hash,
    }
    tmp_path = dst.with_name(f"{dst.name}.{os.getpid()}.tmp")
    try:
        with tmp_path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for record in source.iter_records():
                fh.write(json.dumps(trace_to_json(record)) + "\n")
        os.replace(tmp_path, dst)
    finally:
        tmp_path.unlink(missing_ok=True)
    return dst
