"""The versioned binary trace container (``.trace.bin``).

Layout (all integers little-endian)::

    magic "RPTB" | u16 container version | u16 trace schema
    u32 header length | header JSON
    block section*          (written as blocks seal, in seal order)
    trailer section         (header context + symbol/id tables)
    u64 trailer offset | end magic "RPTE"

The **header** is static context written before the first record: the
kind directory (name + ordered ``[field, type]`` specs per kind) and the
byte order, so a reader never guesses at geometry.  The **trailer** is
everything only known at the end of a run — seed, preset, the final
canonical chain, the interned symbol and id tables, and record/block
counts.  Readers locate it through the fixed-size tail, which doubles
as the truncation check: a file without the end magic died mid-write.

A **block section** is one sealed :class:`~repro.obs.columns.KindBlock`::

    u8 0x01 | u16 kind id | u32 row count
    per fixed field:   u32 byte length | raw f64 column bytes
    per varlen field:  u32 total | u32 lengths[rows] | u32 ids[total]
                       (+ f64 values[total] for "pairs" fields)

Files are written to a pid-unique ``.tmp`` sibling and moved into place
with ``os.replace`` on finalize — the same atomic protocol as every
other artifact the fleet drops into the shared cache, so readers never
see a half-written container.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from array import array
from pathlib import Path
from typing import Any, BinaryIO, Iterator, Optional

from repro.errors import TraceError
from repro.obs.columns import (
    _FIXED_KINDS,
    KIND_ORDER,
    KIND_SPECS,
    KindBlock,
    TraceColumns,
)

MAGIC = b"RPTB"
END_MAGIC = b"RPTE"

#: Bumped on incompatible container layout changes.
CONTAINER_VERSION = 1

_SECTION_BLOCK = 1

_TAIL = struct.Struct("<Q4s")
_PREAMBLE = struct.Struct("<4sHHI")
_BLOCK_HEAD = struct.Struct("<BHI")
_U32 = struct.Struct("<I")


def _header_payload() -> dict[str, Any]:
    return {
        "byteorder": sys.byteorder,
        "kinds": [
            {
                "name": kind.__name__,
                "fields": [[f.name, f.kind] for f in KIND_SPECS[kind]],
            }
            for kind in KIND_ORDER
        ],
    }


class TraceBinWriter:
    """Streams sealed blocks into a ``.trace.bin`` container.

    Usable as a :class:`~repro.obs.columns.TraceColumns` sink (it has
    the one-method ``write_block`` surface), so a recorder can flush
    blocks to disk as they seal and a one-hour mainnet trace never holds
    more than one unsealed block per kind in memory.
    """

    __slots__ = ("path", "tmp_path", "_fh", "_blocks", "_records", "_closed")

    def __init__(self, path: str | Path, schema: int) -> None:
        self.path = Path(path)
        # A streaming sink opens before anything else touches the target
        # directory (fleet workers stream into the not-yet-created disk
        # cache), so the writer creates it like store_dataset does.
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.tmp_path = self.path.with_name(
            f"{self.path.name}.{os.getpid()}.tmp"
        )
        self._fh: Optional[BinaryIO] = self.tmp_path.open("wb")
        self._blocks = 0
        self._records = 0
        self._closed = False
        header = json.dumps(_header_payload()).encode("utf-8")
        self._fh.write(
            _PREAMBLE.pack(MAGIC, CONTAINER_VERSION, schema, len(header))
        )
        self._fh.write(header)

    def write_block(self, block: KindBlock) -> None:
        """Append one sealed block section."""
        fh = self._fh
        if fh is None:
            raise TraceError("trace writer is already finalized")
        kind_id = KIND_ORDER.index(block.kind)
        fh.write(_BLOCK_HEAD.pack(_SECTION_BLOCK, kind_id, block.count))
        for field in KIND_SPECS[block.kind]:
            col = block.col(field.name)
            if field.kind in _FIXED_KINDS:
                # Recorder-sealed blocks carry raw staging lists; the
                # float packing happens here, at the I/O boundary, so
                # the simulation loop never pays for it.
                if not isinstance(col, array):
                    col = array("d", col)
                payload = col.tobytes()
                fh.write(_U32.pack(len(payload)))
                fh.write(payload)
            elif field.kind == "symseq":
                lengths = array("I", (len(row) for row in col))
                flat = array("I")
                for row in col:
                    flat.extend(row)
                fh.write(_U32.pack(len(flat)))
                fh.write(lengths.tobytes())
                fh.write(flat.tobytes())
            else:  # pairs
                lengths = array("I", (len(row) for row in col))
                flat = array("I")
                values = array("d")
                for row in col:
                    for sym, value in row:
                        flat.append(sym)
                        values.append(value)
                fh.write(_U32.pack(len(flat)))
                fh.write(lengths.tobytes())
                fh.write(flat.tobytes())
                fh.write(values.tobytes())
        self._blocks += 1
        self._records += block.count

    def finalize(
        self,
        columns: TraceColumns,
        *,
        seed: int,
        preset: str,
        canonical_hashes: tuple[str, ...],
        head_hash: str,
    ) -> Path:
        """Write the trailer + tail and atomically move into place."""
        fh = self._fh
        if fh is None:
            raise TraceError("trace writer is already finalized")
        trailer_offset = fh.tell()
        trailer = json.dumps(
            {
                "seed": seed,
                "preset": preset,
                "canonical_hashes": list(canonical_hashes),
                "head_hash": head_hash,
                "symbols": columns.symbols.values_list,
                "ids": columns.ids.values_list,
                "record_count": self._records,
                "block_count": self._blocks,
            }
        ).encode("utf-8")
        fh.write(_U32.pack(len(trailer)))
        fh.write(trailer)
        fh.write(_TAIL.pack(trailer_offset, END_MAGIC))
        fh.close()
        self._fh = None
        try:
            os.replace(self.tmp_path, self.path)
        finally:
            self.tmp_path.unlink(missing_ok=True)
        return self.path

    def abort(self) -> None:
        """Close and remove the partial temp file (crash cleanup)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self.tmp_path.unlink(missing_ok=True)


class TraceBinReader:
    """Random/streaming access to a ``.trace.bin`` container.

    Opening parses the header and trailer (tables + context) and builds
    a section index, so per-kind iteration seeks straight to matching
    blocks — the whole file is never required to fit in memory.
    """

    __slots__ = (
        "path",
        "schema",
        "seed",
        "preset",
        "canonical_hashes",
        "head_hash",
        "symbols",
        "ids",
        "record_count",
        "_kinds",
        "_index",
        "_data_start",
        "_trailer_offset",
    )

    def __init__(self, path: str | Path, max_schema: int) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise TraceError(f"no trace file at {self.path}")
        with self.path.open("rb") as fh:
            self._parse_preamble(fh, max_schema)
            self._parse_tail(fh)
            self._build_index(fh)

    # ------------------------------------------------------------------ #
    # Parsing
    # ------------------------------------------------------------------ #

    def _parse_preamble(self, fh: BinaryIO, max_schema: int) -> None:
        raw = fh.read(_PREAMBLE.size)
        if len(raw) < _PREAMBLE.size or raw[:4] != MAGIC:
            raise TraceError(f"{self.path} is not a binary trace container")
        _, container, schema, header_len = _PREAMBLE.unpack(raw)
        if container > CONTAINER_VERSION:
            raise TraceError(
                f"{self.path} uses container version {container}; this "
                f"build reads <= {CONTAINER_VERSION}"
            )
        if schema > max_schema:
            raise TraceError(
                f"{self.path} uses trace schema {schema}; this build "
                f"reads <= {max_schema}"
            )
        self.schema = schema
        try:
            header = json.loads(fh.read(header_len))
        except ValueError as exc:
            raise TraceError(f"{self.path} header is not valid JSON") from exc
        if header.get("byteorder") != sys.byteorder:
            raise TraceError(
                f"{self.path} was written on a {header.get('byteorder')}-"
                f"endian host; this host is {sys.byteorder}-endian"
            )
        by_name = {kind.__name__: kind for kind in KIND_ORDER}
        kinds: list[type[Any]] = []
        for entry in header.get("kinds", ()):
            cls = by_name.get(str(entry.get("name")))
            if cls is None:
                raise TraceError(
                    f"{self.path} carries unknown record kind "
                    f"{entry.get('name')!r}"
                )
            expected = [[f.name, f.kind] for f in KIND_SPECS[cls]]
            if entry.get("fields") != expected:
                raise TraceError(
                    f"{self.path}: field layout of {cls.__name__} does "
                    "not match this build's trace schema"
                )
            kinds.append(cls)
        if not kinds:
            raise TraceError(f"{self.path} header lists no record kinds")
        self._kinds = tuple(kinds)
        self._data_start = fh.tell()

    def _parse_tail(self, fh: BinaryIO) -> None:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        if size < self._data_start + _TAIL.size:
            raise TraceError(f"{self.path} is truncated (no trailer tail)")
        fh.seek(size - _TAIL.size)
        trailer_offset, end_magic = _TAIL.unpack(fh.read(_TAIL.size))
        if end_magic != END_MAGIC:
            raise TraceError(
                f"{self.path} is truncated: end marker missing (the "
                "writer died before finalize)"
            )
        if not (self._data_start <= trailer_offset <= size - _TAIL.size):
            raise TraceError(f"{self.path} trailer offset is corrupt")
        self._trailer_offset = trailer_offset
        fh.seek(trailer_offset)
        (trailer_len,) = _U32.unpack(fh.read(_U32.size))
        try:
            trailer = json.loads(fh.read(trailer_len))
        except ValueError as exc:
            raise TraceError(
                f"{self.path} trailer (symbol table) is corrupt"
            ) from exc
        if not isinstance(trailer, dict):
            raise TraceError(f"{self.path} trailer must be a JSON object")
        self.seed = int(trailer.get("seed", 0))
        self.preset = str(trailer.get("preset", ""))
        self.canonical_hashes = tuple(
            str(h) for h in trailer.get("canonical_hashes", ())
        )
        self.head_hash = str(trailer.get("head_hash", ""))
        symbols = trailer.get("symbols", [])
        ids = trailer.get("ids", [])
        if not isinstance(symbols, list) or not all(
            isinstance(s, str) for s in symbols
        ):
            raise TraceError(f"{self.path} symbol table is corrupt")
        if not isinstance(ids, list) or not all(
            isinstance(i, int) for i in ids
        ):
            raise TraceError(f"{self.path} id table is corrupt")
        self.symbols: list[str] = symbols
        self.ids: list[int] = ids
        self.record_count = int(trailer.get("record_count", 0))

    def _build_index(self, fh: BinaryIO) -> None:
        """Walk block sections once, recording (kind, offset) pairs."""
        index: list[tuple[type[Any], int]] = []
        offset = self._data_start
        fh.seek(offset)
        while offset < self._trailer_offset:
            head = fh.read(_BLOCK_HEAD.size)
            if len(head) < _BLOCK_HEAD.size:
                raise TraceError(f"{self.path} block index is truncated")
            marker, kind_id, rows = _BLOCK_HEAD.unpack(head)
            if marker != _SECTION_BLOCK or kind_id >= len(self._kinds):
                raise TraceError(
                    f"{self.path}: corrupt section at offset {offset}"
                )
            kind = self._kinds[kind_id]
            index.append((kind, offset))
            self._skip_block(fh, kind, rows)
            offset = fh.tell()
        self._index = tuple(index)

    def _skip_block(self, fh: BinaryIO, kind: type[Any], rows: int) -> None:
        for field in KIND_SPECS[kind]:
            raw = fh.read(_U32.size)
            if len(raw) < _U32.size:
                raise TraceError(f"{self.path}: truncated block column")
            (count,) = _U32.unpack(raw)
            if field.kind in _FIXED_KINDS:
                fh.seek(count, os.SEEK_CUR)
            elif field.kind == "symseq":
                fh.seek(rows * 4 + count * 4, os.SEEK_CUR)
            else:  # pairs
                fh.seek(rows * 4 + count * 12, os.SEEK_CUR)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def block_count(self) -> int:
        return len(self._index)

    def iter_kind_blocks(self, kind: type[Any]) -> Iterator[KindBlock]:
        """Stream ``kind``'s sealed blocks, one decoded block at a time."""
        offsets = [off for k, off in self._index if k is kind]
        if not offsets:
            return
        with self.path.open("rb") as fh:
            for offset in offsets:
                fh.seek(offset)
                yield self._read_block(fh)

    def _read_block(self, fh: BinaryIO) -> KindBlock:
        head = fh.read(_BLOCK_HEAD.size)
        marker, kind_id, rows = _BLOCK_HEAD.unpack(head)
        if marker != _SECTION_BLOCK or kind_id >= len(self._kinds):
            raise TraceError(f"{self.path}: corrupt block section")
        kind = self._kinds[kind_id]
        cols: dict[str, Any] = {}
        for field in KIND_SPECS[kind]:
            (count,) = _U32.unpack(fh.read(_U32.size))
            if field.kind in _FIXED_KINDS:
                if count != rows * 8:
                    raise TraceError(
                        f"{self.path}: {kind.__name__}.{field.name} column "
                        "length mismatch"
                    )
                col = array("d")
                col.frombytes(fh.read(count))
                cols[field.name] = col
            else:
                lengths = array("I")
                lengths.frombytes(fh.read(rows * 4))
                flat = array("I")
                flat.frombytes(fh.read(count * 4))
                if sum(lengths) != count:
                    raise TraceError(
                        f"{self.path}: {kind.__name__}.{field.name} varlen "
                        "lengths are corrupt"
                    )
                if field.kind == "symseq":
                    rows_out: list[tuple[Any, ...]] = []
                    cursor = 0
                    for length in lengths:
                        rows_out.append(tuple(flat[cursor : cursor + length]))
                        cursor += length
                    cols[field.name] = rows_out
                else:  # pairs
                    values = array("d")
                    values.frombytes(fh.read(count * 8))
                    rows_out = []
                    cursor = 0
                    for length in lengths:
                        rows_out.append(
                            tuple(
                                (flat[cursor + i], values[cursor + i])
                                for i in range(length)
                            )
                        )
                        cursor += length
                    cols[field.name] = rows_out
        return KindBlock(kind, rows, cols)

