"""The ``.trace.bin`` container: write/read fidelity and corruption paths."""

from __future__ import annotations

import struct

import pytest

from repro.errors import TraceError
from repro.obs.binio import (
    CONTAINER_VERSION,
    END_MAGIC,
    TraceBinReader,
    TraceBinWriter,
)
from repro.obs.columns import KIND_ORDER, TraceColumns, materialize_block
from repro.obs.export import TRACE_SCHEMA_VERSION, TraceScan

from tests.obs.test_columns import sample_records


def _write_container(path) -> tuple:
    """Write every record kind into a finalized container."""
    columns = TraceColumns()
    originals = sample_records()
    for record in originals:
        columns.append_record(record)
    columns.seal_all()
    writer = TraceBinWriter(path, TRACE_SCHEMA_VERSION)
    for kind in KIND_ORDER:
        for block in columns.stores[kind].blocks:
            writer.write_block(block)
    writer.finalize(
        columns,
        seed=9,
        preset="small",
        canonical_hashes=("0x00", "0xaa"),
        head_hash="0xaa",
    )
    return originals


def test_all_kinds_round_trip_through_the_container(tmp_path):
    path = tmp_path / "run.trace.bin"
    originals = _write_container(path)
    reader = TraceBinReader(path, TRACE_SCHEMA_VERSION)
    assert reader.seed == 9
    assert reader.preset == "small"
    assert reader.canonical_hashes == ("0x00", "0xaa")
    assert reader.head_hash == "0xaa"
    assert reader.record_count == len(originals)

    decoded = []
    for kind in KIND_ORDER:
        for block in reader.iter_kind_blocks(kind):
            decoded.extend(materialize_block(block, reader.symbols, reader.ids))
    # Exact dataclass equality, kind by kind: every field of every kind
    # survived the f64 pack, symbol/id interning, and the varlen codecs.
    by_kind = {type(r): r for r in decoded}
    assert len(decoded) == len(originals)
    for original in originals:
        assert by_kind[type(original)] == original


def test_per_kind_iteration_seeks_only_matching_blocks(tmp_path):
    path = tmp_path / "run.trace.bin"
    originals = _write_container(path)
    reader = TraceBinReader(path, TRACE_SCHEMA_VERSION)
    for original in originals:
        blocks = list(reader.iter_kind_blocks(type(original)))
        assert len(blocks) == 1
        (back,) = materialize_block(blocks[0], reader.symbols, reader.ids)
        assert back == original


def test_no_tmp_sibling_survives_finalize(tmp_path):
    path = tmp_path / "run.trace.bin"
    _write_container(path)
    assert [p.name for p in tmp_path.iterdir()] == ["run.trace.bin"]
    assert TraceScan(path).record_count() == len(sample_records())


def test_writer_creates_missing_target_directory(tmp_path):
    """Streaming sinks open before anything else touches the cache dir.

    A fleet worker wires ``stream_trace_to`` into a disk cache that
    ``store_dataset`` has not created yet (regression: the first traced
    sweep into a fresh ``--cache-dir`` killed every worker)."""
    path = tmp_path / "cache" / "deep" / "run.trace.bin"
    originals = _write_container(path)
    reader = TraceBinReader(path, TRACE_SCHEMA_VERSION)
    assert reader.record_count == len(originals)


def test_abort_removes_the_partial_file(tmp_path):
    path = tmp_path / "run.trace.bin"
    writer = TraceBinWriter(path, TRACE_SCHEMA_VERSION)
    writer.abort()
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(TraceError, match="no trace file"):
        TraceScan(path)


def test_write_after_finalize_is_rejected(tmp_path):
    path = tmp_path / "run.trace.bin"
    columns = TraceColumns()
    writer = TraceBinWriter(path, TRACE_SCHEMA_VERSION)
    writer.finalize(
        columns, seed=1, preset="small", canonical_hashes=(), head_hash=""
    )
    store = TraceColumns().stores[KIND_ORDER[0]]
    with pytest.raises(TraceError, match="already finalized"):
        writer.write_block(store.staging_block() or _dummy_block())


def _dummy_block():
    columns = TraceColumns()
    for record in sample_records():
        columns.append_record(record)
    return columns.stores[KIND_ORDER[0]].staging_block()


def test_non_container_file_is_rejected(tmp_path):
    path = tmp_path / "garbage.trace.bin"
    path.write_bytes(b"certainly not a trace container")
    with pytest.raises(TraceError, match="not a binary trace container"):
        TraceScan(path)


def test_missing_file_is_rejected(tmp_path):
    with pytest.raises(TraceError, match="no trace file"):
        TraceBinReader(tmp_path / "missing.trace.bin", TRACE_SCHEMA_VERSION)


def test_truncated_file_reports_the_mid_write_death(tmp_path):
    path = tmp_path / "run.trace.bin"
    _write_container(path)
    whole = path.read_bytes()
    # Chop the tail: exactly what a crashed writer leaves behind.
    path.write_bytes(whole[:-24])
    with pytest.raises(TraceError, match="truncated"):
        TraceBinReader(path, TRACE_SCHEMA_VERSION)


def test_future_container_version_is_rejected(tmp_path):
    path = tmp_path / "run.trace.bin"
    _write_container(path)
    raw = bytearray(path.read_bytes())
    # Preamble: 4s magic | u16 container | u16 schema | u32 header len.
    struct.pack_into("<H", raw, 4, CONTAINER_VERSION + 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceError, match="container version"):
        TraceBinReader(path, TRACE_SCHEMA_VERSION)


def test_future_trace_schema_is_rejected(tmp_path):
    path = tmp_path / "run.trace.bin"
    _write_container(path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<H", raw, 6, TRACE_SCHEMA_VERSION + 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceError, match="trace schema"):
        TraceBinReader(path, TRACE_SCHEMA_VERSION)


def test_corrupt_symbol_table_is_rejected(tmp_path):
    path = tmp_path / "run.trace.bin"
    _write_container(path)
    raw = bytearray(path.read_bytes())
    # Locate the trailer through the fixed tail (u64 offset + end magic),
    # then stomp a byte of its JSON with invalid UTF-8.
    (trailer_offset,) = struct.unpack_from("<Q", raw, len(raw) - 12)
    assert raw[len(raw) - 4 :] == END_MAGIC
    raw[trailer_offset + 6] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceError, match="trailer .*corrupt"):
        TraceBinReader(path, TRACE_SCHEMA_VERSION)


def test_corrupt_block_section_is_rejected(tmp_path):
    path = tmp_path / "run.trace.bin"
    _write_container(path)
    raw = bytearray(path.read_bytes())
    # Data starts right after the preamble + JSON header; stomping the
    # first section marker breaks the block index walk.
    (header_len,) = struct.unpack_from("<I", raw, 8)
    data_start = 12 + header_len
    raw[data_start] = 0x7F
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceError, match="corrupt section"):
        TraceBinReader(path, TRACE_SCHEMA_VERSION)
