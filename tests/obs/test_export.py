"""Trace persistence: atomic ``.trace.bin`` save, scan, JSONL export."""

from __future__ import annotations

import json

import pytest

from repro.errors import TraceError
from repro.measurement.campaign import Campaign
from repro.obs.binio import TraceBinWriter
from repro.obs.export import TRACE_SCHEMA_VERSION, Trace, convert_trace
from repro.obs.records import BlockReceived, BlockSealed, MetricsSample


def _sample_trace() -> Trace:
    return Trace(
        seed=55,
        preset="small",
        canonical_hashes=("0x00", "0xaa"),
        head_hash="0xaa",
        records=[
            BlockSealed(
                time=1.0,
                block_hash="0xaa",
                parent_hash="0x00",
                height=1,
                pool="Ethermine",
                variant=0,
                variants=1,
                tx_count=3,
            ),
            BlockReceived(
                time=1.1, node="reg-0001", block_hash="0xaa", height=1,
                peer_id=4, direct=True,
            ),
            MetricsSample(time=4.0, metrics={"blocks_imported_total": 1.0}),
        ],
    )


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "run.trace.bin"
    original = _sample_trace()
    assert original.save(path) == path
    loaded = Trace.scan(path)
    assert loaded.seed == original.seed
    assert loaded.preset == original.preset
    assert loaded.canonical_hashes == original.canonical_hashes
    assert loaded.head_hash == original.head_hash
    assert list(loaded.iter_records()) == original.records
    # No stray tmp files left behind.
    assert list(tmp_path.iterdir()) == [path]


def test_save_rejects_a_non_container_suffix(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    with pytest.raises(TraceError, match="repro trace convert"):
        _sample_trace().save(path)
    campaign = Campaign()
    with pytest.raises(TraceError, match="repro trace convert"):
        campaign.save_trace(path)
    with pytest.raises(TraceError, match="repro trace convert"):
        campaign.stream_trace_to(path)
    assert campaign.scenario is None  # rejected before deployment
    assert list(tmp_path.iterdir()) == []


def test_failed_write_removes_the_temp_file(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(TraceBinWriter, "finalize", fail)
    with pytest.raises(OSError, match="disk full"):
        _sample_trace().save(tmp_path / "run.trace.bin")
    assert list(tmp_path.iterdir()) == []


def test_header_line_is_first_and_typed(tmp_path):
    container = tmp_path / "run.trace.bin"
    _sample_trace().save(container)
    path = convert_trace(container, tmp_path / "run.trace.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    assert first["_type"] == "TraceHeader"
    assert first["schema"] == TRACE_SCHEMA_VERSION
    assert first["seed"] == 55
    assert first["preset"] == "small"
    assert first["canonical_hashes"] == ["0x00", "0xaa"]
    assert len(lines) == Trace.scan(container).record_count() + 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run.trace.bin",
        "run.trace.jsonl",
    ]


def test_convert_rejects_a_container_destination(tmp_path):
    container = tmp_path / "run.trace.bin"
    _sample_trace().save(container)
    with pytest.raises(TraceError, match="exports JSONL"):
        convert_trace(container, tmp_path / "again.trace.bin")
    assert list(tmp_path.iterdir()) == [container]


def test_load_failure_modes(tmp_path):
    with pytest.raises(TraceError, match="no trace file"):
        Trace.scan(tmp_path / "missing.trace.bin")
    empty = tmp_path / "empty.trace.bin"
    empty.write_bytes(b"")
    with pytest.raises(TraceError, match="not a binary trace container"):
        Trace.scan(empty)
    # A JSONL export is write-only: feeding it back in is rejected.
    container = tmp_path / "run.trace.bin"
    _sample_trace().save(container)
    exported = convert_trace(container, tmp_path / "run.trace.jsonl")
    with pytest.raises(TraceError, match="not a binary trace container"):
        Trace.scan(exported)
    with pytest.raises(TraceError, match="not a binary trace container"):
        convert_trace(exported, tmp_path / "again.trace.jsonl")
