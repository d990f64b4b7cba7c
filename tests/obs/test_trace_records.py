"""Trace record schema: container round trip and type-tagged JSON export."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import Trace, convert_trace
from repro.obs.records import (
    TRACE_RECORD_TYPES,
    BlockReceived,
    BlockSealed,
    GossipSend,
    HeadChanged,
    LotteryWin,
    MetricsSample,
    trace_to_json,
)

_SAMPLES = [
    LotteryWin(time=1.0, pool="Ethermine", block_hashes=("0xaa", "0xbb")),
    BlockSealed(
        time=1.0,
        block_hash="0xaa",
        parent_hash="0x00",
        height=1,
        pool="Ethermine",
        variant=0,
        variants=2,
        tx_count=120,
    ),
    GossipSend(
        time=1.5,
        kind="NewBlock",
        sender="gw-Ethermine-0",
        recipient="reg-0001",
        sender_region="WE",
        recipient_region="NA",
        size=41_234,
        latency=0.085,
        block_hash="0xaa",
    ),
    BlockReceived(
        time=1.6, node="reg-0001", block_hash="0xaa", height=1, peer_id=7,
        direct=True,
    ),
    HeadChanged(
        time=1.7, node="reg-0001", old_head="0x00", new_head="0xaa",
        height=1, reorg_depth=0,
    ),
    MetricsSample(time=4.0, metrics={"blocks_imported_total": 3.0}),
]


def _export(tmp_path, records) -> tuple[list, list]:
    """Save ``records`` as a container, export it; (scanned, lines)."""
    container = Trace(seed=1, records=records).save(tmp_path / "t.trace.bin")
    exported = convert_trace(container, tmp_path / "t.trace.jsonl")
    lines = exported.read_text(encoding="utf-8").splitlines()
    scan = Trace.scan(container)
    assert len(lines) == scan.record_count() + 1
    return list(scan.iter_records()), [json.loads(line) for line in lines[1:]]


@pytest.mark.parametrize("record", _SAMPLES, ids=lambda r: type(r).__name__)
def test_round_trip_preserves_record(tmp_path, record):
    scanned, exported = _export(tmp_path, [record])
    assert scanned == [record]
    assert exported == [json.loads(json.dumps(trace_to_json(record)))]
    assert exported[0]["_type"] == type(record).__name__


def test_tuple_fields_come_back_as_tuples(tmp_path):
    # The container restores tuples, so scanned records compare equal to
    # freshly emitted ones; the JSON export writes them as arrays.
    record = _SAMPLES[0]
    (scanned,), (exported,) = _export(tmp_path, [record])
    assert scanned == record
    assert isinstance(scanned.block_hashes, tuple)
    assert exported["block_hashes"] == list(record.block_hashes)


def test_registry_covers_every_record_type():
    assert len(TRACE_RECORD_TYPES) == 17
    for name, cls in TRACE_RECORD_TYPES.items():
        assert cls.__name__ == name
