"""benchtrack: raw pytest-benchmark dumps -> trajectory records -> gate."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.devtools.benchtrack import (
    CEILINGS,
    FLOORS,
    GATES,
    compare_records,
    main,
    reduce_benchmarks,
)

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


def _raw(events_per_second: float = 14_000.0) -> dict:
    return {
        "benchmarks": [
            {
                "name": (
                    "benchmarks/bench_simulation.py::"
                    "test_standard_campaign_events_per_second"
                ),
                "stats": {"mean": 60.2},
                "extra_info": {
                    "events_per_second": events_per_second,
                    "events_processed": 1_200_000,
                    "note": "not numeric, must be dropped",
                    "flag": True,
                },
            },
            {
                "name": "benchmarks/bench_simulation.py::test_parallel_sweep_speedup",
                "stats": {"mean": 30.0},
                "extra_info": {"speedup": 3.1},
            },
        ]
    }


def test_reduce_keeps_wall_and_numeric_extra_info_only():
    record = reduce_benchmarks(_raw(), date="2026-08-07")
    assert record["schema"] == 1
    assert record["date"] == "2026-08-07"
    bench = record["benchmarks"]["test_standard_campaign_events_per_second"]
    assert bench["wall_seconds"] == 60.2
    assert bench["events_per_second"] == 14_000.0
    assert "note" not in bench
    assert "flag" not in bench  # bools are not metrics


def test_reduce_rejects_empty_dumps():
    with pytest.raises(ValueError):
        reduce_benchmarks({"benchmarks": []}, date="2026-08-07")


def test_compare_passes_within_threshold_and_ignores_missing_metrics():
    baseline = reduce_benchmarks(_raw(14_000.0), date="2026-01-01")
    record = reduce_benchmarks(_raw(11_000.0), date="2026-08-07")
    # 21% drop < 30% threshold; obs metrics absent from both -> no gate.
    assert compare_records(record, baseline) == []


def test_compare_fails_on_throughput_regression():
    baseline = reduce_benchmarks(_raw(14_000.0), date="2026-01-01")
    record = reduce_benchmarks(_raw(9_000.0), date="2026-08-07")
    failures = compare_records(record, baseline)
    assert len(failures) == 1
    assert "events_per_second" in failures[0]
    assert "drop" in failures[0]
    # A tighter threshold catches the smaller drop too.
    record = reduce_benchmarks(_raw(13_000.0), date="2026-08-07")
    assert compare_records(record, baseline, threshold=0.05)


def _sweep_record(speedup: float, cores: float | None) -> dict:
    entry: dict = {"wall_seconds": 30.0, "speedup": speedup}
    if cores is not None:
        entry["cores"] = cores
    return {
        "schema": 1,
        "date": "2026-08-08",
        "benchmarks": {"test_parallel_sweep_speedup": entry},
    }


def test_speedup_floor_fails_below_one_on_multicore_runners():
    baseline = _sweep_record(0.53, cores=1)  # slow baseline can't mask it
    record = _sweep_record(0.81, cores=4)
    failures = compare_records(record, baseline)
    assert len(failures) == 1
    assert "below the hard floor" in failures[0]
    assert "cores=4" in failures[0]
    # Above the floor the same record passes.
    assert compare_records(_sweep_record(1.7, cores=4), baseline) == []


def test_speedup_floor_is_skipped_on_single_core_or_unrecorded_runners():
    baseline = _sweep_record(2.0, cores=4)
    # Single-core hosts cannot beat sequential: floor exempt (the
    # relative gate still applies, hence the generous baseline check).
    assert all(
        "hard floor" not in failure
        for failure in compare_records(_sweep_record(0.6, cores=1), baseline)
    )
    # No cores recorded at all -> guard absent -> floor skipped.
    assert all(
        "hard floor" not in failure
        for failure in compare_records(_sweep_record(0.6, cores=None), baseline)
    )


def _obs_record(overhead: float | None) -> dict:
    entry: dict = {"wall_seconds": 12.0, "plain_events_per_second": 90_000.0}
    if overhead is not None:
        entry["tracing_overhead"] = overhead
    return {
        "schema": 1,
        "date": "2026-08-08",
        "benchmarks": {"test_tracing_noop_overhead": entry},
    }


def test_tracing_overhead_ceiling_fails_above_budget():
    # Ceilings are baseline-independent: a generous baseline can't mask
    # the overhead ratio creeping past the DESIGN §5e budget.
    baseline = _obs_record(1.50)
    failures = compare_records(_obs_record(1.35), baseline)
    assert len(failures) == 1
    assert "above the hard ceiling" in failures[0]
    assert "tracing_overhead" in failures[0]


def test_tracing_overhead_ceiling_passes_at_or_below_budget():
    baseline = _obs_record(1.05)
    assert compare_records(_obs_record(1.20), baseline) == []
    assert compare_records(_obs_record(1.08), baseline) == []
    # Records that never measured the ratio are not gated on it.
    assert compare_records(_obs_record(None), baseline) == []


def test_cli_reduce_then_compare_round_trip(tmp_path, capsys):
    raw_path = tmp_path / "bench-raw.json"
    raw_path.write_text(json.dumps(_raw()))
    out_path = tmp_path / "BENCH_2026-08-07.json"
    assert main([
        "reduce", "--input", str(raw_path),
        "--date", "2026-08-07", "--out", str(out_path),
    ]) == 0
    assert json.loads(out_path.read_text())["date"] == "2026-08-07"

    assert main([
        "compare", "--record", str(out_path), "--baseline", str(out_path),
    ]) == 0
    assert "no perf regression" in capsys.readouterr().out

    slow = tmp_path / "slow.json"
    slow_raw = _raw(events_per_second=5_000.0)
    slow_record = tmp_path / "BENCH_slow.json"
    slow.write_text(json.dumps(slow_raw))
    assert main([
        "reduce", "--input", str(slow), "--date", "2026-08-08",
        "--out", str(slow_record),
    ]) == 0
    assert main([
        "compare", "--record", str(slow_record), "--baseline", str(out_path),
    ]) == 1
    assert "perf regression" in capsys.readouterr().out


def test_cli_compare_reports_missing_files(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "compare",
            "--record", str(tmp_path / "nope.json"),
            "--baseline", str(tmp_path / "nope.json"),
        ])


def test_every_gated_bench_exists_under_benchmarks():
    """``compare`` skips metrics a record lacks, so a gate whose bench was
    deleted would pass silently forever; every gate must name a live
    ``test_*`` function in ``benchmarks/``."""
    defined = {
        node.name
        for path in BENCHMARKS_DIR.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }
    gated = {gate[0] for gate in (*GATES, *FLOORS, *CEILINGS)}
    assert gated
    assert gated <= defined, sorted(gated - defined)
