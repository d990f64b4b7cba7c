"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments import cache


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out
    assert "presets" in out


def test_history_command(capsys):
    assert main(["history", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Whole-history streaks" in out
    assert "paper observed" in out


def test_run_command_saves_dataset(tmp_path, capsys):
    out_path = tmp_path / "ds.jsonl"
    assert main(["run", "--preset", "small", "--seed", "91", "--out", str(out_path)]) == 0
    assert out_path.exists()
    out = capsys.readouterr().out
    assert "campaign complete" in out


def test_analyze_command_on_saved_dataset(tmp_path, capsys):
    out_path = tmp_path / "ds.jsonl"
    main(["run", "--preset", "small", "--seed", "91", "--out", str(out_path)])
    capsys.readouterr()
    code = main(["analyze", "fig1", "fig2", "--dataset", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Figure 1" in out
    assert "Figure 2" in out


def test_analyze_unknown_experiment_fails_fast():
    with pytest.raises(Exception):
        main(["analyze", "fig99", "--preset", "small"])


def test_analyze_uses_campaign_cache(capsys):
    cache.clear_memory_cache()
    try:
        assert main(["analyze", "summary", "--preset", "small", "--seed", "92"]) == 0
        expected_key = ("small", 92, str(cache.DEFAULT_CACHE_DIR))
        assert expected_key in cache._MEMORY_CACHE
    finally:
        cache.clear_memory_cache()
    out = capsys.readouterr().out
    assert "Campaign summary" in out


@pytest.mark.slow
def test_sweep_command_runs_parallel_fleet(tmp_path, capsys):
    cache.clear_memory_cache()
    try:
        merged_out = tmp_path / "merged.jsonl"
        code = main(
            [
                "sweep",
                "--preset", "small",
                "--seed", "93",
                "--seeds", "2",
                "--jobs", "2",
                "--batch-size", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--merged-out", str(merged_out),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Fleet profile" in out
        assert "2 ok, 0 failed" in out
        assert merged_out.exists()
        for seed in (93, 94):
            assert (tmp_path / "cache" / cache.cache_key("small", seed)).exists()
    finally:
        cache.clear_memory_cache()


def test_sweep_command_rejects_nonpositive_seeds(capsys):
    assert main(["sweep", "--preset", "small", "--seeds", "0"]) == 2


def test_trace_lifecycle(tmp_path, capsys):
    """run --trace-out → repro trace: summary, tree, and delta report."""
    ds_path = tmp_path / "ds.jsonl"
    tr_path = tmp_path / "tr.trace.bin"
    assert (
        main(
            [
                "run",
                "--preset", "small",
                "--seed", "95",
                "--out", str(ds_path),
                "--trace-out", str(tr_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert f"trace saved to {tr_path}" in out
    assert tr_path.exists()

    # Summary mode: one row per canonical block.
    assert main(["trace", str(tr_path), "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert "canonical blocks" in out
    assert "seed 95" in out and "preset small" in out

    # Tree mode on the head, capped.
    assert main(["trace", str(tr_path), "head", "--max-nodes", "5"]) == 0
    out = capsys.readouterr().out
    assert "block 0x" in out
    assert "injected" in out
    assert "more nodes" in out

    # Delta report against the same run's dataset.
    assert (
        main(["trace", str(tr_path), "head", "--dataset", str(ds_path)]) == 0
    )
    out = capsys.readouterr().out
    assert "ground truth vs measured" in out
    assert "WE-default" in out


def test_columnar_trace_convert_round_trip(tmp_path, capsys):
    """run → .trace.bin → JSONL export; the export is write-only."""
    from repro.obs.export import Trace

    bin_path = tmp_path / "tr.trace.bin"
    assert (
        main(
            [
                "run",
                "--preset", "small",
                "--seed", "95",
                "--trace-out", str(bin_path),
            ]
        )
        == 0
    )
    capsys.readouterr()

    jsonl_path = tmp_path / "tr.trace.jsonl"
    assert main(["trace", "convert", str(bin_path), str(jsonl_path)]) == 0
    assert f"trace converted to {jsonl_path}" in capsys.readouterr().out
    lines = jsonl_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == Trace.scan(bin_path).record_count() + 1
    assert '"_type": "TraceHeader"' in lines[0]

    # The export is write-only: it cannot be analysed or exported again,
    # and convert never writes a container.
    assert main(["trace", str(jsonl_path), "--limit", "3"]) == 2
    assert "cannot load trace" in capsys.readouterr().out
    again_path = tmp_path / "again.trace.jsonl"
    assert main(["trace", "convert", str(jsonl_path), str(again_path)]) == 2
    assert "cannot convert trace" in capsys.readouterr().out
    back_path = tmp_path / "back.trace.bin"
    assert main(["trace", "convert", str(bin_path), str(back_path)]) == 2
    assert "cannot convert trace" in capsys.readouterr().out
    assert not again_path.exists() and not back_path.exists()


def test_run_rejects_a_non_container_trace_out(tmp_path, capsys):
    trace_out = tmp_path / "x.jsonl"
    assert (
        main(["run", "--preset", "small", "--trace-out", str(trace_out)])
        == 2
    )
    out = capsys.readouterr().out
    assert "repro trace convert" in out
    assert "campaign complete" not in out
    assert list(tmp_path.iterdir()) == []


def test_trace_command_failure_modes(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "missing.jsonl")]) == 2
    assert "cannot load trace" in capsys.readouterr().out
