"""Perf-trajectory records from pytest-benchmark output (CI bench job).

Two subcommands::

    python -m repro.devtools.benchtrack reduce \\
        --input bench-raw.json --date 2026-08-07 --out BENCH_2026-08-07.json
    python -m repro.devtools.benchtrack compare \\
        --record BENCH_2026-08-07.json --baseline BENCH_BASELINE.json

``reduce`` boils a full ``pytest-benchmark --benchmark-json`` dump down
to a small, diff-friendly record: per-bench wall seconds plus every
numeric ``benchmark.extra_info`` entry (events/s, fleet speedup, tracing
overhead, churn degradation — the numbers the benches explicitly
publish for trajectory tracking).

``compare`` enforces the regression gate against the committed
baseline: a gated metric may not regress by more than ``--threshold``
(default 30 %).  Only the metrics named in :data:`GATES` are enforced —
wall-clock means of the remaining benches are recorded for trend
reading but not gated, because shared CI runners make raw wall time
too noisy for a hard gate.  :data:`FLOORS` additionally pins
baseline-independent minimums (the fleet-speedup > 1 promotion, guarded
on the runner's core count so single-core hosts are exempt), and
:data:`CEILINGS` pins baseline-independent maximums — most notably the
always-on tracing overhead ratio, which DESIGN.md §5e budgets at 1.20×
a plain run and which the observability bench measures as a min over
interleaved plain/traced pairs precisely so this ceiling can be
enforced absolutely rather than relative to a drifting baseline.

The run date is passed in by the caller (CI uses ``date -u +%F``)
instead of being read from the wall clock, keeping this module inside
the repo-wide determinism discipline (DET001).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

#: Record schema, bumped on incompatible layout changes.
BENCH_RECORD_SCHEMA = 1

#: Default allowed relative regression before `compare` fails.
DEFAULT_THRESHOLD = 0.30

#: Gated metrics: ``(bench name, metric key, direction)``.  Direction
#: ``"higher"`` fails when the record drops below baseline by more than
#: the threshold; ``"lower"`` fails when it rises above it.
GATES: tuple[tuple[str, str, str], ...] = (
    ("test_standard_campaign_events_per_second", "events_per_second", "higher"),
    ("test_mainnet_peer_scaling", "events_per_second_15k", "higher"),
    ("test_parallel_sweep_speedup", "speedup", "higher"),
    ("test_tracing_noop_overhead", "plain_events_per_second", "higher"),
    ("test_tracing_noop_overhead", "traced_events_per_second", "higher"),
    ("test_whole_program_lint_runtime", "lint_seconds", "lower"),
)

#: Absolute floor gates: ``(bench, metric, floor, guard_key, guard_min)``.
#: Unlike :data:`GATES` these are baseline-independent — the record fails
#: whenever the metric sits below the floor, regardless of what the
#: baseline says.  The floor only applies when the record's same bench
#: carries ``guard_key >= guard_min``: the fleet-speedup floor is a
#: physical claim about parallel hardware, so a single-core runner
#: (which cannot beat sequential) records the ratio without being gated.
FLOORS: tuple[tuple[str, str, float, str, float], ...] = (
    ("test_parallel_sweep_speedup", "speedup", 1.0, "cores", 2.0),
)

#: Absolute ceiling gates: ``(bench, metric, ceiling)``.  Like
#: :data:`FLOORS` these are baseline-independent — the record fails
#: whenever the metric rises above the ceiling.  ``tracing_overhead``
#: is the traced-vs-plain cost *ratio* (1.0 = free), reported by the
#: observability bench as the minimum over interleaved pairs so a noisy
#: co-tenant can only push the measurement up, never sneak a regression
#: under the bar.
CEILINGS: tuple[tuple[str, str, float], ...] = (
    ("test_tracing_noop_overhead", "tracing_overhead", 1.20),
)


def _short_name(fullname: str) -> str:
    """``benchmarks/bench_x.py::test_y`` -> ``test_y``."""
    return fullname.rsplit("::", 1)[-1]


def reduce_benchmarks(
    raw: Mapping[str, Any], date: str
) -> dict[str, Any]:
    """Boil a pytest-benchmark JSON dump down to a trajectory record."""
    benches: dict[str, dict[str, float]] = {}
    for bench in raw.get("benchmarks", ()):
        entry: dict[str, float] = {
            "wall_seconds": float(bench["stats"]["mean"])
        }
        for key, value in bench.get("extra_info", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry[str(key)] = float(value)
        benches[_short_name(str(bench["name"]))] = entry
    if not benches:
        raise ValueError("no benchmarks in input (wrong file?)")
    return {
        "schema": BENCH_RECORD_SCHEMA,
        "date": date,
        "benchmarks": dict(sorted(benches.items())),
    }


def compare_records(
    record: Mapping[str, Any],
    baseline: Mapping[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[str]:
    """Regression messages for every violated gate (empty = pass)."""
    failures: list[str] = []
    record_benches = record.get("benchmarks", {})
    baseline_benches = baseline.get("benchmarks", {})
    for bench, metric, direction in GATES:
        base = baseline_benches.get(bench, {}).get(metric)
        new = record_benches.get(bench, {}).get(metric)
        if base is None or new is None or base <= 0:
            continue  # gate applies only where both records carry the metric
        ratio = new / base
        if direction == "higher" and ratio < 1.0 - threshold:
            failures.append(
                f"{bench}.{metric}: {new:,.2f} vs baseline {base:,.2f} "
                f"({100 * (1 - ratio):.1f}% drop > {100 * threshold:.0f}% "
                "allowed)"
            )
        elif direction == "lower" and ratio > 1.0 + threshold:
            failures.append(
                f"{bench}.{metric}: {new:,.2f} vs baseline {base:,.2f} "
                f"({100 * (ratio - 1):.1f}% rise > {100 * threshold:.0f}% "
                "allowed)"
            )
    for bench, metric, floor, guard_key, guard_min in FLOORS:
        entry = record_benches.get(bench, {})
        new = entry.get(metric)
        guard = entry.get(guard_key)
        if new is None or guard is None or guard < guard_min:
            continue  # metric absent, or the guard says the floor can't hold
        if new < floor:
            failures.append(
                f"{bench}.{metric}: {new:,.2f} below the hard floor "
                f"{floor:,.2f} ({guard_key}={guard:g})"
            )
    for bench, metric, ceiling in CEILINGS:
        new = record_benches.get(bench, {}).get(metric)
        if new is None:
            continue  # ceiling applies only where the record carries it
        if new > ceiling:
            failures.append(
                f"{bench}.{metric}: {new:,.2f} above the hard ceiling "
                f"{ceiling:,.2f}"
            )
    return failures


def _load_json(path: Path) -> dict[str, Any]:
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"benchtrack: {path} does not exist")
    except json.JSONDecodeError as error:
        raise SystemExit(f"benchtrack: {path} is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise SystemExit(f"benchtrack: {path} must hold a JSON object")
    return payload


def _cmd_reduce(args: argparse.Namespace) -> int:
    raw = _load_json(args.input)
    try:
        record = reduce_benchmarks(raw, date=args.date)
    except ValueError as error:
        print(f"benchtrack: {error}")
        return 2
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    metrics = sum(len(entry) for entry in record["benchmarks"].values())
    print(
        f"wrote {args.out}: {len(record['benchmarks'])} benches, "
        f"{metrics} metrics"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    record = _load_json(args.record)
    baseline = _load_json(args.baseline)
    failures = compare_records(record, baseline, threshold=args.threshold)
    gated = [
        (bench, metric)
        for bench, metric, _ in GATES
        if metric in baseline.get("benchmarks", {}).get(bench, {})
    ]
    if failures:
        print(f"perf regression vs {args.baseline}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    floors = [
        (bench, metric)
        for bench, metric, _, guard_key, guard_min in FLOORS
        if record.get("benchmarks", {}).get(bench, {}).get(guard_key, 0)
        >= guard_min
    ]
    ceilings = [
        (bench, metric)
        for bench, metric, _ in CEILINGS
        if metric in record.get("benchmarks", {}).get(bench, {})
    ]
    print(
        f"no perf regression vs {args.baseline} "
        f"({len(gated)} gated metrics, threshold "
        f"{100 * args.threshold:.0f}%; {len(floors)} hard floors and "
        f"{len(ceilings)} hard ceilings active)"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchtrack",
        description="Reduce pytest-benchmark output to a perf-trajectory "
        "record and enforce the regression gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reduce = sub.add_parser("reduce", help="raw benchmark JSON -> record")
    reduce.add_argument("--input", type=Path, required=True,
                        help="pytest-benchmark --benchmark-json output")
    reduce.add_argument("--date", required=True,
                        help="record date, e.g. $(date -u +%%F)")
    reduce.add_argument("--out", type=Path, required=True,
                        help="where to write the BENCH_<date>.json record")

    compare = sub.add_parser("compare", help="record vs committed baseline")
    compare.add_argument("--record", type=Path, required=True)
    compare.add_argument("--baseline", type=Path, required=True)
    compare.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                         help="allowed relative regression (default 0.30)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "reduce":
        return _cmd_reduce(args)
    return _cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
