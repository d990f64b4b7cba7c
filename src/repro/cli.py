"""Command-line interface.

Subcommands::

    repro run       — run a campaign and save the data set as JSONL
    repro sweep     — run a multi-seed campaign fleet in parallel
    repro analyze   — run experiments against a saved (or fresh) data set
    repro trace     — inspect a ground-truth trace (propagation trees)
    repro list      — list available experiments and presets
    repro history   — §III-D whole-history streak lookback (no campaign)
    repro lint      — determinism & sim-safety static analysis (CI gate)

Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.sequences import simulate_history_epochs
from repro.devtools.lint import add_lint_arguments
from repro.devtools.lint import execute as execute_lint
from repro.errors import AnalysisError, DatasetError, ExperimentError, TraceError
from repro.experiments.cache import DEFAULT_CACHE_DIR, campaign_dataset
from repro.experiments.fleet import run_fault_grid, run_seed_sweep
from repro.faults.plan import FaultPlan
from repro.experiments.presets import preset
from repro.experiments.registry import (
    EXPERIMENTS,
    all_experiment_ids,
    get_experiment,
)
from repro.experiments.result import ensure_renderable
from repro.measurement.campaign import Campaign
from repro.measurement.dataset import MeasurementDataset
from repro.measurement.merge import merge_datasets
from repro.obs.blocktrace import (
    build_propagation_tree,
    render_campaign_summary,
    render_delta_report,
    render_propagation_tree,
    resolve_block_hash,
    vantage_deltas,
)
from repro.obs.export import Trace, convert_trace, require_bin_path
from repro.stats import format_fleet_profile


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Impact of Geo-distribution "
        "and Mining Pools on Blockchains' (DSN 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a measurement campaign")
    run.add_argument("--preset", default="small", choices=("small", "standard", "large", "mainnet"))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--out", type=Path, default=None, help="save data set as JSONL")
    run.add_argument(
        "--trace-out", type=Path, default=None,
        help="enable ground-truth tracing and stream the trace to this "
        ".trace.bin container",
    )
    run.add_argument(
        "--faults", type=Path, default=None, metavar="PLAN.json",
        help="inject the fault plan (churn/link faults/partitions/crashes) "
        "loaded from this JSON file",
    )

    sweep = sub.add_parser(
        "sweep", help="run a multi-seed campaign fleet in parallel"
    )
    sweep.add_argument(
        "--preset", default="small", choices=("small", "standard", "large", "mainnet")
    )
    sweep.add_argument("--seed", type=int, default=1, help="first seed")
    sweep.add_argument(
        "--seeds", type=int, default=2, help="number of seeds (seed .. seed+N-1)"
    )
    sweep.add_argument(
        "--jobs", type=int, default=None,
        help="warm worker processes (default: all cores)",
    )
    sweep.add_argument(
        "--batch-size", type=int, default=None,
        help="seeds per worker dispatch — one batch amortizes process "
        "spawn and interpreter warm-up over many campaigns (default: "
        "auto, about four dispatch waves per worker)",
    )
    sweep.add_argument(
        "--cache-dir", type=Path, default=DEFAULT_CACHE_DIR,
        help="disk cache the workers write per-seed datasets into",
    )
    sweep.add_argument(
        "--merged-out", type=Path, default=None,
        help="also save the merged multi-seed data set as JSONL",
    )
    sweep.add_argument(
        "--trace", action="store_true",
        help="export a ground-truth trace per seed next to the dataset cache",
    )
    sweep.add_argument(
        "--faults", type=Path, default=None, metavar="PLAN.json",
        help="fault plan for an ablation grid over fault intensity "
        "(see --fault-intensities)",
    )
    sweep.add_argument(
        "--fault-intensities", default="0,0.5,1",
        help="comma-separated intensity multipliers applied to the --faults "
        "plan; each grid point runs every seed (default: 0,0.5,1)",
    )

    trace = sub.add_parser(
        "trace", help="inspect or export a ground-truth trace file"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    show = trace_sub.add_parser(
        "show",
        help="propagation trees and per-block summaries "
        "(default subcommand: `repro trace FILE` works too)",
    )
    show.add_argument(
        "trace_file", type=Path, help="trace container (.trace.bin)"
    )
    show.add_argument(
        "block", nargs="?", default=None,
        help="block to reconstruct: 'head' or an unambiguous hash prefix "
        "(omit for a per-canonical-block summary table)",
    )
    show.add_argument(
        "--dataset", type=Path, default=None,
        help="same-run data set JSONL; adds the ground-truth vs measured "
        "per-vantage delta report",
    )
    show.add_argument(
        "--max-nodes", type=int, default=0,
        help="cap the propagation-tree rendering (0 = all nodes)",
    )
    show.add_argument(
        "--limit", type=int, default=0,
        help="summary mode: keep only the last N canonical blocks (0 = all)",
    )
    convert = trace_sub.add_parser(
        "convert",
        help="export a .trace.bin container as type-tagged JSONL",
    )
    convert.add_argument(
        "trace_file", type=Path, help="source trace container (.trace.bin)"
    )
    convert.add_argument(
        "out_file", type=Path, help="JSONL destination (not .bin)"
    )

    analyze = sub.add_parser("analyze", help="run experiments on a data set")
    analyze.add_argument("experiments", nargs="*", help="experiment ids (default: all)")
    analyze.add_argument("--dataset", type=Path, default=None, help="saved JSONL data set")
    analyze.add_argument(
        "--preset", default="small", choices=("small", "standard", "large", "mainnet"),
        help="campaign preset when no --dataset is given",
    )
    analyze.add_argument("--seed", type=int, default=1)

    sub.add_parser("list", help="list experiments and presets")

    history = sub.add_parser("history", help="whole-history streak lookback")
    history.add_argument("--seed", type=int, default=3)

    lint = sub.add_parser(
        "lint", help="determinism & sim-safety static analysis"
    )
    add_lint_arguments(lint)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = preset(args.preset, args.seed)
    if args.trace_out is not None:
        try:
            require_bin_path(args.trace_out)
        except TraceError as error:
            print(f"cannot write trace: {error}")
            return 2
        config = replace(
            config, scenario=replace(config.scenario, trace=True)
        )
    if args.faults is not None:
        config = replace(config, faults=FaultPlan.load(args.faults))
    campaign = Campaign(config)
    if args.trace_out is not None:
        # The trace streams to disk as blocks seal — the run never
        # retains the whole trace in memory.
        campaign.stream_trace_to(args.trace_out)
    dataset = campaign.run()
    main_blocks = len(dataset.chain.canonical_hashes) - 1
    print(
        f"campaign complete: {main_blocks} main blocks, "
        f"{len(dataset.tx_receptions)} tx observations, "
        f"{len(dataset.vantages)} vantages"
    )
    if args.out is not None:
        dataset.save(args.out)
        print(f"data set saved to {args.out}")
    if args.trace_out is not None:
        campaign.save_trace(args.trace_out, preset=args.preset)
        print(f"trace saved to {args.trace_out}")
    return 0


def _parse_intensities(raw: str) -> Optional[list[float]]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        return None
    return values if values and all(v >= 0 for v in values) else None


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        print("--seeds must be >= 1")
        return 2
    seeds = range(args.seed, args.seed + args.seeds)
    if args.faults is not None:
        intensities = _parse_intensities(args.fault_intensities)
        if intensities is None:
            print("--fault-intensities must be comma-separated numbers >= 0")
            return 2
        result = run_fault_grid(
            args.preset,
            FaultPlan.load(args.faults),
            intensities=intensities,
            seeds=seeds,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            use_disk=True,
            progress=print,
            trace=args.trace,
            batch_size=args.batch_size,
        )
    else:
        result = run_seed_sweep(
            args.preset,
            seeds=seeds,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            use_disk=True,
            progress=print,
            trace=args.trace,
            batch_size=args.batch_size,
        )
    print(format_fleet_profile(result.metrics, result.outcomes))
    for outcome in result.outcomes:
        if outcome.ok:
            blocks = len(outcome.dataset.chain.canonical_hashes) - 1
            origin = "cache" if outcome.from_cache else "worker"
            print(
                f"  {outcome.job.name} seed {outcome.job.seed}: "
                f"{blocks} main blocks ({origin}, {outcome.path})"
            )
            if outcome.trace_path is not None:
                # Machine-consumable (column 0): CI's trace-smoke step
                # scrapes these lines instead of globbing the cache dir.
                print(f"trace: {outcome.trace_path}")
        else:
            print(
                f"  {outcome.job.name} seed {outcome.job.seed}: "
                f"FAILED — {outcome.error}"
            )
    if args.merged_out is not None and result.datasets():
        merged = merge_datasets(result.datasets(), allow_disjoint_worlds=True)
        merged.save(args.merged_out)
        print(f"merged data set saved to {args.merged_out}")
    return 1 if result.failures() else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    ids = args.experiments or all_experiment_ids()
    for experiment_id in ids:
        get_experiment(experiment_id)  # validate before the expensive part
    if args.dataset is not None:
        dataset = MeasurementDataset.load(args.dataset)
    else:
        dataset = campaign_dataset(args.preset, args.seed)
    failures = 0
    for experiment_id in ids:
        experiment = get_experiment(experiment_id)
        print(f"\n[{experiment.experiment_id}] {experiment.title}")
        try:
            result = ensure_renderable(
                experiment.run(dataset), experiment.experiment_id
            )
            print(result.render())
        except (AnalysisError, DatasetError, ExperimentError) as error:
            # Only the deliberate library failures (errors.py) are
            # reportable; programming errors propagate with a traceback.
            failures += 1
            print(f"  analysis failed: {error}")
        for key, value in experiment.paper_values.items():
            print(f"    paper: {key} = {value}")
    return 1 if failures else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "convert":
        try:
            convert_trace(args.trace_file, args.out_file)
        except TraceError as error:
            print(f"cannot convert trace: {error}")
            return 2
        print(f"trace converted to {args.out_file}")
        return 0
    try:
        # The container opens as a streaming scan: analysis reads
        # column blocks straight off disk instead of materializing the
        # whole trace in memory.
        trace = Trace.scan(args.trace_file)
    except TraceError as error:
        print(f"cannot load trace: {error}")
        return 2
    if args.block is None:
        print(render_campaign_summary(trace, limit=args.limit))
        return 0
    try:
        block_hash = resolve_block_hash(trace, args.block)
        tree = build_propagation_tree(trace, block_hash)
    except TraceError as error:
        print(str(error))
        return 2
    print(render_propagation_tree(tree, max_nodes=args.max_nodes))
    if args.dataset is not None:
        dataset = MeasurementDataset.load(args.dataset)
        print()
        print(render_delta_report(vantage_deltas(trace, dataset, block_hash)))
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    print("experiments:")
    for experiment in EXPERIMENTS:
        print(f"  {experiment.experiment_id:<10} {experiment.title}")
    print("presets: small, standard, large, mainnet")
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    print(simulate_history_epochs(seed=args.seed).render())
    print("paper observed: 102 / 41 / 4 / 1 streaks of length >= 10/11/12/14")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "trace": _cmd_trace,
    "list": _cmd_list,
    "history": _cmd_history,
    "lint": execute_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    arg_list = list(sys.argv[1:] if argv is None else argv)
    if (
        arg_list
        and arg_list[0] == "trace"
        and len(arg_list) > 1
        and arg_list[1] not in ("show", "convert", "-h", "--help")
    ):
        # Back-compat: `repro trace FILE ...` means `repro trace show`.
        arg_list.insert(1, "show")
    args = _build_parser().parse_args(arg_list)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
