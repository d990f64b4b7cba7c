"""One benchmark job, run in a fresh interpreter.

``run.py`` starts this script once per job, so every job gets its own
process and ``ru_maxrss`` reads that job's peak alone.  The job builds
its inputs from the workload seed, runs the campaign (or sweep), writes
and reads back the dataset, runs every registry experiment, digests the
outputs, then repeats the analysis pass (and a single campaign's dataset
write + read-back) for more timing samples, and prints one JSON line
with the wall time of each part of the job.

With ``--trace 1`` the per-layer :class:`~ledger.Ledger` wrappers are
installed before anything is built, and the line also carries the
per-layer metrics.  The coarse phase hooks of :class:`Probe` are
installed in both modes; they fire a few times per campaign and once per
slice of :data:`SLICE_EVENTS` events, never per event.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import repro  # noqa: E402
from repro.experiments import fleet  # noqa: E402
from repro.experiments.fleet import CampaignJob, CampaignPool  # noqa: E402
from repro.experiments.presets import preset  # noqa: E402
from repro.experiments.registry import EXPERIMENTS  # noqa: E402
from repro.measurement.campaign import Campaign, CampaignConfig  # noqa: E402
from repro.measurement.dataset import MeasurementDataset  # noqa: E402
from repro.node.miner import MAINNET_INTER_BLOCK_TIME  # noqa: E402
from repro.obs.blocktrace import render_campaign_summary  # noqa: E402
from repro.obs.export import Trace  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.process import PoissonProcess  # noqa: E402
from repro.workload.scenarios import STALE_RATE_COMPENSATION  # noqa: E402

from ledger import Ledger  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"imported repro from {repro.__file__}, not from {ROOT / 'src'}")

clock = time.perf_counter

#: Wall-time samples per part of a job, by part name.
Timings = dict[str, list[float]]

#: Sweep shape: campaigns per sweep and warm workers (fixed, not
#: ``nproc``, so the sweep is the same job on every host).
SWEEP_CAMPAIGNS = 4
SWEEP_WORKERS = 2

#: Layers whose share of the event loop a traced job reports.
SHARE_LAYERS = ("sim", "geo", "p2p", "node", "chain", "measurement", "obs")

#: After the job, its analysis pass (and, for a single campaign, its
#: dataset write + read-back) is repeated at least ``MIN_PASSES`` times
#: and until the repeats sum to ``ANALYSIS_SECONDS`` (``IO_SECONDS``), at
#: most ``MAX_PASSES`` times.  Co-tenants on a shared host can only slow
#: a pass down, so ``run.py`` takes the fastest sample; a write +
#: read-back takes a few tenths of a second, long enough to average over
#: the host's millisecond swings, so it needs more samples to catch a
#: fast stretch.
ANALYSIS_SECONDS = 0.5
IO_SECONDS = 1.5
MIN_PASSES = 2
MAX_PASSES = 500

#: The event loop is timed in slices of this many events.  Every job of
#: one seed fires the same events, so slice ``i`` is the same work in
#: each job of a run; ``run.py`` adds up each slice's fastest time.
SLICE_EVENTS = 250


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def file_sha(path: Path) -> str:
    return sha(path.read_bytes())


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #


def lottery_wins(seed: int, horizon: float) -> list[float]:
    """Times of the mining-lottery wins a scenario seeded ``seed`` draws
    in ``[0, horizon]``.

    Replays the ``mining.intervals`` stream with the same process type
    and rate ``build_scenario`` gives the coordinator; the job checks the
    prediction against the coordinator's real wins afterwards.
    """
    simulator = Simulator(seed=seed)
    wins: list[float] = []
    PoissonProcess(
        simulator,
        rate=1.0 / (MAINNET_INTER_BLOCK_TIME / STALE_RATE_COMPENSATION),
        callback=lambda: wins.append(simulator.now),
        rng=simulator.rng.stream("mining.intervals"),
    ).start()
    simulator.run(until=horizon)
    return wins


def screened_seed(first: int, start: float, horizon: float, wins: int, gap: float) -> int:
    """First scenario seed at or after ``first`` whose lottery draws
    exactly ``wins`` wins in ``[0, horizon]``, all of them in
    ``[start, horizon - gap]`` and at least ``gap`` apart.

    Block count is the unit of work of a short window; pinning it keeps
    one workload the same size across benchmark seeds.
    """
    candidate = first
    while True:
        times = lottery_wins(candidate, horizon)
        if (
            len(times) == wins
            and all(start <= t <= horizon - gap for t in times)
            and all(b - a >= gap for a, b in zip(times, times[1:]))
        ):
            return candidate
        candidate += 1


def standard_config(seed: int) -> CampaignConfig:
    """The ``standard`` preset over a 440 s window (600 s with warm-up)
    holding 48 blocks, the window's expected count."""
    config = preset("standard", 1)
    duration = 440.0
    horizon = config.scenario.warmup + duration
    scenario_seed = screened_seed(1000 * seed, 0.0, horizon, wins=48, gap=0.0)
    return replace(
        config,
        duration=duration,
        scenario=replace(config.scenario, seed=scenario_seed),
    )


def sweep_wins() -> tuple[float, int]:
    """Horizon of a ``small`` campaign and the block count it expects."""
    config = preset("small", 1)
    horizon = config.scenario.warmup + config.duration
    return horizon, round(horizon * STALE_RATE_COMPENSATION / MAINNET_INTER_BLOCK_TIME)


def sweep_seeds(seed: int) -> list[int]:
    """The sweep's campaign seeds: the first :data:`SWEEP_CAMPAIGNS`
    scenario seeds at or after ``1000 * seed`` whose lottery draws the
    ``small`` preset's expected block count."""
    horizon, wins = sweep_wins()
    seeds = [screened_seed(1000 * seed, 0.0, horizon, wins=wins, gap=0.0)]
    while len(seeds) < SWEEP_CAMPAIGNS:
        seeds.append(screened_seed(seeds[-1] + 1, 0.0, horizon, wins=wins, gap=0.0))
    return seeds


# --------------------------------------------------------------------- #
# Phase hooks
# --------------------------------------------------------------------- #


class Probe:
    """Coarse hooks around per-campaign entry points (plain and traced).

    Records when the first simulated event fires (the end of set-up),
    the wall time of each slice of :data:`SLICE_EVENTS` events, the
    program's own counters after each ``Campaign.run``, and the time
    spent writing and reading datasets and finalizing trace containers.

    ``Simulator.run(until)`` is called once per slice with
    ``max_events``; the loop resumes where the budget stopped it, so the
    events fired, their order and the final clock equal one unbroken run.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.first_event: Optional[float] = None
        self.setup_rss_mb = 0.0
        self.slices: list[float] = []
        self.io = {"save": 0.0, "load": 0.0, "finalize": 0.0}
        self.campaigns: list[dict[str, Any]] = []

    def to_json(self) -> dict[str, Any]:
        return {
            "first_event": self.first_event,
            "setup_rss_mb": self.setup_rss_mb,
            "io": self.io,
            "campaigns": self.campaigns,
        }

    def install(self) -> None:
        probe = self
        run = Simulator.run

        def simulator_run(
            self: Simulator, until: Optional[float] = None, max_events: Optional[int] = None
        ) -> None:
            if probe.first_event is None:
                probe.first_event = clock()
                probe.setup_rss_mb = rss_mb()
            if max_events is not None:
                run(self, until, max_events)
                return
            while True:
                start = clock()
                run(self, until, SLICE_EVENTS)
                probe.slices.append(clock() - start)
                if not self.budget_exhausted:
                    return

        campaign_run = Campaign.run

        def campaign_counters(self: Campaign) -> MeasurementDataset:
            dataset = campaign_run(self)
            scenario = self.scenario
            assert scenario is not None
            simulator = scenario.simulator
            network = scenario.network
            probe.campaigns.append({
                "events": simulator.events_processed,
                "loop_s": simulator.metrics.run_wall_seconds,
                "sim_s": simulator.now,
                "messages": network.messages_sent,
                "bytes": network.bytes_sent,
                "links": network.link_count(),
                "txs": len(scenario.workload.submitted) if scenario.workload else 0,
                "wins": [win.time for win in scenario.coordinator.wins],
                "records": sum(
                    len(stream) for stream in (
                        dataset.block_messages, dataset.block_imports,
                        dataset.tx_receptions, dataset.connections,
                    )
                ) + len(dataset.chain.blocks),
            })
            return dataset

        Simulator.run = simulator_run  # type: ignore[method-assign]
        Campaign.run = campaign_counters  # type: ignore[method-assign]
        self._time(Campaign, "save_trace", "finalize")
        self._time(MeasurementDataset, "save", "save")
        self._time(MeasurementDataset, "load", "load", classmethod_=True)

    def _time(self, owner: type, attr: str, key: str, classmethod_: bool = False) -> None:
        raw = owner.__dict__[attr]
        fn = raw.__func__ if classmethod_ else raw

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.io[key] += clock() - start

        setattr(owner, attr, classmethod(timed) if classmethod_ else timed)


# --------------------------------------------------------------------- #
# Outputs
# --------------------------------------------------------------------- #


def analyse(
    datasets: list[MeasurementDataset], traces: list[Path]
) -> tuple[list[str], dict[str, float]]:
    """One analysis pass: every registry experiment on each dataset, run
    and rendered, then a campaign summary of each trace container.

    Returns the rendered artifacts and the seconds spent per experiment
    (``trace_summary`` for the trace scans).
    """
    rendered = []
    seconds = {experiment.experiment_id: 0.0 for experiment in EXPERIMENTS}
    seconds["trace_summary"] = 0.0
    for dataset in datasets:
        for experiment in EXPERIMENTS:
            started = clock()
            text = experiment.run(dataset).render()
            seconds[experiment.experiment_id] += clock() - started
            rendered.append(f"== {experiment.experiment_id}\n{text}")
    for path in traces:
        started = clock()
        rendered.append(render_campaign_summary(Trace.scan(path)))
        seconds["trace_summary"] += clock() - started
    return rendered, seconds


def repeat(step: Callable[[], float], seconds: float) -> list[float]:
    """Timings of ``step``, repeated at least :data:`MIN_PASSES` times and
    until they sum to ``seconds`` (at most :data:`MAX_PASSES` times)."""
    times = [step() for _ in range(MIN_PASSES)]
    while sum(times) < seconds and len(times) < MAX_PASSES:
        times.append(step())
    return times


def add_analysis(timings: Timings, seconds: dict[str, float]) -> None:
    for key, value in seconds.items():
        timings[f"analysis.{key}"].append(value)


def analysis_passes(
    timings: Timings,
    datasets: list[MeasurementDataset],
    traces: list[Path],
    rendered: list[str],
) -> None:
    """Repeat the job's analysis pass, which rendered ``rendered``, adding
    each experiment's time to ``timings``.  Every repeat must render the
    same artifacts."""

    def again() -> float:
        repeat_rendered, seconds = analyse(datasets, traces)
        if repeat_rendered != rendered:
            raise AssertionError("a repeated analysis pass rendered differently")
        add_analysis(timings, seconds)
        return sum(seconds.values())

    repeat(again, ANALYSIS_SECONDS)


def fastest(timings: Timings, prefix: str) -> dict[str, float]:
    """Fastest sample of each part named ``<prefix><name>``, by name."""
    return {
        name[len(prefix):]: min(samples)
        for name, samples in timings.items() if name.startswith(prefix)
    }


def check_round_trip(dataset: MeasurementDataset, loaded: MeasurementDataset) -> None:
    for name in ("block_messages", "block_imports", "tx_receptions", "connections"):
        if len(getattr(dataset, name)) != len(getattr(loaded, name)):
            raise AssertionError(f"dataset round trip changed the {name} count")
    if loaded.chain.canonical_hashes != dataset.chain.canonical_hashes:
        raise AssertionError("dataset round trip changed the canonical chain")


# --------------------------------------------------------------------- #
# Jobs
# --------------------------------------------------------------------- #


def campaign_job(
    name: str,
    config: CampaignConfig,
    predicted_wins: list[float],
    work: Path,
    probe: Probe,
) -> dict[str, Any]:
    """One campaign: run, save, load, analyse, digest."""
    started = clock()
    dataset = Campaign(config).run()
    ran = clock()
    path = work / f"{name}.jsonl"
    dataset.save(path)
    saved = clock()
    loaded = MeasurementDataset.load(path)
    timings: Timings = defaultdict(list)
    timings["io.save"].append(saved - ran)
    timings["io.load"].append(clock() - saved)
    check_round_trip(dataset, loaded)
    rendered, seconds = analyse([loaded], [])
    add_analysis(timings, seconds)
    counters = probe.campaigns[0]
    if counters["wins"] != predicted_wins:
        raise AssertionError(
            f"lottery drew {len(counters['wins'])} wins, the screened "
            f"schedule predicted {len(predicted_wins)}"
        )
    digests = {
        "chain": sha("\n".join(loaded.chain.canonical_hashes).encode()),
        "dataset": file_sha(path),
        "artifacts": sha("\n".join(rendered).encode()),
    }
    job_s = clock() - started
    peak_rss_mb = rss_mb()
    assert probe.first_event is not None
    loop_s = sum(probe.slices)
    timings["setup"].append(probe.first_event - started)
    # The rest of Campaign.run: the dataset's assembly after the loop.
    timings["collect"].append(ran - probe.first_event - loop_s)
    rest = job_s - loop_s - sum(samples[0] for samples in timings.values())
    timings["rest"].append(rest)

    analysis_passes(timings, [loaded], [], rendered)

    def io_pass() -> float:
        save_started = clock()
        dataset.save(path)
        load_started = clock()
        MeasurementDataset.load(path)
        timings["io.save"].append(load_started - save_started)
        timings["io.load"].append(clock() - load_started)
        return clock() - save_started

    repeat(io_pass, IO_SECONDS)
    return {
        "job_s": job_s,
        "setup_s": timings["setup"][0],
        "timings": timings,
        "job_parts": sorted(timings),
        "slices": probe.slices,
        "sim_s": counters["sim_s"],
        "loop_s": loop_s,
        "peak_rss_mb": peak_rss_mb,
        "events": counters["events"],
        "messages": counters["messages"],
        "ops": 1,
        "failed_ops": 0,
        "digests": digests,
        "counters": {
            **{k: v for k, v in counters.items() if k != "wins"},
            "dataset_bytes": path.stat().st_size,
            "setup_rss_mb": probe.setup_rss_mb,
        },
        "io": {**fastest(timings, "io."), "finalize": 0.0},
    }


def sweep_job(
    seeds: list[int], work: Path, probe: Probe, ledger: Optional[Ledger]
) -> dict[str, Any]:
    """A traced sweep of ``small`` campaigns seeded ``seeds`` on a warm pool."""
    cache = work / "cache"
    shutil.rmtree(cache, ignore_errors=True)
    started = clock()
    jobs = [CampaignJob(preset_name="small", seed=s, trace=True) for s in seeds]
    pool = CampaignPool(jobs=SWEEP_WORKERS, cache_dir=cache, use_disk=True)
    pool_started = clock()
    result = pool.run(jobs)
    pool_ended = clock()
    sweep_wall = pool_ended - pool_started
    done = [o for o in result.outcomes if o.dataset is not None]
    datasets = [o.dataset for o in done if o.dataset is not None]
    traces = [o.trace_path for o in done if o.trace_path is not None]
    paths = [o.path for o in done if o.path is not None]
    rendered, seconds = analyse(datasets, traces)
    timings: Timings = defaultdict(list)
    add_analysis(timings, seconds)
    digests = {
        "chain": sha("\n\n".join(
            "\n".join(d.chain.canonical_hashes) for d in datasets
        ).encode()),
        "dataset": sha(" ".join(file_sha(path) for path in paths).encode()),
        "artifacts": sha("\n".join(rendered).encode()),
        "trace": sha(" ".join(file_sha(path) for path in traces).encode()),
    }
    job_s = clock() - started
    parent_rss_mb = rss_mb()
    rest = job_s - (pool_ended - started) - sum(seconds.values())

    analysis_passes(timings, datasets, traces, rendered)
    reports = [
        json.loads((cache / (o.job.meta_filename() + ".perfbench.json")).read_text(
            encoding="utf-8"
        ))
        for o in done
    ]
    if ledger is not None:
        for report in reports:
            ledger.merge(report["ledger"])
    campaigns = [report["probe"]["campaigns"][-1] for report in reports]
    _, wins = sweep_wins()
    if any(len(campaign["wins"]) != wins for campaign in campaigns):
        raise AssertionError(f"a sweep campaign did not draw the screened {wins} wins")
    first_event = min(r["probe"]["first_event"] for r in reports if r["probe"]["first_event"])
    worker_rss = max(report["rss_mb"] for report in reports)
    metrics = result.metrics
    io = {
        key: sum(r["probe"]["io"][key] for r in reports) for key in ("save", "finalize")
    }
    io["load"] = probe.io["load"]
    timings["pool"].append(pool_started - started)
    timings["setup"].append(first_event - pool_started)
    timings["run"].append(pool_ended - first_event)
    timings["rest"].append(rest)
    job_parts = sorted(timings)
    # Writes and finalize per campaign (the same work in every sweep of a
    # seed) and read-backs in the parent; all of them inside ``run``.
    for o, r in zip(done, reports):
        timings[f"io.seed {o.job.seed}"].append(
            r["probe"]["io"]["save"] + r["probe"]["io"]["finalize"]
        )
    timings["io.load"].append(io["load"])

    def total(key: str) -> Any:
        return sum(campaign[key] for campaign in campaigns)

    return {
        "job_s": job_s,
        "setup_s": first_event - pool_started,
        "timings": timings,
        "job_parts": job_parts,
        "slices": [],
        "sim_s": total("sim_s"),
        "loop_s": sweep_wall,
        "peak_rss_mb": max(parent_rss_mb, worker_rss),
        "events": total("events"),
        "messages": total("messages"),
        "ops": len(jobs),
        "failed_ops": metrics.jobs_failed,
        "digests": digests,
        "counters": {
            **{key: total(key) for key in ("events", "loop_s", "bytes", "links", "txs", "records")},
            "dataset_bytes": sum(path.stat().st_size for path in paths),
            "trace_bytes": sum(path.stat().st_size for path in traces),
            "trace_records": sum(Trace.scan(path).record_count() for path in traces),
            "setup_rss_mb": max(r["probe"]["setup_rss_mb"] for r in reports),
            "parent_rss_mb": parent_rss_mb,
            "worker_rss_mb": worker_rss,
            "jobs": metrics.jobs_total,
            "jobs_failed": metrics.jobs_failed,
            "retries": metrics.retries,
            "worker_busy_s": sum(report["busy_s"] for report in reports),
            "sweep_wall_s": sweep_wall,
            "workers": SWEEP_WORKERS,
        },
        "io": io,
    }


def install_worker_report(probe: Probe, ledger: Optional[Ledger]) -> None:
    """Make every fleet job write its probe and ledger next to its meta.

    Workers fork with the hooks already installed; each job starts from
    zeroed aggregates and flushes them to disk before the worker
    acknowledges the job, so the parent reads them once ``run`` returns.
    """
    run_one = fleet._run_one_campaign

    def run_one_campaign(job: CampaignJob, paths: tuple[str, str, str]) -> None:
        probe.reset()
        if ledger is not None:
            ledger.reset()
        started = clock()
        try:
            run_one(job, paths)
        finally:
            report = {
                "busy_s": clock() - started,
                "rss_mb": rss_mb(),
                "probe": probe.to_json(),
                "ledger": ledger.to_json() if ledger is not None else None,
            }
            Path(paths[1] + ".perfbench.json").write_text(
                json.dumps(report), encoding="utf-8"
            )

    fleet._run_one_campaign = run_one_campaign  # type: ignore[assignment]


# --------------------------------------------------------------------- #
# Per-layer metrics (traced runs)
# --------------------------------------------------------------------- #


def layer_metrics(ledger: Ledger, out: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced job, named as in BENCHMARK.json."""
    s = ledger.spans
    c = out["counters"]

    def self_of(*names: str) -> float:
        return sum(s[name].self_s for name in names)

    waves = s["p2p.wave"]
    deliver = s["node.deliver"]
    geo = s["geo.delays"]
    loop_s = s["sim.run"].total
    metrics = {
        "sim.events": float(out["events"]),
        "sim.events_per_s": out["events"] / c["loop_s"],
        "sim.push_calls": float(s["sim.push"].count),
        "sim.push_entries": float(s["sim.push"].items),
        "sim.push_s": s["sim.push"].total,
        "sim.queue_depth_max": float(s["sim.push"].peak),
        "sim.loop_self_s": self_of("sim.run"),
        "geo.delays_calls": float(geo.count),
        "geo.recipients": float(geo.items),
        "geo.self_s": geo.self_s,
        "geo.call_us_p50": geo.percentile_us(0.50),
        "geo.call_us_p99": geo.percentile_us(0.99),
        "p2p.waves": float(waves.batches),
        "p2p.scalar_sends": float(s["p2p.send"].count),
        "p2p.messages": float(s["p2p.send"].count + waves.items),
        "p2p.bytes": float(c["bytes"]),
        "p2p.recipients_per_wave": waves.items / waves.batches if waves.batches else 0.0,
        "p2p.self_s": self_of("p2p.send", "p2p.wave"),
        "p2p.sample_targets_s": s["p2p.sample_targets"].total,
        "p2p.links": float(c["links"]),
        "p2p.dial_s": s["p2p.dial"].total,
        "node.deliveries": float(deliver.count),
        "node.self_s": self_of("node.deliver", "node.entry"),
        "node.delivery_us_p50": deliver.percentile_us(0.50),
        "node.delivery_us_p99": deliver.percentile_us(0.99),
        "node.imports_per_block_msg": (
            s["chain.tree"].count / deliver.items if deliver.items else 0.0
        ),
        "chain.imports": float(s["chain.tree"].count),
        "chain.tree_s": s["chain.tree"].total,
        "chain.validate_s": s["chain.validate"].total,
        "chain.mempool_calls": float(s["chain.mempool"].count),
        "chain.mempool_s": s["chain.mempool"].total,
        "workload.txs": float(c["txs"]),
        "setup.build_s": s["setup.build"].total,
        "setup.deploy_s": s["setup.deploy"].total - s["setup.build"].total,
        "setup.rss_mb": c["setup_rss_mb"],
        "measurement.records": float(c["records"]),
        "measurement.collect_s": s["measurement.collect"].total,
        "measurement.dataset_bytes": float(c["dataset_bytes"]),
        "measurement.save_s": out["io"]["save"],
        "measurement.load_s": out["io"]["load"],
        "obs.emit_calls": float(s["obs.emit"].count),
        "obs.emit_s": s["obs.emit"].total,
        "obs.records": float(c.get("trace_records", 0)),
        "obs.trace_bytes": float(c.get("trace_bytes", 0)),
        "obs.finalize_s": out["io"]["finalize"],
        "analysis.trace_summary_s": min(out["timings"]["analysis.trace_summary"]),
        "fleet.jobs": float(c.get("jobs", 0)),
        "fleet.jobs_failed": float(c.get("jobs_failed", 0)),
        "fleet.retries": float(c.get("retries", 0)),
        "fleet.worker_busy_s": c.get("worker_busy_s", 0.0),
        "fleet.utilisation": (
            c["worker_busy_s"] / (c["sweep_wall_s"] * c["workers"])
            if "workers" in c else 0.0
        ),
        "fleet.spawn_s": s["fleet.spawn"].total,
        "fleet.harvest_s": s["fleet.harvest"].total,
        "fleet.parent_rss_mb": c.get("parent_rss_mb", 0.0),
        "fleet.worker_rss_mb": c.get("worker_rss_mb", 0.0),
    }
    for experiment in EXPERIMENTS:
        metrics[f"analysis.{experiment.experiment_id}_s"] = min(
            out["timings"][f"analysis.{experiment.experiment_id}"]
        )
    # Share of the event loop per layer; the loop's own self time is the
    # unattributed rest.
    for layer in SHARE_LAYERS:
        metrics[f"share.{layer}"] = ledger.loop_self[layer] / loop_s
    metrics["share.loop_self"] = self_of("sim.run") / loop_s
    return metrics


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("standard", "sweep-traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)

    # Inputs first: screening runs its own simulators, which the hooks
    # installed below must not see.
    config = None
    if args.workload == "sweep-traced":
        seeds = sweep_seeds(args.seed)
    else:
        config = standard_config(args.seed)
        predicted = lottery_wins(
            config.scenario.seed, config.scenario.warmup + config.duration
        )

    ledger = Ledger() if args.trace else None
    if ledger is not None:
        ledger.install()
    probe = Probe()
    probe.install()
    if config is None:
        install_worker_report(probe, ledger)
        out = sweep_job(seeds, args.work, probe, ledger)
    else:
        out = campaign_job(args.workload, config, predicted, args.work, probe)
    if ledger is not None:
        out["layers"] = layer_metrics(ledger, out)
    out["numpy"] = numpy.__version__
    print(json.dumps(out))


if __name__ == "__main__":
    main()
