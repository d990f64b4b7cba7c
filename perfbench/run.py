"""Benchmark entry point: run one workload for a fixed time and report.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload standard --seed 1 --seconds 60 --trace 0

Each job (one campaign, or one sweep) runs in a fresh interpreter started
from ``perfbench/job.py``: a closed loop with one job in flight, started
again while another job fits into ``--seconds``.  Plain runs
(``--trace 0``) print the end-to-end metrics of ``BENCHMARK.json``.  All
jobs of a run do the same work, so each metric is built from the fastest
time each part of that work took in any job: co-tenants on a shared host
only ever slow a part down (see :func:`plain_metrics`).
Traced runs (``--trace 1``) run one plain job and then jobs with the
per-layer ledger installed, and print the per-layer metrics, the
layer-share table of the event loop and ``trace_overhead``.

Every job's outputs are checked: the canonical chain, the dataset bytes
and the rendered registry artifacts (plus the trace containers of the
sweep) are digested and must equal the digests recorded in
``digests.json`` for the default seed, and for every seed must agree
between all jobs of the run, plain and traced.  The last line of
standard output is the JSON result; a provenance line precedes it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
WORKLOADS = ("standard", "sweep-traced")
#: Wall-clock budget of one run; every job is killed past it.
RUN_LIMIT_S = 170.0

#: Per-layer metrics that must read non-zero on a workload: a zero means
#: a wrapper missed its calls (for example a bound method captured
#: before the wrappers were installed).
_ALWAYS = (
    "sim.events", "sim.push_calls", "sim.push_entries", "sim.push_s",
    "sim.queue_depth_max", "sim.loop_self_s", "geo.delays_calls",
    "geo.recipients", "geo.self_s", "p2p.waves", "p2p.scalar_sends",
    "p2p.messages", "p2p.self_s", "p2p.sample_targets_s", "p2p.links",
    "p2p.dial_s", "node.deliveries", "node.self_s",
    "node.imports_per_block_msg", "chain.imports", "chain.tree_s",
    "chain.validate_s", "chain.mempool_calls", "setup.build_s",
    "measurement.records", "measurement.collect_s",
    "measurement.dataset_bytes", "measurement.save_s", "measurement.load_s",
    "analysis.fig1_s", "analysis.table3_s",
)
_TX = ("chain.mempool_s", "workload.txs", "analysis.fig4_s")
REQUIRED_NONZERO = {
    "standard": _ALWAYS + _TX,
    "sweep-traced": _ALWAYS + _TX + (
        "obs.emit_calls", "obs.emit_s", "obs.records", "obs.trace_bytes",
        "obs.finalize_s", "analysis.trace_summary_s", "fleet.jobs",
        "fleet.worker_busy_s", "fleet.utilisation", "fleet.spawn_s",
        "fleet.harvest_s",
    ),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def calibrate() -> float:
    """Best of five timings of a fixed pure-Python loop (seconds): the
    host-speed context recorded next to every result."""
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


def provenance(
    args: argparse.Namespace, numpy_version: str, calibration_s: float
) -> dict[str, Any]:
    revision: Optional[str] = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(path.relative_to(ROOT).as_posix().encode())
        tree.update(path.read_bytes())
    return {
        "git_revision": revision,
        "src_sha256": tree.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "calibration_s": calibration_s,
    }


class Runner:
    """Starts job processes and keeps every one inside the run's budget."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["TMPDIR"] = str(work / "tmp")
        self.env["PYTHONHASHSEED"] = "0"
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[name] = "1"
        (work / "tmp").mkdir(parents=True)
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def job(self, trace: int) -> dict[str, Any]:
        """Run one job; a crash or timeout comes back as ``{"error": ...}``."""
        self.count += 1
        directory = self.work / f"job-{self.count}"
        directory.mkdir()
        command = [
            sys.executable, str(HERE / "job.py"), "--workload", self.args.workload,
            "--seed", str(self.args.seed), "--trace", str(trace),
            "--work", str(directory),
        ]
        started = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=directory, env=self.env, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, _ = process.communicate(timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            # The job's own children (fleet workers) share its process group;
            # kill them all and give them a moment to be gone.
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                try:
                    os.killpg(process.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            return {"error": "job exceeded the run's time budget", "wall_s": time.perf_counter() - started}
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        wall = time.perf_counter() - started
        if process.returncode != 0:
            return {"error": f"job exited with code {process.returncode}", "wall_s": wall}
        try:
            out = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return {"error": "job printed no result", "wall_s": wall}
        out["wall_s"] = wall
        return out

    def jobs(self, trace: int, seconds: float, minimum: int) -> list[dict[str, Any]]:
        """Closed loop: run at least ``minimum`` jobs, then start another
        while a job as long as the last one still fits into ``seconds``."""
        outs = [self.job(trace) for _ in range(minimum)]
        while self.elapsed() + outs[-1]["wall_s"] < seconds:
            outs.append(self.job(trace))
        return outs


def check(
    workload: str, seed: int, outs: list[dict[str, Any]], record: bool
) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations; list what went wrong."""
    problems = []
    attempted = failed = 0
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    reference = recorded.get(workload) if seed == 1 and not record else None
    slices: Optional[int] = None
    for out in outs:
        if "error" in out:  # a crashed job counts as one failed operation
            attempted += 1
            failed += 1
            problems.append(out["error"])
            continue
        attempted += out["ops"]
        failed += out["failed_ops"]
        if reference is None:
            reference = out["digests"]
        if out["digests"] != reference:
            failed += out["ops"] - out["failed_ops"]
            problems.append(f"digest mismatch: {out['digests']} != {reference}")
        if slices is None:
            slices = len(out["slices"])
        if len(out["slices"]) != slices:
            failed += out["ops"] - out["failed_ops"]
            problems.append(
                f"a job ran {len(out['slices'])} event-loop slices, the first job {slices}"
            )
    if record and reference is not None and not problems:
        recorded[workload] = reference
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return attempted, failed, problems


def job_metrics(out: dict[str, Any]) -> dict[str, float]:
    """End-to-end metrics of one plain job on its own."""
    first = {name: samples[0] for name, samples in out["timings"].items()}
    return {
        "job_s": out["job_s"],
        "setup_s": out["setup_s"],
        "sim_seconds_per_s": out["sim_s"] / out["loop_s"],
        "io_s": sum(v for k, v in first.items() if k.startswith("io.")),
        "analysis_s": sum(v for k, v in first.items() if k.startswith("analysis.")),
        "peak_rss_mb": out["peak_rss_mb"],
    }


def plain_metrics(outs: list[dict[str, Any]]) -> dict[str, float]:
    """End-to-end metrics of a plain run, from the fastest time each part
    of the job took in any of the run's jobs.

    Every job of a run does the same work, split into named parts
    (``job.py`` lists them in ``timings``): set-up, each experiment of the
    analysis, each dataset write and read-back, the rest.  A campaign's
    event loop is split further into slices of ``job.SLICE_EVENTS``
    events.  Analysis passes and dataset writes are repeated in every
    job, so those parts have several samples.  A shared host slows a
    part down now and then but never speeds one up, so the sum of each
    part's fastest sample is steady where a median of whole jobs follows
    the host.  ``job_s`` sums the parts a job is made of (the sweep's
    dataset writes happen inside its ``run`` part); ``sim_seconds_per_s``
    divides by the loop's time, which for the sweep is its wall time from
    the ``CampaignPool.run`` call to its return.
    """
    best = {
        name: min(min(out["timings"][name]) for out in outs if name in out["timings"])
        for name in outs[0]["timings"]
    }
    job_s = sum(best[name] for name in outs[0]["job_parts"])
    if outs[0]["slices"]:
        loop_s = sum(map(min, zip(*(out["slices"] for out in outs))))
        job_s += loop_s
    else:
        loop_s = best["setup"] + best["run"]
    return {
        "job_s": job_s,
        "setup_s": best["setup"],
        "sim_seconds_per_s": outs[0]["sim_s"] / loop_s,
        "io_s": sum(v for k, v in best.items() if k.startswith("io.")),
        "analysis_s": sum(v for k, v in best.items() if k.startswith("analysis.")),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in outs),
    }


def per_layer(
    workload: str, plain: dict[str, Any], traced: list[dict[str, Any]], problems: list[str]
) -> tuple[dict[str, float], int]:
    """Medians of the traced jobs' layer metrics, plus the cross-checks.

    Returns the metrics and the operations the checks failed: a traced
    job that does not reproduce the plain job's counts, or every traced
    job when a layer reads zero where it must not.
    """
    metrics = {
        name: statistics.median(out["layers"][name] for out in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace_overhead"] = statistics.median(out["job_s"] for out in traced) / plain["job_s"]
    failed = 0
    for out in traced:
        if out["events"] != plain["events"] or out["layers"]["p2p.messages"] != plain["messages"]:
            failed += out["ops"]
            problems.append(
                f"traced job fired {out['events']} events and its wrappers counted "
                f"{out['layers']['p2p.messages']:.0f} messages; the plain job fired "
                f"{plain['events']} events and its network routed {plain['messages']}"
            )
    zeros = [name for name in REQUIRED_NONZERO[workload] if not metrics[name]]
    if zeros:
        failed = sum(out["ops"] for out in traced)
        problems.append(f"coverage: {', '.join(zeros)} read zero on {workload}")
    return metrics, failed


def report(
    workload: str, metrics: dict[str, float], units: dict[str, str],
    outs: list[dict[str, Any]], problems: list[str], per_job: list[dict[str, float]],
) -> None:
    """Human-readable summary; plain runs also list every job's value."""
    print(f"perfbench {workload}: {len(outs)} job(s)")
    done = [out for out in outs if "error" not in out]
    if done:
        print(f"  events {done[0]['events']}, messages {done[0]['messages']} per job")
    for name, value in metrics.items():
        if not name.startswith("share."):
            values = " ".join(f"{job[name]:.4g}" for job in per_job)
            print(f"  {name:<32} {value:>14.6g} {units[name]:<6} {values}".rstrip())
    shares = {k[len("share."):]: v for k, v in metrics.items() if k.startswith("share.")}
    if shares:
        print("  event-loop self time by layer:")
        for layer, share in sorted(shares.items(), key=lambda item: -item[1]):
            print(f"    {layer:<14} {100 * share:6.1f} %")
    for problem in problems:
        print(f"  FAILED: {problem}", file=sys.stderr)


def main() -> None:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="record this run's digests as the default seed's expected ones",
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no repro sources under {ROOT / 'src'}; run from a full checkout")
    if args.record and args.seed != 1:
        fail("digests are recorded for the default seed 1 only")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(args, work)
        if args.trace:
            outs = [runner.job(0)] + runner.jobs(1, args.seconds, minimum=1)
        else:
            # Two jobs at least, so every part of a job has two samples.
            outs = runner.jobs(0, args.seconds, minimum=2)
        attempted, failed, problems = check(args.workload, args.seed, outs, args.record)
        good = [out for out in outs if "error" not in out]
        if args.trace:
            traced = good[1:] if "error" not in outs[0] else []
            if not traced:
                fail("the plain job or every traced job failed")
            per_job = []
            metrics, layer_failed = per_layer(args.workload, outs[0], traced, problems)
            failed += layer_failed
        else:
            if not good:
                fail("no job finished")
            per_job = [job_metrics(out) for out in good]
            metrics = plain_metrics(good)
        if set(units) != set(metrics):
            fail(
                "BENCHMARK.json and the measured metrics differ: "
                f"{sorted(set(units) ^ set(metrics))}"
            )
        report(args.workload, metrics, units, outs, problems, per_job)
        print(json.dumps({"context": provenance(args, good[0]["numpy"], calibrate())}))
        print(json.dumps({
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    main()
