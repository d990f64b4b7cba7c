"""Measurement campaign orchestration.

A :class:`Campaign` reproduces the paper's §II methodology end-to-end:

1. build a simulated Ethereum world (:mod:`repro.workload.scenarios`);
2. deploy instrumented vantage nodes in the configured regions (the paper
   used NA, EA, WE and CE, each with unlimited peers), plus optionally the
   subsidiary default-peer (25) vantage used for Table II;
3. run a warm-up so the peer mesh and mempools settle, then a measurement
   window;
4. collect every vantage log plus a chain snapshot from the reference
   vantage into a :class:`~repro.measurement.dataset.MeasurementDataset`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from repro.errors import ConfigurationError, TraceError
from repro.faults.plan import FaultPlan
from repro.geo.clock import NtpModelConfig
from repro.geo.regions import VANTAGE_REGIONS, Region
from repro.measurement.dataset import ChainSnapshot, MeasurementDataset
from repro.measurement.instrumented import InstrumentedNode
from repro.measurement.records import ChainBlockRecord
from repro.node.config import measurement_node_config
from repro.obs.binio import TraceBinWriter
from repro.obs.export import TRACE_SCHEMA_VERSION, Trace, require_bin_path
from repro.obs.recorder import TraceRecorder
from repro.workload.scenarios import Scenario, ScenarioConfig, build_scenario

#: Duration (simulated seconds) equivalent to the paper's one-month window,
#: scaled to the default scenario: 1,000 blocks at 13.3 s.
DEFAULT_DURATION = 13_300.0


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of a measurement campaign.

    Attributes:
        scenario: The simulated-world configuration.
        duration: Measurement window length in simulated seconds
            (after warm-up).
        vantage_regions: Regions to deploy unlimited-peer vantages in;
            default matches the paper (NA, EA, WE, CE).
        deploy_default_peer_vantage: Also deploy the subsidiary 25-peer
            vantage (paper: WE, May 2–9 2019) used for Table II.
        reference_vantage: Vantage whose final chain is authoritative for
            fork/empty-block/sequence analyses; defaults to the WE node.
        ntp: NTP clock model; ``None`` uses the defaults from §II.
        perfect_clocks: Disable clock error (ground-truth runs in tests).
        faults: Campaign-level fault plan (see :mod:`repro.faults`).
            When set, it overrides ``scenario.faults`` at deploy time —
            the convenient top-level knob ``repro run --faults`` and the
            sweep ablation grids use.
    """

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    duration: float = DEFAULT_DURATION
    vantage_regions: tuple[Region, ...] = VANTAGE_REGIONS
    deploy_default_peer_vantage: bool = True
    reference_vantage: str = ""
    ntp: Optional[NtpModelConfig] = None
    perfect_clocks: bool = False
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if not self.vantage_regions:
            raise ConfigurationError("at least one vantage region is required")


def vantage_name(region: Region) -> str:
    """Vantage naming convention: the region code (paper's Table I rows)."""
    return region.value


#: Name of the subsidiary default-peer vantage.
DEFAULT_PEER_VANTAGE_NAME = "WE-default"


class Campaign:
    """A runnable measurement campaign.

    Args:
        config: Campaign parameters.

    Attributes:
        scenario: The underlying simulated world (built lazily by
            :meth:`run` or :meth:`deploy`).
        vantages: Deployed instrumented nodes, by name.
    """

    def __init__(self, config: CampaignConfig | None = None) -> None:
        self.config = config or CampaignConfig()
        self.scenario: Optional[Scenario] = None
        self.vantages: dict[str, InstrumentedNode] = {}
        self._deployed = False
        self._trace_writer: Optional[TraceBinWriter] = None

    # ------------------------------------------------------------------ #
    # Deployment
    # ------------------------------------------------------------------ #

    def deploy(self) -> None:
        """Build the world and attach the vantage nodes (idempotent)."""
        if self._deployed:
            return
        self._deployed = True
        scenario_config = self.config.scenario
        if self.config.faults is not None:
            scenario_config = replace(scenario_config, faults=self.config.faults)
        self.scenario = build_scenario(scenario_config)
        network = self.scenario.network
        for region in self.config.vantage_regions:
            name = vantage_name(region)
            if name in self.vantages:
                raise ConfigurationError(
                    f"duplicate vantage region {region!r}; deploy at most one "
                    "vantage per region"
                )
            self.vantages[name] = InstrumentedNode(
                network,
                region,
                name=name,
                config=measurement_node_config(unlimited=True),
                ntp=self.config.ntp,
                perfect_clock=self.config.perfect_clocks,
            )
        if self.config.deploy_default_peer_vantage:
            self.vantages[DEFAULT_PEER_VANTAGE_NAME] = InstrumentedNode(
                network,
                Region.WESTERN_EUROPE,
                name=DEFAULT_PEER_VANTAGE_NAME,
                config=measurement_node_config(unlimited=False),
                ntp=self.config.ntp,
                perfect_clock=self.config.perfect_clocks,
            )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    @property
    def metrics(self):
        """Simulator performance metrics (``None`` before :meth:`deploy`).

        Per-event-type breakdowns require the scenario to have been built
        with ``ScenarioConfig(profile=True)``.
        """
        if self.scenario is None:
            return None
        return self.scenario.simulator.metrics

    def run(self) -> MeasurementDataset:
        """Run warm-up + measurement window; return the collected data set."""
        self.deploy()
        assert self.scenario is not None
        self.scenario.start()
        for vantage in self.vantages.values():
            vantage.start()
        self.scenario.run_warmup()
        measurement_start = self.scenario.simulator.now
        self.scenario.run_for(self.config.duration)
        return self._collect(measurement_start)

    # ------------------------------------------------------------------ #
    # Tracing
    # ------------------------------------------------------------------ #

    def build_trace(self) -> Trace:
        """Assemble the run's ground-truth :class:`Trace`.

        Requires the campaign's scenario to have been built with
        ``ScenarioConfig(trace=True)``; call after :meth:`run` so the
        header can carry the final canonical chain.

        Raises:
            TraceError: when the scenario was not built or tracing was
                never enabled.
        """
        if self._traced_recorder().columns.sink is not None:
            raise TraceError(
                "trace blocks were streamed to disk; analyze the "
                "container that save_trace() finishes"
            )
        return self._assemble_trace()

    def stream_trace_to(self, path: str | Path) -> None:
        """Stream trace blocks to a ``.trace.bin`` at ``path`` as they seal.

        Call between :meth:`deploy` and :meth:`run`: every sealed column
        block is written straight to disk instead of retained, so an
        arbitrarily long traced run holds at most one staging buffer per
        record kind in memory.  :meth:`save_trace` (with the same path)
        finalizes the container.
        """
        path = require_bin_path(path)
        self.deploy()
        recorder = self._traced_recorder()
        if self._trace_writer is not None:
            raise TraceError("a trace stream is already attached")
        writer = TraceBinWriter(path, TRACE_SCHEMA_VERSION)
        # Deployment already emitted records (node registrations); hand
        # any blocks sealed so far to the writer so nothing is lost.
        for store in recorder.columns.stores.values():
            for block in store.blocks:
                writer.write_block(block)
            store.blocks.clear()
        self._trace_writer = writer
        recorder.columns.sink = writer

    def abort_trace_stream(self) -> None:
        """Drop an attached trace stream and its partial temp file."""
        writer = self._trace_writer
        if writer is None:
            return
        self._trace_writer = None
        if self.scenario is not None:
            self.scenario.simulator.trace.columns.sink = None
        writer.abort()

    def save_trace(self, path: str | Path, preset: str = "") -> Path:
        """Write the run's trace as a ``.trace.bin`` container at ``path``
        (atomic).  See :meth:`build_trace` for preconditions.

        With a stream attached (:meth:`stream_trace_to`), the sealed
        blocks are already on disk: this writes the staging tails and
        finalizes the container through the same
        :meth:`~repro.obs.export.Trace.write_to` as an in-memory save —
        ``path`` must then match the streaming path.  The finished
        stream stays attached as the sink, so the streamed trace cannot
        be built or saved again from memory.

        Raises:
            TraceError: when ``path`` does not end in ``.bin`` or does
                not match an attached stream, or the stream was already
                finished.
        """
        path = require_bin_path(path)
        writer = self._trace_writer
        if writer is None:
            trace = self.build_trace()
            writer = TraceBinWriter(path, TRACE_SCHEMA_VERSION)
        elif path == writer.path:
            trace = self._assemble_trace()
        else:
            raise TraceError(
                f"trace is streaming to {writer.path}; cannot save to {path}"
            )
        trace.preset = preset
        self._trace_writer = None
        return trace.write_to(writer)

    def _assemble_trace(self) -> Trace:
        recorder = self._traced_recorder()
        recorder.sync_metrics()
        canonical_hashes, head_hash = self._chain_context()
        return Trace(
            seed=self.config.scenario.seed,
            canonical_hashes=canonical_hashes,
            head_hash=head_hash,
            columns=recorder.columns,
        )

    def _traced_recorder(self) -> TraceRecorder:
        if self.scenario is None:
            raise TraceError("campaign has not been deployed; nothing to trace")
        recorder = self.scenario.simulator.trace
        if not recorder.enabled:
            raise TraceError(
                "tracing was not enabled; build the campaign with "
                "ScenarioConfig(trace=True)"
            )
        return recorder

    def _chain_context(self) -> tuple[tuple[str, ...], str]:
        """Final canonical chain + head from the reference vantage."""
        assert self.scenario is not None
        reference = (
            self.vantages.get(self._reference_name()) if self.vantages else None
        )
        if reference is not None:
            tree = reference.tree
        else:  # vantage-less campaigns: fall back to the primary gateway
            tree = self.scenario.pools[0].primary.tree
        return (
            tuple(block.block_hash for block in tree.canonical_chain()),
            tree.head.block_hash,
        )

    def _reference_name(self) -> str:
        if self.config.reference_vantage:
            if self.config.reference_vantage not in self.vantages:
                raise ConfigurationError(
                    f"reference vantage {self.config.reference_vantage!r} "
                    "was not deployed"
                )
            return self.config.reference_vantage
        preferred = vantage_name(Region.WESTERN_EUROPE)
        if preferred in self.vantages:
            return preferred
        return next(iter(self.vantages))

    def _collect(self, measurement_start: float) -> MeasurementDataset:
        dataset = MeasurementDataset(
            vantage_regions={
                name: node.region.value for name, node in self.vantages.items()
            },
            default_peer_vantage=(
                DEFAULT_PEER_VANTAGE_NAME
                if self.config.deploy_default_peer_vantage
                else None
            ),
            reference_vantage=self._reference_name(),
            measurement_start=measurement_start,
        )
        for node in self.vantages.values():
            dataset.absorb_log(node.log)
        dataset.chain = self._snapshot_chain(self.vantages[dataset.reference_vantage])
        return dataset

    @staticmethod
    def _snapshot_chain(reference: InstrumentedNode) -> ChainSnapshot:
        snapshot = ChainSnapshot()
        for block in reference.tree.all_blocks():
            snapshot.blocks[block.block_hash] = ChainBlockRecord(
                block_hash=block.block_hash,
                height=block.height,
                parent_hash=block.parent_hash,
                miner=block.miner,
                difficulty=block.difficulty,
                timestamp=block.timestamp,
                tx_hashes=block.tx_hashes,
                uncle_hashes=block.uncle_hashes,
            )
        snapshot.canonical_hashes = tuple(
            block.block_hash for block in reference.tree.canonical_chain()
        )
        snapshot.head_hash = reference.tree.head.block_hash
        return snapshot


def run_campaign(config: CampaignConfig | None = None) -> MeasurementDataset:
    """Convenience one-shot: build, run and collect a campaign."""
    return Campaign(config).run()
