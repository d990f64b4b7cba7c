"""Scenario builder: assemble a whole simulated Ethereum world.

A :class:`Scenario` wires together the simulator, the latency-aware
network fabric, a geo-distributed population of regular nodes, mining
pools with their gateway nodes, the global mining lottery and the
transaction workload.  Measurement vantages are layered on top by
:mod:`repro.measurement.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.geo.latency import LatencyModel, LatencyModelConfig
from repro.geo.regions import (
    DEFAULT_NODE_DISTRIBUTION,
    Region,
    RegionProfile,
    normalized_shares,
)
from repro.node.config import NodeConfig
from repro.node.miner import MAINNET_INTER_BLOCK_TIME, MiningCoordinator
from repro.node.node import ProtocolNode
from repro.node.pool import MiningPool, PoolSpec
from repro.obs.snapshot import DEFAULT_SNAPSHOT_PERIOD, MetricsSnapshotter
from repro.p2p.degrees import DegreeDistribution
from repro.p2p.network import Network
from repro.sim.engine import Simulator
from repro.workload.mainnet import mainnet_pool_specs
from repro.workload.transactions import TransactionWorkload, WorkloadConfig

#: Gas limit used by the scaled-down default scenario.  Scaling the block
#: capacity (and the tx rate with it) keeps simulated event counts
#: tractable while preserving fullness ratios (paper: blocks ≈ 80 % full).
SCALED_GAS_LIMIT = 2_000_000

#: The PoW lottery covers *all* sealed blocks, but the paper's 13.3 s is
#: the observed *main-chain* rate.  Real difficulty retargeting absorbs
#: the ≈7 % of work lost to uncles; this factor plays that role so the
#: canonical chain grows at the configured interval.
STALE_RATE_COMPENSATION = 1.075


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build a simulated network.

    Attributes:
        seed: Root seed; two scenarios with equal configs and seeds run
            identically.
        n_nodes: Regular (non-gateway) node count.
        node_distribution: Geographic distribution of regular nodes.
        node_config: Configuration of regular nodes.
        degrees: Optional peer-degree distribution.  When set, each
            regular node's ``max_peers`` (and a proportional
            ``target_outbound``) is sampled from it — one draw per node
            from the ``scenario.degrees`` stream — giving the mesh the
            heavy-tailed degree shape measured on the real overlay.
            ``None`` (the default) keeps the homogeneous ``node_config``
            caps and builds byte-identically to earlier versions.
        pool_specs: Mining pools; defaults to the April-2019 calibration.
        inter_block_time: Network-wide mean block interval in seconds.
        gas_limit: Block gas limit (scaled down by default, see
            :data:`SCALED_GAS_LIMIT`).
        workload: Transaction workload parameters; ``None`` disables user
            transactions entirely (propagation-only studies).
        latency: Latency model parameters.
        warmup: Seconds of simulated time to run before measurements are
            considered valid (peer meshes settle, mempools fill).
        profile: Collect per-event-type counters/timings and the
            queue-depth high-water mark on the simulator (see
            :mod:`repro.sim.profile`); read back via
            ``scenario.simulator.metrics``.
        trace: Record ground-truth trace events (block lifecycle, gossip
            hops, tx first-seen) plus periodic metrics snapshots via the
            simulator's :class:`~repro.obs.recorder.TraceRecorder`.
            Tracing never perturbs the simulation — the canonical chain
            is byte-identical with it on or off.
        trace_snapshot_period: Simulated seconds between metrics
            snapshots while tracing.
        faults: Fault plan to inject (churn, link faults, partitions,
            crashes; see :mod:`repro.faults`).  ``None`` — or an
            all-zeros plan — builds no injector at all, so the scenario
            is byte-identical to a fault-free build of the same seed.
    """

    seed: int = 1
    n_nodes: int = 60
    node_distribution: tuple[RegionProfile, ...] = DEFAULT_NODE_DISTRIBUTION
    node_config: NodeConfig = field(default_factory=NodeConfig)
    degrees: Optional[DegreeDistribution] = None
    pool_specs: tuple[PoolSpec, ...] = field(default_factory=mainnet_pool_specs)
    inter_block_time: float = MAINNET_INTER_BLOCK_TIME
    gas_limit: int = SCALED_GAS_LIMIT
    workload: Optional[WorkloadConfig] = field(default_factory=WorkloadConfig)
    latency: LatencyModelConfig = field(default_factory=LatencyModelConfig)
    warmup: float = 30.0
    profile: bool = False
    trace: bool = False
    trace_snapshot_period: float = DEFAULT_SNAPSHOT_PERIOD
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError("a scenario needs at least two regular nodes")
        if self.inter_block_time <= 0:
            raise ConfigurationError("inter_block_time must be positive")
        if self.gas_limit <= 0:
            raise ConfigurationError("gas_limit must be positive")
        if self.warmup < 0:
            raise ConfigurationError("warmup must be non-negative")
        if not self.pool_specs:
            raise ConfigurationError("a scenario needs at least one pool")
        if self.trace_snapshot_period <= 0:
            raise ConfigurationError("trace_snapshot_period must be positive")


class Scenario:
    """A fully wired simulated Ethereum network.

    Build with :func:`build_scenario`; drive with :meth:`start` /
    :meth:`run_for`.

    Attributes:
        simulator: The event engine.
        network: The message fabric.
        regular_nodes: The plain node population.
        pools: Live mining pools (gateways included in the network).
        coordinator: The global lottery.
        workload: The transaction generator (``None`` when disabled).
    """

    def __init__(
        self,
        config: ScenarioConfig,
        simulator: Simulator,
        network: Network,
        regular_nodes: list[ProtocolNode],
        pools: list[MiningPool],
        coordinator: MiningCoordinator,
        workload: Optional[TransactionWorkload],
        snapshotter: Optional[MetricsSnapshotter] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config
        self.simulator = simulator
        self.network = network
        self.regular_nodes = regular_nodes
        self.pools = pools
        self.coordinator = coordinator
        self.workload = workload
        self.snapshotter = snapshotter
        self.faults = faults
        self._started = False

    @property
    def all_nodes(self) -> list[ProtocolNode]:
        """Regular nodes plus every pool gateway."""
        nodes = list(self.regular_nodes)
        for pool in self.pools:
            nodes.extend(pool.gateways)
        return nodes

    def pool_by_name(self, name: str) -> MiningPool:
        for pool in self.pools:
            if pool.name == name:
                return pool
        raise ConfigurationError(f"no pool named {name!r}")

    def start(self) -> None:
        """Dial the peer mesh and start mining + workload processes."""
        if self._started:
            return
        self._started = True
        for node in self.all_nodes:
            node.start()
        self.coordinator.start()
        if self.workload is not None:
            self.workload.start()
        if self.snapshotter is not None:
            self.snapshotter.start()
        if self.faults is not None:
            # After the mesh dials, so first churn tears down real links.
            self.faults.start()

    def run_for(self, duration: float) -> None:
        """Advance the simulation by ``duration`` simulated seconds."""
        if not self._started:
            self.start()
        self.simulator.run(until=self.simulator.now + duration)

    def run_warmup(self) -> None:
        """Run the configured warm-up period."""
        self.run_for(self.config.warmup)


def _sample_regions(
    distribution: tuple[RegionProfile, ...],
    count: int,
    rng: np.random.Generator,
) -> list[Region]:
    shares = normalized_shares(distribution)
    regions = list(shares)
    weights = np.array([shares[region] for region in regions], dtype=float)
    indices = rng.choice(len(regions), size=count, p=weights)
    return [regions[int(i)] for i in indices]


def build_scenario(config: ScenarioConfig | None = None) -> Scenario:
    """Construct (but do not start) a scenario from ``config``."""
    cfg = config or ScenarioConfig()
    simulator = Simulator(seed=cfg.seed, profile=cfg.profile)
    # Tracing is switched on before any component exists so constructors
    # (node registration, etc.) are captured from the very first event.
    if cfg.trace:
        simulator.enable_tracing()
    network = Network(
        simulator,
        latency=LatencyModel(simulator.rng.stream("network.latency"), cfg.latency),
    )
    placement_rng = simulator.rng.stream("scenario.placement")
    regions = _sample_regions(cfg.node_distribution, cfg.n_nodes, placement_rng)

    if cfg.degrees is None:
        node_configs = [cfg.node_config] * cfg.n_nodes
    else:
        # Heterogeneous caps: one draw per node, in node-index order, from
        # a stream touched only when a degree distribution is configured —
        # existing homogeneous presets build byte-identically.
        degree_rng = simulator.rng.stream("scenario.degrees")
        node_configs = [
            replace(
                cfg.node_config,
                max_peers=degree,
                target_outbound=max(2, degree // 2),
            )
            for degree in cfg.degrees.sample(cfg.n_nodes, degree_rng)
        ]

    regular_nodes = [
        ProtocolNode(network, region, config=node_configs[index], name=f"reg-{index:04d}")
        for index, region in enumerate(regions)
    ]

    pools: list[MiningPool] = []
    for spec in cfg.pool_specs:
        gateways = [
            ProtocolNode(
                network,
                region,
                config=cfg.node_config,
                name=f"gw-{spec.name}-{gw_index}",
            )
            for gw_index, region in enumerate(spec.gateway_regions)
        ]
        pools.append(
            MiningPool(
                spec,
                gateways,
                rng=simulator.rng.stream(f"pool.{spec.name}"),
                gas_limit=cfg.gas_limit,
            )
        )

    coordinator = MiningCoordinator(
        simulator,
        pools,
        target_interval=cfg.inter_block_time / STALE_RATE_COMPENSATION,
    )

    workload = None
    if cfg.workload is not None:
        workload = TransactionWorkload(simulator, regular_nodes, cfg.workload)

    snapshotter = None
    if cfg.trace:
        snapshotter = MetricsSnapshotter(simulator, period=cfg.trace_snapshot_period)

    # An all-zeros plan builds no injector: no faults.* streams, no
    # scheduled events, so the run is byte-identical to faults=None
    # (even a no-op event would advance the engine's tie-break counter).
    faults = None
    if cfg.faults is not None and not cfg.faults.is_zero():
        faults = FaultInjector(simulator, network, cfg.faults, regular_nodes)

    return Scenario(
        cfg,
        simulator,
        network,
        regular_nodes,
        pools,
        coordinator,
        workload,
        snapshotter=snapshotter,
        faults=faults,
    )
