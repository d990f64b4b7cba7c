"""Behavioural tests for the fault injector (churn, crash, partition,
link faults), on small two-pool scenarios."""

from __future__ import annotations

from repro.faults import (
    ChurnSpec,
    CrashSpec,
    FaultPlan,
    LinkFaultSpec,
    PartitionSpec,
)
from repro.geo.regions import Region
from repro.node.pool import PoolSpec
from repro.workload.scenarios import ScenarioConfig, build_scenario

_POOLS = (
    PoolSpec(name="A", hashpower=0.6, home_region=Region.EASTERN_ASIA),
    PoolSpec(name="B", hashpower=0.4, home_region=Region.NORTH_AMERICA),
)


def _scenario(plan, seed: int = 44, n_nodes: int = 10, **overrides):
    config = ScenarioConfig(
        seed=seed,
        n_nodes=n_nodes,
        pool_specs=_POOLS,
        workload=None,
        warmup=0.0,
        faults=plan,
        **overrides,
    )
    return build_scenario(config)


def test_zero_plan_builds_no_injector():
    assert _scenario(FaultPlan()).faults is None
    assert _scenario(None).faults is None


def test_nonzero_plan_builds_an_injector_with_hooks():
    scenario = _scenario(FaultPlan(links=LinkFaultSpec(drop_prob=0.1)))
    assert scenario.faults is not None
    assert scenario.network.faults is scenario.faults.link_hooks
    # A churn-only plan needs no link hooks at all.
    churn_only = _scenario(FaultPlan(churn=ChurnSpec(session_mean=100.0)))
    assert churn_only.faults is not None
    assert churn_only.faults.link_hooks is None
    assert churn_only.network.faults is None


def test_churn_cycles_nodes_and_rejoined_nodes_resync():
    plan = FaultPlan(churn=ChurnSpec(session_mean=80.0, downtime_mean=15.0))
    scenario = _scenario(plan)
    scenario.start()
    scenario.run_for(600.0)
    injector = scenario.faults
    assert injector is not None
    stats = injector.stats()
    assert stats["churn_sessions"] > 0
    assert stats["churn_rejoins"] > 0
    # Let in-flight sessions settle, then check sync: every currently
    # online node agrees with the gateways' chain prefix.
    reference = scenario.pools[0].primary.tree
    shared = [
        node for node in scenario.regular_nodes if node.online
    ]
    assert shared, "some regular nodes should be online"
    for node in shared:
        height = min(node.tree.head.height, reference.head.height) - 2
        if height <= 0:
            continue
        ours = [
            b.block_hash for b in node.tree.canonical_chain() if b.height <= height
        ]
        theirs = [
            b.block_hash
            for b in reference.canonical_chain()
            if b.height <= height
        ]
        assert ours == theirs


def test_offline_node_has_no_peers_and_drops_submissions():
    plan = FaultPlan(churn=ChurnSpec(session_mean=1e9))  # injector built, idle
    scenario = _scenario(plan)
    scenario.start()
    scenario.run_for(50.0)
    node = scenario.regular_nodes[0]
    assert node.online and node.peers
    node.go_offline()
    assert not node.online
    assert not node.peers
    # Offline wallets lose their submissions.
    from repro.chain.transaction import Transaction

    tx = Transaction(sender="wallet", nonce=0)
    node.submit_transaction(tx)
    assert tx.tx_hash not in node.mempool
    # And nobody can dial an offline node.
    other = scenario.regular_nodes[1]
    assert scenario.network.connect(other.node_id, node.node_id) is False
    node.go_online()
    assert node.online
    assert node.peers, "rejoin re-dials peers"


def test_crash_loses_mempool_but_keeps_chain():
    plan = FaultPlan(churn=ChurnSpec(session_mean=1e9))
    scenario = _scenario(plan)
    scenario.start()
    scenario.run_for(100.0)
    node = scenario.regular_nodes[0]
    from repro.chain.transaction import Transaction

    tx = Transaction(sender="wallet", nonce=0)
    node.submit_transaction(tx)
    height_before = node.tree.head.height
    assert height_before > 0
    assert tx.tx_hash in node.mempool
    node.go_offline(crash=True)
    assert tx.tx_hash not in node.mempool  # mempool lost
    assert node.tree.head.height == height_before  # chain persisted
    node.go_online()
    scenario.run_for(100.0)
    assert node.tree.head.height > height_before  # resynced and following


def test_crash_spec_cycles_nodes():
    plan = FaultPlan(crashes=CrashSpec(mtbf=120.0, downtime_mean=10.0))
    scenario = _scenario(plan)
    scenario.start()
    scenario.run_for(600.0)
    stats = scenario.faults.stats()
    assert stats["crashes"] > 0
    assert stats["restarts"] > 0


def test_partition_drops_cross_island_messages_then_heals():
    # Pool A (EA home) is islanded from everyone else for a window.
    plan = FaultPlan(
        partitions=(
            PartitionSpec(start=100.0, duration=100.0, regions=("EA", "SEA")),
        )
    )
    scenario = _scenario(plan, n_nodes=12)
    scenario.start()
    scenario.run_for(400.0)
    injector = scenario.faults
    assert injector is not None
    hooks = injector.link_hooks
    assert hooks is not None
    stats = injector.stats()
    assert stats["partitions_started"] == 1
    assert stats["partition_drops"] > 0
    # Healed: the island flag is clear again.
    assert not hooks.partitioned("EA", "WE")
    # And with no probabilistic faults configured, none fired.
    assert stats["link_drops"] == 0
    assert stats["link_duplicates"] == 0


def test_link_faults_fire_and_duplicates_deliver():
    plan = FaultPlan(
        links=LinkFaultSpec(
            drop_prob=0.05, duplicate_prob=0.1, jitter_prob=0.5, jitter_mean=0.2
        )
    )
    scenario = _scenario(plan)
    scenario.start()
    scenario.run_for(300.0)
    stats = scenario.faults.stats()
    assert stats["link_drops"] > 0
    assert stats["link_duplicates"] > 0
    assert stats["link_jitters"] > 0
    # The network still converges despite the faults.
    reference = scenario.pools[0].primary.tree
    assert reference.head.height > 0


def test_faulted_run_emits_trace_records_and_metrics():
    plan = FaultPlan(
        churn=ChurnSpec(session_mean=60.0, downtime_mean=10.0),
        links=LinkFaultSpec(drop_prob=0.05),
        partitions=(PartitionSpec(start=50.0, duration=50.0, regions=("EA",)),),
    )
    scenario = _scenario(plan, trace=True)
    scenario.start()
    scenario.run_for(300.0)
    recorder = scenario.simulator.trace
    kinds = {type(record).__name__ for record in recorder.events}
    assert "NodeOffline" in kinds
    assert "NodeOnline" in kinds
    assert "PartitionStarted" in kinds
    assert "PartitionHealed" in kinds
    assert "LinkFault" in kinds
    snapshot = recorder.registry.snapshot()
    assert snapshot.get("faults_node_offline_total{cause=churn}", 0) > 0
    assert snapshot.get("faults_partitions_total", 0) == 1
    assert snapshot.get("faults_link_faults_total{fault=drop}", 0) > 0


def test_fault_trace_records_round_trip_as_json(tmp_path):
    import json

    from repro.obs.export import Trace, convert_trace
    from repro.obs.records import trace_to_json
    from repro.obs import (
        LinkFault,
        NodeOffline,
        NodeOnline,
        PartitionHealed,
        PartitionStarted,
    )

    records = [
        NodeOffline(time=1.0, node="reg-0001", crash=True),
        NodeOnline(time=2.0, node="reg-0001"),
        PartitionStarted(time=3.0, regions=("EA", "OC"), duration=60.0),
        PartitionHealed(time=63.0, regions=("EA", "OC")),
        LinkFault(
            time=4.0,
            kind="NewBlock",
            fault="jitter",
            sender="reg-0001",
            recipient="reg-0002",
            extra_delay=0.25,
        ),
    ]
    container = Trace(seed=1, records=records).save(tmp_path / "f.trace.bin")
    exported = convert_trace(container, tmp_path / "f.trace.jsonl")
    lines = exported.read_text(encoding="utf-8").splitlines()
    scan = Trace.scan(container)
    assert len(lines) == scan.record_count() + 1
    scanned = list(scan.iter_records())
    assert scanned == sorted(records, key=lambda record: record.time)
    for line, record in zip(lines[1:], scanned):
        assert json.loads(line) == json.loads(json.dumps(trace_to_json(record)))
