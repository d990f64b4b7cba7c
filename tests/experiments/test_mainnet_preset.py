"""Tests for the full-population ``mainnet`` preset.

The 15k-peer preset itself is exercised by ``benchmarks/bench_mainnet.py``
(running it takes minutes); these tests pin its *configuration* and run a
scaled-down smoke campaign through the identical code path — degree
sampling, propagation-only workload, batched fan-out — with a seed-pinned
canonical chain so draw-order regressions on the mainnet path surface in
the tier-1 suite.
"""

from __future__ import annotations

from dataclasses import replace

from repro.devtools.pindigest import EXPECTED_PINS, chain_digest
from repro.experiments.presets import mainnet_campaign, preset
from repro.measurement.campaign import Campaign
from repro.node.miner import MAINNET_INTER_BLOCK_TIME
from repro.p2p.degrees import DegreeDistribution
from repro.workload.scenarios import build_scenario


def _smoke_config(seed: int = 55):
    """The mainnet preset scaled to tier-1-test size.

    Everything but the population and window matches the real preset, so
    the smoke run covers the same code path: heavy-tailed degree caps
    drawn from ``scenario.degrees``, no transaction workload, batched
    block gossip.
    """
    config = mainnet_campaign(seed=seed)
    return replace(
        config,
        duration=20 * MAINNET_INTER_BLOCK_TIME,
        scenario=replace(config.scenario, n_nodes=150),
    )


def test_mainnet_preset_shape():
    config = preset("mainnet", seed=9)
    assert config.scenario.seed == 9
    assert config.scenario.n_nodes == 15_000
    assert config.scenario.workload is None
    assert isinstance(config.scenario.degrees, DegreeDistribution)


def test_mainnet_degrees_produce_heterogeneous_caps():
    """The sampled degree caps must actually vary and respect the bounds."""
    config = _smoke_config()
    scenario = build_scenario(config.scenario)
    caps = [node.config.max_peers for node in scenario.regular_nodes]
    dist = config.scenario.degrees
    assert min(caps) >= dist.min_degree
    assert max(caps) <= dist.max_degree
    assert len(set(caps)) > 5  # heavy-tailed, not homogeneous
    # Outbound targets scale with the cap but never drop below the floor.
    for node in scenario.regular_nodes:
        assert node.config.target_outbound == max(2, node.config.max_peers // 2)


def test_mainnet_smoke_canonical_chain_pinned():
    """Seed-pinned regression for the mainnet code path.

    Same contract as the seed-55 small-campaign pin: this digest may only
    change when a PR deliberately alters RNG draw order, and such a PR
    must say so.  Two in-process runs must also agree bit-for-bit.
    """
    first = Campaign(_smoke_config(seed=55)).run()
    second = Campaign(_smoke_config(seed=55)).run()
    assert first.chain.canonical_hashes == second.chain.canonical_hashes

    hashes = first.chain.canonical_hashes
    assert len(hashes) == 29
    assert hashes[-1] == "0x27860f438a83ab12ec255629ca3e5bde"
    assert chain_digest(hashes) == EXPECTED_PINS["mainnet_smoke_seed55"]

