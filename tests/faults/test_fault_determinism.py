"""Fault-layer determinism contract (DESIGN.md §5f).

Two pins protect the whole comparison methodology:

* an **all-zeros** plan must be indistinguishable from no plan at all —
  the seed-55 canonical chain stays byte-identical (same sha256 as the
  pin in ``tests/integration/test_determinism.py``); and
* a **nonzero** plan must be reproducible: identical seeds give
  byte-identical datasets across runs and across execution modes
  (in-process sequential vs the multiprocess fleet), and the traced
  seed-55 run under ``pindigest.FAULT_PLAN`` keeps its ``.trace.bin``
  bytes across revisions.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from repro.devtools.pindigest import EXPECTED_PINS, compute_pin
from repro.experiments.fleet import CampaignPool, fault_grid_jobs
from repro.experiments.presets import small_campaign
from repro.faults import ChurnSpec, FaultPlan, LinkFaultSpec
from repro.measurement.campaign import Campaign

SEED_55_DIGEST = "aff2ea94748b9462f59cc134da366767120cfe31d5a30d8cf79bd20909e4c609"


def _chain_digest(dataset) -> str:
    return hashlib.sha256(
        ",".join(dataset.chain.canonical_hashes).encode()
    ).hexdigest()


def _nonzero_plan() -> FaultPlan:
    return FaultPlan(
        churn=ChurnSpec(session_mean=120.0, downtime_mean=20.0),
        links=LinkFaultSpec(
            drop_prob=0.02, duplicate_prob=0.02, jitter_prob=0.2, jitter_mean=0.2
        ),
    )


def test_all_zeros_plan_preserves_the_seed_55_pin():
    """FaultPlan() must not even perturb event-sequence tie-breaks."""
    config = replace(small_campaign(seed=55), faults=FaultPlan())
    dataset = Campaign(config).run()
    assert len(dataset.chain.canonical_hashes) == 42
    assert dataset.chain.canonical_hashes[-1] == (
        "0x11a3922b4d81ede15e19105f48671269"
    )
    assert _chain_digest(dataset) == SEED_55_DIGEST


def test_nonzero_plan_is_reproducible_and_differs_from_clean_run():
    config = replace(small_campaign(seed=55), faults=_nonzero_plan())
    first = Campaign(config).run()
    second = Campaign(replace(small_campaign(seed=55), faults=_nonzero_plan())).run()
    assert first.chain.canonical_hashes == second.chain.canonical_hashes
    assert first.block_messages == second.block_messages
    assert first.tx_receptions == second.tx_receptions
    # And the faults actually changed the world.
    assert _chain_digest(first) != SEED_55_DIGEST


def test_faulted_trace_container_pinned_for_seed_55():
    """Drop, duplicate, jitter and partition decisions keep their bytes.

    The pinned plan fires every ``faults.route`` outcome; the trace
    carries each routed message's sampled delay, every link-fault record
    and every delivery, so a change to how the fabric schedules
    surviving copies (order, count, timing) moves the digest.
    """
    assert (
        compute_pin("small_seed55_faults_trace")
        == EXPECTED_PINS["small_seed55_faults_trace"]
    )


def test_fault_grid_fleet_matches_sequential_byte_for_byte(tmp_path):
    """The multiprocess fleet and an in-process run serialize identically."""
    plan = _nonzero_plan()
    jobs = fault_grid_jobs(
        "small", plan, intensities=(0.0, 1.0), seeds=(55,)
    )
    pool = CampaignPool(jobs=2, cache_dir=tmp_path, use_disk=True)
    result = pool.run(jobs)
    assert not result.failures()
    by_label = {outcome.job.name: outcome for outcome in result.outcomes}

    for intensity, label in ((0.0, "faults-x0"), (1.0, "faults-x1")):
        config = replace(small_campaign(seed=55), faults=plan.scaled(intensity))
        sequential = Campaign(config).run()
        outcome = by_label[label]
        fleet_bytes = outcome.path.read_bytes()
        local_path = tmp_path / f"sequential-{label}.jsonl"
        sequential.save(local_path)
        assert fleet_bytes == local_path.read_bytes(), label

    # Intensity 0 of any plan degenerates to the clean pinned chain.
    zero = by_label["faults-x0"]
    assert _chain_digest(zero.dataset) == SEED_55_DIGEST
    one = by_label["faults-x1"]
    assert _chain_digest(one.dataset) != SEED_55_DIGEST
