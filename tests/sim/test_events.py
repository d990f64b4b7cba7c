"""Tests for the event queue primitives."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import COMPACT_MIN_HEAP, DEFAULT_PRIORITY, EventQueue


def test_pop_returns_events_in_time_order():
    queue = EventQueue()
    fired: list[str] = []
    queue.push(3.0, lambda: fired.append("c"))
    queue.push(1.0, lambda: fired.append("a"))
    queue.push(2.0, lambda: fired.append("b"))
    while (event := queue.pop()) is not None:
        event.callback()
    assert fired == ["a", "b", "c"]


def test_equal_times_fire_in_scheduling_order():
    queue = EventQueue()
    order: list[int] = []
    for index in range(10):
        queue.push(5.0, lambda i=index: order.append(i))
    while (event := queue.pop()) is not None:
        event.callback()
    assert order == list(range(10))


def test_priority_breaks_ties_before_sequence():
    queue = EventQueue()
    order: list[str] = []
    queue.push(1.0, lambda: order.append("late"), priority=DEFAULT_PRIORITY + 1)
    queue.push(1.0, lambda: order.append("early"), priority=DEFAULT_PRIORITY - 1)
    while (event := queue.pop()) is not None:
        event.callback()
    assert order == ["early", "late"]


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    event = queue.push(1.0, lambda: pytest.fail("cancelled event fired"))
    event.cancel()
    assert queue.pop() is None


def test_pop_skips_cancelled_to_next_live_event():
    queue = EventQueue()
    first = queue.push(1.0, lambda: pytest.fail("cancelled event fired"))
    second = queue.push(2.0, lambda: None)
    first.cancel()
    assert queue.pop() is second
    assert queue.pop() is None


def test_cancel_is_idempotent():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert event.cancelled


def test_peek_time_returns_next_live_event():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert queue.peek_time() == 1.0
    first.cancel()
    assert queue.peek_time() == 2.0


def test_peek_time_empty_queue_is_none():
    assert EventQueue().peek_time() is None


def test_negative_time_rejected():
    queue = EventQueue()
    with pytest.raises(SimulationError):
        queue.push(-0.1, lambda: None)


def test_len_counts_pending_including_cancelled():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    event.cancel()
    assert len(queue) == 2  # lazily removed


def test_clear_drops_everything():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.clear()
    assert queue.pop() is None
    assert len(queue) == 0


def test_event_repr_mentions_state():
    queue = EventQueue()
    event = queue.push(1.5, lambda: None)
    assert "pending" in repr(event)
    event.cancel()
    assert "cancelled" in repr(event)


# --------------------------------------------------------------------- #
# Batched entries and cancelled-event compaction
# --------------------------------------------------------------------- #


class _Batch:
    """Minimal batch record implementing the 5-tuple entry protocol."""

    cancelled = False

    def __init__(self, log: list, tag: str = "batch") -> None:
        self.log = log
        self.tag = tag

    def fire(self, index: int) -> None:
        self.log.append((self.tag, index))


def test_schedule_batch_fires_in_time_order():
    sim = Simulator()
    log: list = []
    sim.schedule_batch([3.0, 1.0, 2.0], _Batch(log))
    sim.run()
    assert log == [("batch", 1), ("batch", 2), ("batch", 0)]
    assert sim.events_processed == 3
    assert sim.now == 3.0


def test_schedule_batch_ties_fire_in_index_order():
    sim = Simulator()
    log: list = []
    sim.schedule_batch([1.0] * 5, _Batch(log))
    sim.run()
    assert log == [("batch", i) for i in range(5)]


def test_schedule_batch_interleaves_with_scalar_events():
    """Sequence numbers are global: a wave scheduled before a scalar event
    at the same time fires first, and vice versa."""
    sim = Simulator()
    log: list = []
    sim.schedule(1.0, lambda: log.append("scalar-first"))
    sim.schedule_batch([1.0, 1.0], _Batch(log))
    sim.schedule(1.0, lambda: log.append("scalar-last"))
    sim.run()
    assert log == ["scalar-first", ("batch", 0), ("batch", 1), "scalar-last"]


def test_schedule_batch_rejects_past_times():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_batch([2.0, 0.5], _Batch([]))


def test_push_batch_empty_is_noop():
    queue = EventQueue()
    queue.push_batch([], _Batch([]))
    assert len(queue) == 0


def test_live_count_excludes_cancelled():
    queue = EventQueue()
    handle = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert queue.live_count == 2
    handle.cancel()
    assert queue.live_count == 1
    assert len(queue) == 2  # raw heap size still includes the corpse


def test_compaction_reclaims_cancelled_majority():
    """Once cancelled entries dominate a large heap, a push compacts it."""
    queue = EventQueue()
    keep = [queue.push(float(i), lambda: None) for i in range(COMPACT_MIN_HEAP)]
    doomed = [
        queue.push(1000.0 + i, lambda: None) for i in range(COMPACT_MIN_HEAP + 2)
    ]
    for handle in doomed:
        handle.cancel()
    assert len(queue) == 2 * COMPACT_MIN_HEAP + 2
    queue.push(5000.0, lambda: None)
    # The cancelled majority is gone; only live entries remain.
    assert len(queue) == COMPACT_MIN_HEAP + 1
    assert queue.live_count == COMPACT_MIN_HEAP + 1
    # And the survivors still drain in time order.
    times = []
    while (event := queue.pop()) is not None:
        times.append(event.time)
    assert times == sorted(times)
    assert len(times) == COMPACT_MIN_HEAP + 1
    assert len(keep) == COMPACT_MIN_HEAP


def test_small_heaps_are_never_compacted():
    """Below the size floor, lazy removal is observable via len()."""
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    first.cancel()
    queue.push(3.0, lambda: None)
    assert len(queue) == 3


def test_pop_until_compaction_mid_drain_keeps_accounting_exact():
    """Regression: corpses drained past a mid-drain compaction were
    double-counted.

    ``pop_until`` used to tally the corpses it crossed and subtract them
    from ``_cancelled`` after the loop; when the dead fraction crossed
    one half mid-drain, the compaction reset the counter to zero first,
    the deferred subtraction drove it negative, and ``live_count``
    stayed permanently inflated.  Per-corpse settlement makes the
    compaction trigger and the accounting agree at every step.
    """
    queue = EventQueue()
    handles = [queue.push(float(i), lambda: None) for i in range(200)]
    for handle in handles[:150]:
        handle.cancel()
    assert queue.live_count == 50
    # Every entry at or before the horizon is a corpse; crossing the
    # first one already makes the dead fraction a majority of a heap
    # well above COMPACT_MIN_HEAP, so compaction fires mid-drain.
    drained = queue.pop_until(149.5)
    assert drained == []
    stats = queue.stats()
    assert stats["compactions_total"] == 1.0
    assert stats["cancelled_pending"] == 0.0
    assert queue.live_count == 50
    rest = queue.pop_until(float("inf"))
    assert [entry[0] for entry in rest] == [float(i) for i in range(150, 200)]
    assert queue.live_count == 0
