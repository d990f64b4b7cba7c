"""The discrete-event simulation engine.

:class:`Simulator` owns simulated time, the event queue, and the RNG
registry.  Components schedule callbacks with :meth:`Simulator.schedule`
(absolute time) or :meth:`Simulator.call_later` (relative delay) and the
engine drives them in deterministic order until a time horizon or event
budget is exhausted.

Hot senders bypass the :class:`~repro.sim.events.Event` handle entirely:
:meth:`Simulator.schedule_raw` enqueues a pooled event-like object (a
node's import phases) and :meth:`Simulator.schedule_batch` enqueues a
whole routed message wave against a single shared batch record — see
:mod:`repro.sim.events` for the entry layouts.  The run loops below
operate directly on the heap so both layouts dispatch without an
intermediate wrapper.

Pass ``profile=True`` (or call :meth:`Simulator.enable_profiling`) to
collect per-event-type counters, callback timings and the queue-depth
high-water mark; read them back through :attr:`Simulator.metrics`.

Every simulator also carries a :class:`~repro.obs.recorder.TraceRecorder`
at :attr:`Simulator.trace`, created disabled.  Components bind it once at
construction and guard hook sites with ``if trace.enabled:`` — call
:meth:`Simulator.enable_tracing` *before* building the network to record
ground-truth block-lifecycle and gossip events.
"""

from __future__ import annotations

import math
import time
from heapq import heappop
from typing import Any, Callable, Optional, Sequence

from repro.errors import SimulationError
from repro.obs.recorder import TraceRecorder
from repro.sim.events import DEFAULT_PRIORITY, Event, EventQueue
from repro.sim.profile import SimMetrics, SimProfile, event_label
from repro.sim.rng import RngRegistry


class Simulator:
    """Deterministic discrete-event simulator.

    Args:
        seed: Root seed for every RNG stream used in the run.
        profile: Collect per-event-type counters and timings (adds two
            clock reads per event; leave off for production campaigns).

    Attributes:
        now: Current simulated time in seconds.
        rng: Namespaced RNG registry rooted at ``seed``.
        trace: The run's :class:`TraceRecorder` (disabled by default).
        events_processed: Number of events fired so far.
        budget_exhausted: True when the most recent :meth:`run` stopped
            because it hit its ``max_events`` budget (the run was
            truncated, not drained).
    """

    def __init__(self, seed: int = 0, profile: bool = False) -> None:
        self.now: float = 0.0
        self.seed = seed
        self.rng = RngRegistry(seed)
        self.events_processed: int = 0
        self.budget_exhausted: bool = False
        self.profile: Optional[SimProfile] = SimProfile() if profile else None
        self.trace = TraceRecorder()
        self._run_wall_seconds: float = 0.0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False

    def enable_profiling(self) -> None:
        """Turn on per-event-type profiling (idempotent)."""
        if self.profile is None:
            self.profile = SimProfile()

    def enable_tracing(self) -> None:
        """Turn on ground-truth trace recording (idempotent).

        The recorder object itself never changes — components that bound
        :attr:`trace` before this call start emitting immediately.
        Tracing never perturbs the simulation: hooks draw no randomness
        and schedule nothing, so the event and RNG order of a traced run
        is identical to an untraced one.
        """
        self.trace.enabled = True

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        Raises:
            SimulationError: if ``time`` is in the past.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f}s; current time is {self.now:.6f}s"
            )
        return self._queue.push(time, callback, priority)

    def call_later(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        return self._queue.push(self.now + delay, callback, priority)

    def schedule_raw(
        self, time: float, event: Any, priority: int = DEFAULT_PRIORITY
    ) -> None:
        """Schedule a pooled event-like object at absolute ``time``.

        ``event`` must expose ``cancelled`` (fixed ``False``) and a
        zero-argument ``callback()`` method.  No :class:`Event` handle is
        allocated, so the entry cannot be cancelled — this is the
        fire-and-forget path for pooled records such as import phases.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f}s; current time is {self.now:.6f}s"
            )
        self._queue.push_raw(time, event, priority)

    def schedule_batch(
        self,
        times: Sequence[float],
        batch: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        """Schedule a whole wave against one shared ``batch`` record.

        Entry ``i`` fires ``batch.fire(i)`` at ``times[i]``; sequence
        numbers are assigned in index order, so the wave fires exactly as
        the equivalent scalar :meth:`schedule_raw` loop would.  ``times``
        must hold plain Python floats (``ndarray.tolist()`` them first):
        numpy scalars would slow every heap comparison for the entry's
        whole queue lifetime.
        """
        if times:
            earliest = min(times)
            if earliest < self.now:
                raise SimulationError(
                    f"cannot schedule event at {earliest:.6f}s; "
                    f"current time is {self.now:.6f}s"
                )
        self._queue.push_batch(times, batch, priority)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Fire events in order until the queue drains or a limit is hit.

        Args:
            until: Stop once the next event would fire after this time.
                The clock is advanced to ``until`` when the horizon is hit,
                or when the queue drains naturally before it.  A run
                truncated by ``max_events`` or :meth:`stop` leaves the
                clock at the last fired event.
            max_events: Stop after firing this many events (safety valve);
                check :attr:`budget_exhausted` to see whether it tripped.

        Raises:
            SimulationError: on re-entrant calls to :meth:`run`.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        self._stopped = False
        self.budget_exhausted = False
        drained = False
        started = time.perf_counter()
        try:
            if self.profile is None:
                drained = self._run_fast(until, max_events)
            else:
                drained = self._run_profiled(until, max_events)
        finally:
            self._running = False
            self._run_wall_seconds += time.perf_counter() - started
        if until is not None and drained and self.now < until:
            # Queue drained naturally before the horizon: advance the clock
            # so wall-clock-like measurements (e.g. campaign duration) hold.
            # Truncated runs (max_events / stop) deliberately do not
            # advance — the remaining window was never simulated.
            self.now = until

    def _run_fast(self, until: Optional[float], max_events: Optional[int]) -> bool:
        """Tight event loop (profiling off); returns True on natural drain.

        Operates directly on the queue's heap: one ``heappop`` per entry,
        no handle indirection.  Batch entries (arity 5) dispatch through
        ``batch.fire(index)``; everything else through ``callback()``.
        The heap list is bound once — the queue only ever mutates it in
        place, including compaction.
        """
        queue = self._queue
        heap = queue._heap
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        fired = 0
        # `events_processed` is only read between runs (metrics, reports),
        # so the counter accumulates in a local and lands in one store —
        # the per-event attribute load/store pair was measurable.
        try:
            while True:
                if self._stopped:
                    return False
                if fired >= budget:
                    self.budget_exhausted = True
                    return False
                if not heap:
                    return True
                entry = heap[0]
                event_time = entry[0]
                if event_time > horizon:
                    self.now = horizon
                    return False
                heappop(heap)
                obj = entry[3]
                if obj.cancelled:
                    queue._cancelled -= 1
                    continue
                self.now = event_time
                if len(entry) == 5:
                    obj.fire(entry[4])
                else:
                    obj.callback()
                fired += 1
        finally:
            self.events_processed += fired

    def _run_profiled(
        self, until: Optional[float], max_events: Optional[int]
    ) -> bool:
        """Instrumented event loop; same semantics as :meth:`_run_fast`."""
        queue = self._queue
        heap = queue._heap
        profile = self.profile
        assert profile is not None
        counts = profile.event_counts
        seconds = profile.event_seconds
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        fired = 0
        while True:
            if self._stopped:
                return False
            if fired >= budget:
                self.budget_exhausted = True
                return False
            depth = len(heap)
            if depth > profile.queue_high_water:
                profile.queue_high_water = depth
            if not heap:
                return True
            entry = heap[0]
            event_time = entry[0]
            if event_time > horizon:
                self.now = horizon
                return False
            heappop(heap)
            obj = entry[3]
            if obj.cancelled:
                queue._cancelled -= 1
                continue
            self.now = event_time
            if len(entry) == 5:
                label = obj.profile_label
                t0 = time.perf_counter()
                obj.fire(entry[4])
                elapsed = time.perf_counter() - t0
            else:
                callback = obj.callback
                label = getattr(obj, "profile_label", None)
                if label is None:
                    label = event_label(callback)
                t0 = time.perf_counter()
                callback()
                elapsed = time.perf_counter() - t0
            counts[label] = counts.get(label, 0) + 1
            seconds[label] = seconds.get(label, 0.0) + elapsed
            fired += 1
            self.events_processed += 1

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of *live* events still queued (cancelled ones excluded)."""
        return self._queue.live_count

    def queue_stats(self) -> dict[str, float]:
        """Queue counters (cold path, for ``repro.obs``): depth, live
        entries, total pushes, pending corpses and compactions."""
        return self._queue.stats()

    @property
    def metrics(self) -> SimMetrics:
        """Snapshot of the engine's performance counters.

        Always carries event totals and wall-clock throughput; the
        per-event-type breakdown and queue high-water mark are populated
        only when profiling is enabled.
        """
        wall = self._run_wall_seconds
        profile = self.profile
        return SimMetrics(
            events_processed=self.events_processed,
            simulated_seconds=self.now,
            run_wall_seconds=wall,
            events_per_second=(self.events_processed / wall) if wall > 0 else 0.0,
            profiled=profile is not None,
            event_counts=dict(profile.event_counts) if profile else {},
            event_seconds=dict(profile.event_seconds) if profile else {},
            queue_high_water=profile.queue_high_water if profile else None,
        )
