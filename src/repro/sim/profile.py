"""Opt-in event-loop profiling.

Large campaigns (the ``large`` preset, mainnet-scale sweeps) live or die
by the throughput of the event loop, and "the simulation is slow" is not
actionable without knowing *which* event type burns the time.  This
module provides the observability layer behind ``Simulator(profile=True)``:

* per-event-type counters and cumulative callback seconds,
* event-loop wall-clock timing (events/second),
* the queue-depth high-water mark (memory pressure / backlog indicator).

Profiling is strictly opt-in: with it disabled the engine runs its tight
loop and only tracks the (two ``perf_counter`` calls per ``run``) wall
time needed for events/second.  Results are surfaced as
:attr:`repro.sim.engine.Simulator.metrics` and rendered by
:func:`repro.stats.format_event_profile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional


#: qualname-derived labels keyed by the callback's code object.  A fresh
#: lambda/bound method is created per scheduling, but they all share one
#: ``__code__`` per source location, so the cache is bounded by source
#: size while hitting on every event after the first of its kind.
_LABEL_CACHE: dict[object, str] = {}


def event_label(callback: Callable[[], None]) -> str:
    """Classify a scheduled callback into a stable event-type label.

    Typed callables (e.g. the network's delivery events) advertise a
    ``profile_label``; plain functions and bound methods fall back to
    their qualified name with any ``<locals>`` noise stripped.  The
    qualname derivation is cached per code object: the profiled loop
    calls this once per event, and re-deriving the label for every
    delivery lambda showed up in event-loop profiles itself.
    """
    label = getattr(callback, "profile_label", None)
    if label is not None:
        return str(label)
    func = getattr(callback, "__func__", callback)  # unwrap bound methods
    code = getattr(func, "__code__", None)
    if code is not None:
        cached = _LABEL_CACHE.get(code)
        if cached is not None:
            return cached
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:
        derived = type(callback).__name__
    else:
        derived = qualname.replace(".<locals>.", ".")
    if code is not None:
        _LABEL_CACHE[code] = derived
    return derived


class SimProfile:
    """Mutable per-run profiling accumulators (engine-internal)."""

    __slots__ = ("event_counts", "event_seconds", "queue_high_water")

    def __init__(self) -> None:
        #: events fired, by event-type label
        self.event_counts: dict[str, int] = {}
        #: cumulative callback seconds, by event-type label
        self.event_seconds: dict[str, float] = {}
        #: deepest queue observed at the top of the event loop
        self.queue_high_water: int = 0


@dataclass(frozen=True)
class SimMetrics:
    """Immutable snapshot of a simulator's performance counters.

    Attributes:
        events_processed: Total events fired since construction.
        simulated_seconds: Current simulated clock.
        run_wall_seconds: Wall-clock time spent inside :meth:`Simulator.run`
            (tracked even without profiling).
        events_per_second: Throughput over the accumulated run time; 0.0
            before any event has fired.
        profiled: Whether per-event-type profiling was enabled.
        event_counts: Events fired per event-type label (empty unless
            profiled).  When profiled, the counts sum to
            ``events_processed``.
        event_seconds: Cumulative callback seconds per event-type label
            (empty unless profiled).
        queue_high_water: Deepest event queue seen (``None`` unless
            profiled).
    """

    events_processed: int
    simulated_seconds: float
    run_wall_seconds: float
    events_per_second: float
    profiled: bool
    event_counts: Mapping[str, int] = field(default_factory=dict)
    event_seconds: Mapping[str, float] = field(default_factory=dict)
    queue_high_water: Optional[int] = None
