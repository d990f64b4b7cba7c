"""Periodic metrics snapshots on the simulated timeline.

A :class:`MetricsSnapshotter` wraps a :class:`~repro.sim.PeriodicProcess`
whose callback only *reads* the recorder's registry — it draws no
randomness and schedules nothing beyond its own next tick.  Because the
event queue breaks time ties by relative insertion sequence, weaving
these extra ticks into the timeline cannot change the order in which
any other events run, which is why a traced run replays the untraced
run's chain byte for byte.
"""

from __future__ import annotations

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess

#: Default sampling period (simulated seconds).  Roughly four samples
#: per Ethereum block interval — fine enough to see propagation bursts,
#: coarse enough that snapshots stay a tiny fraction of trace volume.
DEFAULT_SNAPSHOT_PERIOD = 4.0


class MetricsSnapshotter:
    """Samples ``simulator.trace``'s registry every ``period`` sim-seconds."""

    __slots__ = ("simulator", "period", "_process")

    def __init__(
        self,
        simulator: Simulator,
        period: float = DEFAULT_SNAPSHOT_PERIOD,
    ) -> None:
        self.simulator = simulator
        self.period = period
        self._process = PeriodicProcess(simulator, period, self._sample)

    def start(self) -> None:
        """Schedule the first sample one period from now."""
        self._process.start()

    def stop(self) -> None:
        """Stop sampling (pending tick becomes a no-op)."""
        self._process.stop()

    def _sample(self) -> None:
        simulator = self.simulator
        simulator.trace.set_queue_stats(simulator.queue_stats())
        simulator.trace.snapshot_metrics(simulator.now)
