"""Inter-region network latency and bandwidth model.

One-way latencies are half of typical public inter-datacenter RTTs
(WonderNetwork / cloud-ping style numbers, rounded).  Within a message
transfer the model composes:

``one_way_latency(jittered) + serialisation_delay(size / bandwidth) + processing``

Jitter is multiplicative log-normal, which matches the heavy right tail of
real WAN latency samples and produces the long tail visible in the paper's
Figure 1 histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.geo.regions import Region

#: Base one-way latencies between regions, in milliseconds.  Symmetric.
#: Eastern-Asia links carry a premium over great-circle estimates:
#: 2019-era China↔US/EU paths (where most EA hash power sat) ran well
#: above 200 ms RTT through congested/filtered transit.
_BASE_LATENCY_MS: dict[tuple[Region, Region], float] = {
    (Region.NORTH_AMERICA, Region.NORTH_AMERICA): 18.0,
    (Region.NORTH_AMERICA, Region.SOUTH_AMERICA): 75.0,
    (Region.NORTH_AMERICA, Region.WESTERN_EUROPE): 45.0,
    (Region.NORTH_AMERICA, Region.CENTRAL_EUROPE): 55.0,
    (Region.NORTH_AMERICA, Region.EASTERN_EUROPE): 65.0,
    (Region.NORTH_AMERICA, Region.EASTERN_ASIA): 100.0,
    (Region.NORTH_AMERICA, Region.SOUTH_ASIA): 100.0,
    (Region.NORTH_AMERICA, Region.OCEANIA): 80.0,
    (Region.SOUTH_AMERICA, Region.SOUTH_AMERICA): 25.0,
    (Region.SOUTH_AMERICA, Region.WESTERN_EUROPE): 95.0,
    (Region.SOUTH_AMERICA, Region.CENTRAL_EUROPE): 105.0,
    (Region.SOUTH_AMERICA, Region.EASTERN_EUROPE): 115.0,
    (Region.SOUTH_AMERICA, Region.EASTERN_ASIA): 165.0,
    (Region.SOUTH_AMERICA, Region.SOUTH_ASIA): 170.0,
    (Region.SOUTH_AMERICA, Region.OCEANIA): 155.0,
    (Region.WESTERN_EUROPE, Region.WESTERN_EUROPE): 10.0,
    (Region.WESTERN_EUROPE, Region.CENTRAL_EUROPE): 12.0,
    (Region.WESTERN_EUROPE, Region.EASTERN_EUROPE): 25.0,
    (Region.WESTERN_EUROPE, Region.EASTERN_ASIA): 135.0,
    (Region.WESTERN_EUROPE, Region.SOUTH_ASIA): 90.0,
    (Region.WESTERN_EUROPE, Region.OCEANIA): 140.0,
    (Region.CENTRAL_EUROPE, Region.CENTRAL_EUROPE): 8.0,
    (Region.CENTRAL_EUROPE, Region.EASTERN_EUROPE): 15.0,
    (Region.CENTRAL_EUROPE, Region.EASTERN_ASIA): 145.0,
    (Region.CENTRAL_EUROPE, Region.SOUTH_ASIA): 85.0,
    (Region.CENTRAL_EUROPE, Region.OCEANIA): 145.0,
    (Region.EASTERN_EUROPE, Region.EASTERN_EUROPE): 12.0,
    (Region.EASTERN_EUROPE, Region.EASTERN_ASIA): 120.0,
    (Region.EASTERN_EUROPE, Region.SOUTH_ASIA): 80.0,
    (Region.EASTERN_EUROPE, Region.OCEANIA): 150.0,
    (Region.EASTERN_ASIA, Region.EASTERN_ASIA): 20.0,
    (Region.EASTERN_ASIA, Region.SOUTH_ASIA): 40.0,
    (Region.EASTERN_ASIA, Region.OCEANIA): 60.0,
    (Region.SOUTH_ASIA, Region.SOUTH_ASIA): 18.0,
    (Region.SOUTH_ASIA, Region.OCEANIA): 50.0,
    (Region.OCEANIA, Region.OCEANIA): 15.0,
}


def base_latency_seconds(a: Region, b: Region) -> float:
    """One-way base latency between regions ``a`` and ``b`` in seconds."""
    value = _BASE_LATENCY_MS.get((a, b))
    if value is None:
        value = _BASE_LATENCY_MS.get((b, a))
    if value is None:
        raise ConfigurationError(f"no latency defined between {a!r} and {b!r}")
    return value / 1000.0


def _unit_jitters(count: int) -> list[float]:
    """The jitter source of an unjittered model: ``count`` exact ones."""
    return [1.0] * count


@dataclass(frozen=True)
class LatencyModelConfig:
    """Tunable parameters of the latency model.

    Attributes:
        jitter_sigma: Sigma of the multiplicative log-normal jitter.
            0 disables jitter entirely (useful in tests).
        bandwidth_bytes_per_s: Effective per-link throughput used for the
            serialisation delay of large payloads (blocks).  The paper's
            vantages had >= 8 Gbps; ordinary peers are slower — the default
            models a 50 Mbps effective application-level throughput.
        per_message_overhead: Fixed per-message processing cost in seconds
            (deserialisation, queueing); applied on reception.
    """

    jitter_sigma: float = 0.35
    bandwidth_bytes_per_s: float = 50e6 / 8
    per_message_overhead: float = 0.002
    #: Probability that a delivery hits a congested/slow path, and the
    #: extra multiplier it pays.  This mixture reproduces the long right
    #: tail of WAN latency (the paper's Figure 1 has p99 ≈ 4× median).
    tail_probability: float = 0.05
    tail_multiplier: float = 3.0


class LatencyModel:
    """Samples message delivery delays between regions.

    Args:
        rng: Random stream for jitter draws.
        config: Model parameters; defaults match DESIGN.md calibration.
    """

    #: Jitter draws are generated in batches of this size; per-call scalar
    #: numpy draws dominate simulation time otherwise.
    JITTER_BATCH = 8192

    #: Below this fan-out, :meth:`delays` computes in plain Python: the
    #: fixed overhead of numpy array construction exceeds the per-element
    #: savings for small waves.  Both paths perform the exact same IEEE
    #: operations, so the crossover is a pure speed knob.  Measured on
    #: CPython 3.11 through the full sampling path (jitter bookkeeping
    #: included) the scalar listcomp wins up to ~16-element waves and
    #: numpy wins from ~24, so the threshold splits the difference.
    VECTOR_MIN = 20

    def __init__(
        self,
        rng: np.random.Generator,
        config: LatencyModelConfig | None = None,
    ) -> None:
        self._rng = rng
        self.config = config or LatencyModelConfig()
        if self.config.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.config.jitter_sigma < 0:
            raise ConfigurationError("jitter sigma must be non-negative")
        self._jitter_buffer: list[float] = []
        # Hot-path scalars unpacked from the (frozen, never-rebound)
        # config: every delay sample reads all three, and the dataclass
        # attribute chain was measurable at mainnet wave rates.
        self._bandwidth = self.config.bandwidth_bytes_per_s
        self._overhead = self.config.per_message_overhead
        # The jitter source is fixed with the config, so pricing never
        # branches on it: an unjittered model draws nothing and multiplies
        # every base latency by exactly 1.0 (``x * 1.0 == x``).
        self._jitters = (
            self.take_jitters if self.config.jitter_sigma > 0 else _unit_jitters
        )
        # Base-latency rows keyed by origin region: one dict lookup per
        # destination instead of the two-way tuple probe in
        # base_latency_seconds.  Values are the same ms/1000.0 floats.
        self._rows: dict[Region, dict[Region, float]] = {}
        for (a, b), ms in _BASE_LATENCY_MS.items():
            self._rows.setdefault(a, {})[b] = ms / 1000.0
            self._rows.setdefault(b, {})[a] = ms / 1000.0

    def _refill_jitter(self) -> None:
        draws = self._rng.lognormal(
            mean=0.0, sigma=self.config.jitter_sigma, size=self.JITTER_BATCH
        )
        if self.config.tail_probability > 0:
            slow = self._rng.random(self.JITTER_BATCH) < (
                self.config.tail_probability
            )
            draws[slow] *= self.config.tail_multiplier
        self._jitter_buffer = draws.tolist()

    def take_jitters(self, count: int) -> list[float]:
        """Consume the next ``count`` jitter draws.

        Draws come off the tail of the buffer, which is refilled from the
        RNG stream whenever it runs dry (also mid-call), so the stream
        state after N draws is the same however they were grouped into
        calls.  That is what keeps a wave's delays independent of how
        the surrounding traffic was batched.
        """
        buffer = self._jitter_buffer
        start = len(buffer) - count
        if start >= 0:
            out = buffer[start:]
            out.reverse()
            del buffer[start:]
            return out
        out = buffer[::-1]
        del buffer[:]
        while len(out) < count:
            self._refill_jitter()
            buffer = self._jitter_buffer
            take = count - len(out)
            if take > len(buffer):
                take = len(buffer)
            chunk = buffer[-take:]
            chunk.reverse()
            out.extend(chunk)
            del buffer[-take:]
        return out

    def delay(self, origin: Region, destination: Region, size_bytes: int = 0) -> float:
        """Sample the one-way delivery delay for a ``size_bytes`` message.

        The returned delay is always strictly positive so event ordering in
        the simulator never degenerates to zero-delay loops.
        """
        return self.delays(origin, (destination,), size_bytes)[0]

    def delays(
        self,
        origin: Region,
        destinations: Sequence[Region],
        size_bytes: Union[int, Sequence[int]] = 0,
    ) -> list[float]:
        """Sample one delivery delay per destination in a single pass.

        ``size_bytes`` is either one payload size shared by the wave or a
        per-destination sequence.  Each delay is
        ``max(base * jitter + size / bandwidth + overhead, 1e-6)``, with
        jitter draws taken in destination order (an unjittered model
        multiplies by exactly ``1.0``).  Waves of at least
        :attr:`VECTOR_MIN` destinations evaluate it in numpy, smaller ones
        in a list comprehension; both apply the same IEEE operations in
        the same association, so the result does not depend on the side.
        """
        row = self._rows.get(origin)
        if row is None:
            raise ConfigurationError(f"no latency defined from region {origin!r}")
        try:
            base = [row[destination] for destination in destinations]
        except KeyError as error:
            raise ConfigurationError(
                f"no latency defined between {origin!r} and {error.args[0]!r}"
            ) from None
        count = len(base)
        jitters = self._jitters(count)
        sizes = (
            [size_bytes] * count
            if isinstance(size_bytes, (int, float))
            else size_bytes
        )
        bandwidth = self._bandwidth
        overhead = self._overhead
        if count >= self.VECTOR_MIN:
            values = (
                np.array(base) * np.array(jitters)
                + np.array(sizes, dtype=np.float64) / bandwidth
                + overhead
            )
            result: list[float] = np.maximum(values, 1e-6).tolist()
            return result
        return [
            max(b * j + s / bandwidth + overhead, 1e-6)
            for b, j, s in zip(base, jitters, sizes)
        ]

    def expected_delay(
        self, origin: Region, destination: Region, size_bytes: int = 0
    ) -> float:
        """Deterministic expected delay (no jitter draw) — used in tests."""
        base = base_latency_seconds(origin, destination)
        if self.config.jitter_sigma > 0:
            base *= float(np.exp(self.config.jitter_sigma**2 / 2.0))
            base *= 1.0 + self.config.tail_probability * (
                self.config.tail_multiplier - 1.0
            )
        return base + size_bytes / self.config.bandwidth_bytes_per_s + (
            self.config.per_message_overhead
        )
