"""Tests for the latency model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geo.latency import (
    LatencyModel,
    LatencyModelConfig,
    base_latency_seconds,
)
from repro.geo.regions import Region


def _model(jitter: float = 0.0, **kwargs) -> LatencyModel:
    return LatencyModel(
        np.random.default_rng(3),
        LatencyModelConfig(jitter_sigma=jitter, **kwargs),
    )


class ReferenceLatency:
    """The latency model's formula written out one message at a time.

    ``base_latency_seconds * jitter + size / bandwidth + overhead``,
    clamped to 1e-6; an unjittered model omits the multiplication.
    Jitter is drawn in blocks of :attr:`LatencyModel.JITTER_BATCH`
    (log-normal, then the tail mixture from the same generator) and
    consumed from the block's tail.  Built from an identically seeded
    generator, it is the independent reference the vectorized
    :meth:`LatencyModel.delays` and the network's send route must match
    bit for bit.
    """

    def __init__(self, rng: np.random.Generator, config: LatencyModelConfig) -> None:
        self.rng = rng
        self.config = config
        self.buffer: list[float] = []

    def jitter(self) -> float:
        if not self.buffer:
            config = self.config
            batch = LatencyModel.JITTER_BATCH
            draws = self.rng.lognormal(0.0, config.jitter_sigma, batch)
            if config.tail_probability > 0:
                draws[self.rng.random(batch) < config.tail_probability] *= (
                    config.tail_multiplier
                )
            self.buffer = draws.tolist()
        return self.buffer.pop()

    def delay(self, origin: Region, destination: Region, size: int) -> float:
        config = self.config
        base = base_latency_seconds(origin, destination)
        if config.jitter_sigma > 0:
            base = base * self.jitter()
        serialisation = size / config.bandwidth_bytes_per_s
        return max(base + serialisation + config.per_message_overhead, 1e-6)

    def delays(
        self, origin: Region, destinations: list[Region], sizes: list[int]
    ) -> list[float]:
        return [
            self.delay(origin, destination, size)
            for destination, size in zip(destinations, sizes)
        ]


#: Wave sizes straddling ``LatencyModel.VECTOR_MIN`` (20): the scalar
#: side, its last size, the first vector sizes and a large wave.
WAVE_SIZES = (1, 2, 19, 20, 21, 64)

_DESTINATIONS = tuple(Region)


def _destinations(count: int) -> list[Region]:
    return [_DESTINATIONS[i % len(_DESTINATIONS)] for i in range(count)]


def _pair(jitter: float) -> tuple[LatencyModel, ReferenceLatency]:
    config = LatencyModelConfig(jitter_sigma=jitter)
    return (
        LatencyModel(np.random.default_rng(17), config),
        ReferenceLatency(np.random.default_rng(17), config),
    )


def test_base_latency_is_symmetric():
    for a in Region:
        for b in Region:
            assert base_latency_seconds(a, b) == base_latency_seconds(b, a)


def test_base_latency_defined_for_all_pairs():
    for a in Region:
        for b in Region:
            assert base_latency_seconds(a, b) > 0


def test_intra_region_faster_than_intercontinental():
    assert base_latency_seconds(
        Region.WESTERN_EUROPE, Region.WESTERN_EUROPE
    ) < base_latency_seconds(Region.WESTERN_EUROPE, Region.EASTERN_ASIA)


def test_delay_without_jitter_is_deterministic():
    model = _model(jitter=0.0)
    d1 = model.delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA)
    d2 = model.delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA)
    assert d1 == d2


def test_delay_includes_overhead_and_base():
    model = _model(jitter=0.0)
    expected = (
        base_latency_seconds(Region.NORTH_AMERICA, Region.EASTERN_ASIA)
        + model.config.per_message_overhead
    )
    assert model.delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA) == pytest.approx(
        expected
    )


def test_size_adds_serialisation_delay():
    model = _model(jitter=0.0, bandwidth_bytes_per_s=1000.0)
    small = model.delay(Region.NORTH_AMERICA, Region.NORTH_AMERICA, 0)
    big = model.delay(Region.NORTH_AMERICA, Region.NORTH_AMERICA, 5000)
    assert big == pytest.approx(small + 5.0)


def test_jitter_varies_delays():
    model = _model(jitter=0.5)
    draws = {
        model.delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA) for _ in range(20)
    }
    assert len(draws) > 1


def test_jitter_mean_matches_lognormal_expectation():
    sigma = 0.35
    model = _model(jitter=sigma, tail_probability=0.0)
    base = base_latency_seconds(Region.NORTH_AMERICA, Region.EASTERN_ASIA)
    samples = np.array(
        [
            model.delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA)
            - model.config.per_message_overhead
            for _ in range(20000)
        ]
    )
    expected_mean = base * np.exp(sigma**2 / 2)
    assert samples.mean() == pytest.approx(expected_mean, rel=0.05)


def test_expected_delay_matches_empirical_mean():
    model = _model(jitter=0.35)
    expected = model.expected_delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA)
    samples = np.array(
        [model.delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA) for _ in range(20000)]
    )
    assert samples.mean() == pytest.approx(expected, rel=0.05)


def test_delay_is_always_positive():
    model = _model(jitter=1.5)
    for _ in range(100):
        assert model.delay(Region.CENTRAL_EUROPE, Region.CENTRAL_EUROPE) > 0


def test_invalid_bandwidth_rejected():
    with pytest.raises(ConfigurationError):
        LatencyModel(
            np.random.default_rng(0), LatencyModelConfig(bandwidth_bytes_per_s=0)
        )


def test_negative_jitter_rejected():
    with pytest.raises(ConfigurationError):
        LatencyModel(np.random.default_rng(0), LatencyModelConfig(jitter_sigma=-0.1))


def test_jitter_batching_is_deterministic_per_seed():
    a = LatencyModel(np.random.default_rng(5), LatencyModelConfig(jitter_sigma=0.3))
    b = LatencyModel(np.random.default_rng(5), LatencyModelConfig(jitter_sigma=0.3))
    # (tail mixture included in both — same seed, same draws)
    da = [a.delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA) for _ in range(50)]
    db = [b.delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA) for _ in range(50)]
    assert da == db


def test_tail_mixture_creates_heavy_tail():
    """p99/median should grow well beyond the pure-lognormal ratio."""
    plain = _model(jitter=0.35, tail_probability=0.0)
    heavy = _model(jitter=0.35, tail_probability=0.10, tail_multiplier=4.0)
    import numpy as _np

    def ratio(model):
        samples = _np.array(
            [model.delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA) for _ in range(8000)]
        )
        return _np.percentile(samples, 99) / _np.median(samples)

    assert ratio(heavy) > ratio(plain) * 1.5


def test_expected_delay_includes_tail_mixture():
    model = _model(jitter=0.35, tail_probability=0.10, tail_multiplier=4.0)
    import numpy as _np

    samples = _np.array(
        [model.delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA) for _ in range(30000)]
    )
    assert samples.mean() == pytest.approx(
        model.expected_delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA), rel=0.05
    )


@pytest.mark.parametrize("count", WAVE_SIZES)
@pytest.mark.parametrize("jitter", [0.0, 0.35])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-recipient"])
def test_delays_match_the_closed_form_reference(count, jitter, shared):
    model, reference = _pair(jitter)
    destinations = _destinations(count)
    sizes = [4_321] * count if shared else [137 * i + 60 for i in range(count)]
    size_arg = 4_321 if shared else sizes
    for _ in range(3):  # successive waves keep consuming the same stream
        got = model.delays(Region.EASTERN_ASIA, destinations, size_arg)
        assert got == reference.delays(Region.EASTERN_ASIA, destinations, sizes)
        assert all(type(value) is float for value in got)


@pytest.mark.parametrize("crossing", [15, 64])
def test_delays_cross_a_jitter_refill_like_the_reference(crossing):
    """A wave that outlasts the jitter buffer continues into a new block."""
    model, reference = _pair(0.35)
    first = _destinations(LatencyModel.JITTER_BATCH - 10)
    second = _destinations(crossing)
    for destinations in (first, second, first, second):
        sizes = [300] * len(destinations)
        assert model.delays(
            Region.WESTERN_EUROPE, destinations, sizes
        ) == reference.delays(Region.WESTERN_EUROPE, destinations, sizes)


def test_delay_is_a_one_destination_wave():
    model, reference = _pair(0.35)
    for size in (0, 2_000, 90_000):
        assert model.delay(Region.OCEANIA, Region.SOUTH_AMERICA, size) == (
            reference.delay(Region.OCEANIA, Region.SOUTH_AMERICA, size)
        )


def test_empty_wave_draws_no_jitter():
    model, reference = _pair(0.35)
    model.delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA)
    reference.delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA, 0)
    assert model.delays(Region.NORTH_AMERICA, [], 0) == []
    assert model.delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA) == (
        reference.delay(Region.NORTH_AMERICA, Region.EASTERN_ASIA, 0)
    )
