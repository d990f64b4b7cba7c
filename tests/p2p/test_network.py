"""Tests for the network fabric."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.geo.latency import LatencyModel, LatencyModelConfig
from repro.geo.regions import Region
from repro.p2p.messages import Message, NewBlockHashesMessage, StatusMessage
from repro.p2p.network import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from tests.geo.test_latency import WAVE_SIZES, ReferenceLatency


class StubNode:
    """Minimal NetworkMember implementation for fabric tests."""

    def __init__(self, node_id: int, region: Region = Region.NORTH_AMERICA) -> None:
        self.node_id = node_id
        self.region = region
        self.inbox: list[tuple[int, Message]] = []
        self.connections: list[tuple[int, bool]] = []
        self.disconnections: list[int] = []

    def deliver(self, sender_id: int, message: Message) -> None:
        self.inbox.append((sender_id, message))

    def on_peer_connected(self, peer_id: int, inbound: bool) -> None:
        self.connections.append((peer_id, inbound))

    def on_peer_disconnected(self, peer_id: int) -> None:
        self.disconnections.append(peer_id)


@pytest.fixture()
def fabric():
    simulator = Simulator(seed=0)
    latency = LatencyModel(
        simulator.rng.stream("latency"), LatencyModelConfig(jitter_sigma=0.0)
    )
    network = Network(simulator, latency)
    a, b = StubNode(1), StubNode(2, Region.EASTERN_ASIA)
    network.register(a)
    network.register(b)
    return simulator, network, a, b


def test_register_duplicate_rejected(fabric):
    _, network, a, _ = fabric
    with pytest.raises(ConfigurationError):
        network.register(a)


def test_register_adds_to_discovery(fabric):
    _, network, a, b = fabric
    assert set(network.discovery.all_ids()) == {a.node_id, b.node_id}


def test_connect_notifies_both_sides(fabric):
    _, network, a, b = fabric
    assert network.connect(a.node_id, b.node_id)
    assert a.connections == [(2, False)]  # dialer side: outbound
    assert b.connections == [(1, True)]  # listener side: inbound


def test_connect_is_idempotent(fabric):
    _, network, a, b = fabric
    network.connect(a.node_id, b.node_id)
    assert network.connect(a.node_id, b.node_id) is False
    assert network.link_count() == 1


def test_self_connection_rejected(fabric):
    _, network, a, _ = fabric
    with pytest.raises(ConfigurationError):
        network.connect(a.node_id, a.node_id)


def test_send_requires_connection(fabric):
    _, network, a, b = fabric
    with pytest.raises(ConfigurationError):
        network.send(a.node_id, b.node_id, StatusMessage("0xh", 1.0, 0))


def test_send_delivers_after_latency(fabric):
    simulator, network, a, b = fabric
    network.connect(a.node_id, b.node_id)
    delay = network.send(a.node_id, b.node_id, StatusMessage("0xh", 1.0, 0))
    assert delay > 0
    assert b.inbox == []  # not yet delivered
    simulator.run()
    assert len(b.inbox) == 1
    sender_id, message = b.inbox[0]
    assert sender_id == a.node_id
    assert isinstance(message, StatusMessage)


def test_larger_messages_take_longer(fabric):
    simulator, network, a, b = fabric

    class Sized(Message):
        def __init__(self, size: int) -> None:
            self._size = size

        @property
        def size_bytes(self) -> int:
            return self._size

    network.connect(a.node_id, b.node_id)
    small = network.send(a.node_id, b.node_id, Sized(10))
    big = network.send(a.node_id, b.node_id, Sized(10_000_000))
    assert big > small


def test_disconnect_drops_in_flight_messages(fabric):
    simulator, network, a, b = fabric
    network.connect(a.node_id, b.node_id)
    network.send(a.node_id, b.node_id, StatusMessage("0xh", 1.0, 0))
    network.disconnect(a.node_id, b.node_id)
    simulator.run()
    assert b.inbox == []
    assert b.disconnections == [a.node_id]


def test_disconnect_unknown_link_is_noop(fabric):
    _, network, a, b = fabric
    network.disconnect(a.node_id, b.node_id)  # no error
    assert b.disconnections == []


def test_traffic_counters(fabric):
    simulator, network, a, b = fabric
    network.connect(a.node_id, b.node_id)
    message = StatusMessage("0xh", 1.0, 0)
    network.send(a.node_id, b.node_id, message)
    assert network.messages_sent == 1  # stub nodes send no handshake
    assert network.bytes_sent == message.size_bytes


def test_member_lookup(fabric):
    _, network, a, _ = fabric
    assert network.member(a.node_id) is a
    with pytest.raises(ConfigurationError):
        network.member(999)


# --------------------------------------------------------------------- #
# Batched waves (send_many / send_each)
# --------------------------------------------------------------------- #

_WAVE_REGIONS = (
    Region.NORTH_AMERICA,
    Region.EASTERN_ASIA,
    Region.WESTERN_EUROPE,
    Region.SOUTH_AMERICA,
    Region.OCEANIA,
    Region.CENTRAL_EUROPE,
    Region.EASTERN_EUROPE,
    Region.SOUTH_ASIA,
    Region.NORTH_AMERICA,
    Region.EASTERN_ASIA,
)


def _wave_world(n: int = 10, jitter: float = 0.35):
    """A hub node connected to ``n`` spokes, jitter enabled."""
    simulator = Simulator(seed=123)
    latency = LatencyModel(
        simulator.rng.stream("latency"), LatencyModelConfig(jitter_sigma=jitter)
    )
    network = Network(simulator, latency)
    hub = StubNode(100)
    network.register(hub)
    spokes = [StubNode(i, _WAVE_REGIONS[i % len(_WAVE_REGIONS)]) for i in range(n)]
    for spoke in spokes:
        network.register(spoke)
        network.connect(hub.node_id, spoke.node_id)
    return simulator, network, hub, spokes


def _reference(network: Network) -> ReferenceLatency:
    """Closed-form delays from a generator seeded like the world's."""
    return ReferenceLatency(
        RngRegistry(123).stream("latency"), network.latency.config
    )


def _log_deliveries(sim: Simulator, spokes: list[StubNode]) -> list[tuple[float, int]]:
    """Record ``(time, node_id)`` for every delivery, in firing order."""
    fired: list[tuple[float, int]] = []
    for spoke in spokes:

        def deliver(sender_id, message, spoke=spoke, inner=spoke.deliver):
            fired.append((sim.now, spoke.node_id))
            inner(sender_id, message)

        spoke.deliver = deliver
    return fired


def test_send_many_matches_scalar_sends_exactly():
    """A wave's delays equal the per-message closed-form formula.

    Covers waves on both sides of ``LatencyModel.VECTOR_MIN``; the
    reference draws jitter one message at a time from an identically
    seeded generator, so any change to draw order or arithmetic shows.
    """
    message = StatusMessage("0xh", 1.0, 0)
    for count in WAVE_SIZES:
        _, net, hub, spokes = _wave_world(count)
        delays = net.send_many(hub.node_id, [s.node_id for s in spokes], message)
        expected = _reference(net).delays(
            hub.region,
            [s.region for s in spokes],
            [message.size_bytes] * count,
        )
        assert delays == expected, count
        assert net.messages_sent == count
        assert net.bytes_sent == message.size_bytes * count


def test_send_many_delivers_like_scalar_sends():
    """Each copy fires at ``now + delay``, ties in recipient order."""
    message = StatusMessage("0xh", 1.0, 0)
    for count in WAVE_SIZES:
        sim, net, hub, spokes = _wave_world(count)
        fired = _log_deliveries(sim, spokes)
        sim.run(until=1.0)  # delays are measured from a nonzero clock
        net.send_many(hub.node_id, [s.node_id for s in spokes], message)
        sim.run()
        expected = _reference(net).delays(
            hub.region, [s.region for s in spokes], [message.size_bytes] * count
        )
        assert fired == sorted(
            (1.0 + delay, spoke.node_id) for delay, spoke in zip(expected, spokes)
        ), count
        assert sim.events_processed == count
        for spoke in spokes:
            assert spoke.inbox == [(hub.node_id, message)]


def test_send_each_honours_per_message_sizes():
    """Each recipient's delay reflects its own payload size."""
    sim, net, hub, spokes = _wave_world(n=2, jitter=0.0)
    small = StatusMessage("0xh", 1.0, 0)
    # NewBlockHashes with many entries is much larger than Status.
    big = NewBlockHashesMessage(tuple((f"0x{i}", i) for i in range(200)))
    ids = [s.node_id for s in spokes]
    delays = net.send_each(hub.node_id, ids, [small, big])
    assert delays[1] > delays[0]
    sim.run()
    assert spokes[0].inbox == [(hub.node_id, small)]
    assert spokes[1].inbox == [(hub.node_id, big)]
    assert net.bytes_sent == small.size_bytes + big.size_bytes


def test_send_each_matches_scalar_sends_exactly():
    """Per-recipient sizes price each message by its own payload."""
    for count in WAVE_SIZES:
        messages = [
            NewBlockHashesMessage(
                tuple((f"0x{j}", j) for j in range(1 + (7 * i) % 60))
            )
            for i in range(count)
        ]
        _, net, hub, spokes = _wave_world(count)
        delays = net.send_each(hub.node_id, [s.node_id for s in spokes], messages)
        expected = _reference(net).delays(
            hub.region,
            [s.region for s in spokes],
            [m.size_bytes for m in messages],
        )
        assert delays == expected, count
        assert net.messages_sent == count
        assert net.bytes_sent == sum(m.size_bytes for m in messages)


def test_send_many_single_recipient_falls_back_to_send():
    sim, net, hub, spokes = _wave_world(n=3)
    message = StatusMessage("0xh", 1.0, 0)
    delays = net.send_many(hub.node_id, [spokes[0].node_id], message)
    assert len(delays) == 1
    sim.run()
    assert spokes[0].inbox == [(hub.node_id, message)]
    assert spokes[1].inbox == []


def test_send_many_empty_wave_is_noop():
    sim, net, hub, _ = _wave_world(n=2)
    assert net.send_many(hub.node_id, [], StatusMessage("0xh", 1.0, 0)) == []
    assert net.messages_sent == 0
    assert sim.pending_events == 0


def test_send_many_requires_connections():
    _, net, hub, _ = _wave_world(n=2)
    with pytest.raises(ConfigurationError):
        net.send_many(hub.node_id, [999, 1000], StatusMessage("0xh", 1.0, 0))


def test_send_many_drops_on_torn_down_link():
    """A wave entry whose link died in flight is dropped, like send()."""
    sim, net, hub, spokes = _wave_world(n=4)
    message = StatusMessage("0xh", 1.0, 0)
    net.send_many(hub.node_id, [s.node_id for s in spokes], message)
    net.disconnect(hub.node_id, spokes[1].node_id)
    sim.run()
    assert spokes[0].inbox == [(hub.node_id, message)]
    assert spokes[1].inbox == []
    assert spokes[2].inbox == [(hub.node_id, message)]
