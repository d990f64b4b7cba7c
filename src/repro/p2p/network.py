"""The network fabric: message routing with geographic latency.

:class:`Network` couples the discrete-event simulator, the latency model
and the discovery service.  Nodes send messages through
:meth:`Network.send` (one recipient), :meth:`Network.send_many` (one
message to a gossip wave) or :meth:`Network.send_each` (a distinct
message per recipient).  All three are one route: a wave of one message
per recipient, priced by one :meth:`LatencyModel.delays` call from the
origin/destination regions and the message sizes, and scheduled as one
pooled :class:`WaveDelivery` record through the queue's batch entries,
with no per-message delivery object.  Entry ``i`` fires
``recipients[i].deliver(sender_id, messages[i])``.

Connection management is symmetric: :meth:`Network.connect` installs a
:class:`~repro.p2p.peer.Peer` record on both endpoints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol, Sequence

from repro.errors import ConfigurationError
from repro.geo.latency import LatencyModel
from repro.geo.regions import Region
from repro.p2p.discovery import DiscoveryService
from repro.p2p.messages import Message
from repro.sim.engine import Simulator

if TYPE_CHECKING:
    from repro.faults.injector import LinkFaultHooks


class WaveDelivery:
    """One routed wave's deliveries, pooled into a single record.

    ``fire(i)`` delivers ``messages[i]`` to recipient ``i``.  A wave of N
    recipients costs one of these objects plus N small heap tuples.  The
    recipient member objects and the network's live ``_links`` set are
    captured at send time (both survive unchanged for the wave's
    lifetime — ``_links`` is mutated in place, never rebound), so each
    fire is three list indexes, one set probe and the ``deliver`` call.
    The class-level ``cancelled = False`` satisfies the queue's entry
    protocol without a per-instance flag.
    """

    __slots__ = (
        "network",
        "links",
        "sender_id",
        "recipient_ids",
        "recipients",
        "link_keys",
        "messages",
    )

    cancelled = False

    def __init__(
        self,
        network: "Network",
        sender_id: int,
        recipient_ids: Sequence[int],
        recipients: Sequence["NetworkMember"],
        link_keys: Sequence[tuple[int, int]],
        messages: Sequence[Message],
    ) -> None:
        self.network = network
        self.links = network._links
        self.sender_id = sender_id
        self.recipient_ids = recipient_ids
        self.recipients = recipients
        self.link_keys = link_keys
        self.messages = messages

    @property
    def profile_label(self) -> str:
        # Per-kind label strings are interned in a module dict: the
        # profiled loop asks for this once per delivered message, and
        # the set of message kinds is tiny and fixed.
        return _delivery_label(self.messages[0].kind)

    def fire(self, index: int) -> None:
        # The link may have been torn down while the message was in flight.
        if self.link_keys[index] in self.links:
            self.recipients[index].deliver(self.sender_id, self.messages[index])
        elif self.network._trace.enabled:
            self.network._record_drop(
                self.sender_id, self.recipient_ids[index], self.messages[index]
            )


#: profile_label cache: message kind -> rendered label (see above).
_DELIVERY_LABELS: dict[str, str] = {}


def _delivery_label(kind: str) -> str:
    label = _DELIVERY_LABELS.get(kind)
    if label is None:
        label = f"Network.deliver:{kind}"
        _DELIVERY_LABELS[kind] = label
    return label


def _member_name(member: Optional["NetworkMember"], node_id: int) -> str:
    """Best human-readable name for a fabric member."""
    name = getattr(member, "name", None)
    if isinstance(name, str):
        return name
    return f"node-{node_id & 0xFFFF:04x}"


class NetworkMember(Protocol):
    """Interface a node must implement to live on the network."""

    node_id: int
    region: Region

    def deliver(self, sender_id: int, message: Message) -> None:
        """Handle an incoming wire message."""

    def on_peer_connected(self, peer_id: int, inbound: bool) -> None:
        """A connection to ``peer_id`` was established."""

    def on_peer_disconnected(self, peer_id: int) -> None:
        """The connection to ``peer_id`` was torn down."""


class Network:
    """Routes messages among registered nodes with geographic delays.

    Args:
        simulator: The discrete-event engine that owns time.
        latency: Latency model; defaults to one built from the simulator's
            ``"network.latency"`` RNG stream.

    Attributes:
        discovery: The global discovery service nodes register with.
        messages_sent: Running count of routed messages (all kinds).
        bytes_sent: Running count of routed payload bytes.
    """

    def __init__(
        self,
        simulator: Simulator,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self.simulator = simulator
        self.latency = latency or LatencyModel(simulator.rng.stream("network.latency"))
        # The recorder object is stable for the simulator's lifetime, so
        # binding it once here is safe even if tracing is enabled later.
        self._trace = simulator.trace
        # Fault-free waves push straight into the event queue.  The
        # simulator's schedule wrapper only re-validates that each time is
        # not in the past, and sampled delays are clamped to >= 1e-6 s —
        # ``now + delay`` can never precede ``now`` — so the wrapper is
        # pure per-wave overhead here.  Fault-layer copies keep going
        # through :meth:`Simulator.schedule_batch`, which still validates.
        self._push_batch = simulator._queue.push_batch
        self.discovery = DiscoveryService()
        self._members: dict[int, NetworkMember] = {}
        #: Display names resolved once at registration — the fault and
        #: trace paths need them per message, and recomputing the
        #: getattr/format fallback per send was measurable.
        self._names: dict[int, str] = {}
        #: Region value strings resolved once at registration, for the
        #: same reason — the enum ``.value`` descriptor per traced send
        #: was measurable at gossip volume.
        self._regions: dict[int, str] = {}
        self._links: set[tuple[int, int]] = set()
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Per-message fault hooks, installed by the fault injector when
        #: a scenario carries a nonzero plan.  ``None`` (the default)
        #: keeps the send path byte-identical to the fault-free build:
        #: one attribute check, no extra draws, no extra events.
        self.faults: Optional["LinkFaultHooks"] = None

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def register(self, member: NetworkMember) -> None:
        """Add ``member`` to the fabric and the discovery overlay."""
        if member.node_id in self._members:
            raise ConfigurationError(f"node {member.node_id!r} already on network")
        self._members[member.node_id] = member
        self._names[member.node_id] = _member_name(member, member.node_id)
        self._regions[member.node_id] = member.region.value
        self.discovery.register(member.node_id, member)
        if self._trace.enabled:
            self._trace.node_registered(
                time=self.simulator.now,
                node=self._names[member.node_id],
                node_id=member.node_id,
                region=self._regions[member.node_id],
            )

    def member(self, node_id: int) -> NetworkMember:
        node = self._members.get(node_id)
        if node is None:
            raise ConfigurationError(f"node {node_id!r} is not on the network")
        return node

    def __len__(self) -> int:
        return len(self._members)

    def all_members(self) -> list[NetworkMember]:
        return list(self._members.values())

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #

    @staticmethod
    def _link_key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def connected(self, a: int, b: int) -> bool:
        return self._link_key(a, b) in self._links

    def connect(self, dialer_id: int, listener_id: int) -> bool:
        """Establish a connection; returns False if it already exists
        or either endpoint is offline (fault-layer churn/crash)."""
        if dialer_id == listener_id:
            raise ConfigurationError("a node cannot connect to itself")
        key = self._link_key(dialer_id, listener_id)
        if key in self._links:
            return False
        dialer = self.member(dialer_id)
        listener = self.member(listener_id)
        if not (
            getattr(dialer, "online", True) and getattr(listener, "online", True)
        ):
            return False
        self._links.add(key)
        dialer.on_peer_connected(listener_id, inbound=False)
        listener.on_peer_connected(dialer_id, inbound=True)
        return True

    def disconnect(self, a: int, b: int) -> None:
        key = self._link_key(a, b)
        if key not in self._links:
            return
        self._links.discard(key)
        self.member(a).on_peer_disconnected(b)
        self.member(b).on_peer_disconnected(a)

    def link_count(self) -> int:
        return len(self._links)

    # ------------------------------------------------------------------ #
    # Messaging
    # ------------------------------------------------------------------ #

    def send(self, sender_id: int, recipient_id: int, message: Message) -> float:
        """Route ``message`` to one peer; returns the sampled delay (seconds).

        Messages are only routed over established connections, mirroring
        devp2p's session semantics.
        """
        return self._route(sender_id, (recipient_id,), (message,))[0]

    def send_many(
        self, sender_id: int, recipient_ids: Sequence[int], message: Message
    ) -> list[float]:
        """Route one ``message`` to every recipient in a single wave.

        The wave takes ownership of ``recipient_ids`` (callers hand over
        freshly built lists; do not mutate afterwards).  Returns the
        per-recipient delays.
        """
        if len(recipient_ids) == 1:
            return [self.send(sender_id, recipient_ids[0], message)]
        return self._route(sender_id, recipient_ids, [message] * len(recipient_ids))

    def send_each(
        self,
        sender_id: int,
        recipient_ids: Sequence[int],
        messages: Sequence[Message],
    ) -> list[float]:
        """Route a distinct message to each recipient in a single wave.

        ``messages[i]`` goes to ``recipient_ids[i]``; serialisation
        delays honour each message's own size.  Takes ownership of both
        sequences like :meth:`send_many`.  Returns the per-recipient
        delays.
        """
        if len(recipient_ids) == 1:
            return [self.send(sender_id, recipient_ids[0], messages[0])]
        return self._route(sender_id, recipient_ids, messages)

    def _route(
        self,
        sender_id: int,
        recipient_ids: Sequence[int],
        messages: Sequence[Message],
    ) -> list[float]:
        """Price, schedule and trace ``messages[i]`` to ``recipient_ids[i]``.

        The one routing body behind :meth:`send`, :meth:`send_many` and
        :meth:`send_each`.  Delays for the whole wave come from one
        :meth:`LatencyModel.delays` call.  Fault-free, the wave enters the
        queue as one pooled :class:`WaveDelivery`.  With a fault layer
        installed, ``faults.route`` decides drop / duplicate / extra delay
        per recipient in order (partitions drop deterministically,
        probabilistic faults draw only from the ``faults.links`` stream),
        and the surviving copies enter the queue as one record in that
        order, so their sequence numbers, and thus their firing order
        among equal times, follow recipient order.
        """
        links = self._links
        members = self._members
        link_keys: list[tuple[int, int]] = []
        recipients: list[NetworkMember] = []
        for recipient_id in recipient_ids:
            key = (
                (sender_id, recipient_id)
                if sender_id < recipient_id
                else (recipient_id, sender_id)
            )
            if key not in links:
                raise ConfigurationError(
                    f"no connection between {sender_id!r} and {recipient_id!r}"
                )
            link_keys.append(key)
            # Links only exist between registered members, so direct
            # indexing is safe and skips a per-message lookup-and-raise.
            recipients.append(members[recipient_id])
        sizes = [message.size_bytes for message in messages]
        delays = self.latency.delays(
            members[sender_id].region, [member.region for member in recipients], sizes
        )
        self.messages_sent += len(delays)
        self.bytes_sent += sum(sizes)
        now = self.simulator.now
        names = self._names
        regions = self._regions
        faults = self.faults
        if faults is None:
            self._push_batch(
                [now + delay for delay in delays],
                WaveDelivery(
                    self, sender_id, recipient_ids, recipients, link_keys, messages
                ),
            )
        else:
            sender_name = names[sender_id]
            sender_region = regions[sender_id]
            times: list[float] = []
            picks: list[int] = []
            for index, recipient_id in enumerate(recipient_ids):
                for copy_delay in faults.route(
                    messages[index].kind,
                    sender_name,
                    names[recipient_id],
                    sender_region,
                    regions[recipient_id],
                    delays[index],
                ):
                    times.append(now + copy_delay)
                    picks.append(index)
            self.simulator.schedule_batch(
                times,
                WaveDelivery(
                    self,
                    sender_id,
                    [recipient_ids[i] for i in picks],
                    [recipients[i] for i in picks],
                    [link_keys[i] for i in picks],
                    [messages[i] for i in picks],
                ),
            )
        if self._trace.enabled:
            self._trace.gossip_each(
                now,
                names[sender_id],
                regions[sender_id],
                recipient_ids,
                names,
                regions,
                messages,
                sizes,
                delays,
            )
        return delays

    # ------------------------------------------------------------------ #
    # Trace emission
    # ------------------------------------------------------------------ #

    def _record_drop(
        self, sender_id: int, recipient_id: int, message: Message
    ) -> None:
        names = self._names
        self._trace.delivery_dropped(
            time=self.simulator.now,
            kind=message.kind,
            sender=names[sender_id],
            recipient=names[recipient_id],
            block_hash=message.trace_meta()[0],
        )
