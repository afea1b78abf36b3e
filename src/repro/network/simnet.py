"""Simulated network.

Endpoints register a delivery callback under their identity; messages are
scheduled for delivery after a per-link latency (plus a serialisation delay
proportional to size).  Loss and partitions are supported so tests can model
unresponsive machines (Section 4.6: a node may appear unresponsive to some
parties and alive to others).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import DeliveryError
from repro.network.message import NetworkMessage
from repro.sim.rng import RngStream
from repro.sim.scheduler import Scheduler

DeliveryCallback = Callable[[NetworkMessage], None]


#: one-way LAN latency (~192 us RTT on bare hardware)
LATENCY = 96e-6
#: 1 Gbps links, as in the paper's testbed
BANDWIDTH_BPS = 1e9


@dataclass
class LinkSpec:
    """The loss characteristics of a (directed) link; every link has the
    testbed's :data:`LATENCY` and :data:`BANDWIDTH_BPS`."""

    loss_rate: float = 0.0

    def transmission_delay(self, size_bytes: int) -> float:
        """Serialisation delay for a message of ``size_bytes``."""
        return (size_bytes * 8.0) / BANDWIDTH_BPS


@dataclass
class NetworkStats:
    """Per-endpoint traffic counters (drives the Section 6.7 numbers)."""

    messages_sent: int = 0
    messages_received: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def sent_kbps(self, duration_seconds: float) -> float:
        """Average outbound traffic in kilobits per second."""
        if duration_seconds <= 0:
            return 0.0
        return (self.bytes_sent * 8.0 / 1000.0) / duration_seconds


class SimulatedNetwork:
    """Delivers :class:`NetworkMessage` envelopes between endpoints."""

    def __init__(self, scheduler: Scheduler, default_link: Optional[LinkSpec] = None) -> None:
        self.scheduler = scheduler
        self.default_link = default_link or LinkSpec()
        self._rng = RngStream(seed=0, name="network")
        self._endpoints: Dict[str, DeliveryCallback] = {}
        #: directed ``(source, destination)`` links that drop every message
        #: at send time (a partition; add both directions to cut both ways)
        self.cut_links: Set[Tuple[str, str]] = set()
        self._stats: Dict[str, NetworkStats] = {}
        self._delivery_log: List[Tuple[float, NetworkMessage]] = []
        self._tcp_endpoints: Set[str] = set()
        self._message_counter = itertools.count(1)

    def allocate_message_id(self) -> str:
        """Next message id on *this* network instance.

        Ids are logged (and signed) inside SEND/ACK entries, so they are part
        of the recorded bytes.  Scoping the counter to the network instance
        makes same-seed recordings byte-identical regardless of what other
        fleets ran earlier in the process — the process-global fallback in
        :mod:`repro.network.message` only serves envelopes constructed
        outside any network.
        """
        return f"m{next(self._message_counter):010d}"

    # -- topology -------------------------------------------------------------

    def register(self, identity: str, callback: DeliveryCallback,
                 uses_tcp: bool = False) -> None:
        """Register an endpoint; ``uses_tcp`` adds TCP framing to its traffic."""
        self._endpoints[identity] = callback
        self._stats.setdefault(identity, NetworkStats())
        if uses_tcp:
            self._tcp_endpoints.add(identity)

    # -- sending ---------------------------------------------------------------

    def send(self, message: NetworkMessage) -> bool:
        """Queue a message for delivery.

        Returns ``True`` if the message was accepted for delivery and ``False``
        if it was dropped (loss or partition).  Unknown destinations raise
        :class:`DeliveryError` — a configuration error, not a simulated fault.
        """
        if message.destination not in self._endpoints:
            raise DeliveryError(f"unknown destination {message.destination!r}")
        source_stats = self._stats.setdefault(message.source, NetworkStats())
        wire_size = message.wire_size(encapsulate_tcp=message.source in self._tcp_endpoints)
        source_stats.messages_sent += 1
        source_stats.bytes_sent += wire_size

        if (message.source, message.destination) in self.cut_links:
            source_stats.messages_dropped += 1
            return False
        link = self.default_link
        if link.loss_rate > 0 and self._rng.random() < link.loss_rate:
            source_stats.messages_dropped += 1
            return False

        delay = LATENCY + link.transmission_delay(wire_size)
        self.scheduler.schedule_after(delay, lambda: self._deliver(message, wire_size),
                                      label=f"deliver:{message.message_id}")
        return True

    def _deliver(self, message: NetworkMessage, wire_size: int) -> None:
        callback = self._endpoints.get(message.destination)
        if callback is None:
            return  # endpoint went away while the message was in flight
        stats = self._stats.setdefault(message.destination, NetworkStats())
        stats.messages_received += 1
        stats.bytes_received += wire_size
        self._delivery_log.append((self.scheduler.clock.now, message))
        callback(message)

    # -- accounting -------------------------------------------------------------

    def stats_for(self, identity: str) -> NetworkStats:
        return self._stats.setdefault(identity, NetworkStats())

    @property
    def deliveries(self) -> List[Tuple[float, NetworkMessage]]:
        """(time, message) pairs for every delivered message, oldest first."""
        return list(self._delivery_log)
