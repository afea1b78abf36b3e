"""Reliable delivery with acknowledgments and retransmission.

Assumption 1 of the paper (Section 4.1): *all transmitted messages are
eventually received, if retransmitted sufficiently often.*  The
:class:`ReliableChannel` tracks which outgoing messages have been acknowledged
and retransmits unacknowledged ones a bounded number of times.  The AVMM and
plain user endpoints both sit on top of it; acknowledgment *content* (signed
hashes, authenticators) is produced by the layer above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ChannelError
from repro.network.message import NetworkMessage
from repro.network.simnet import SimulatedNetwork
from repro.sim.scheduler import ScheduledEvent


@dataclass
class _PendingMessage:
    message: NetworkMessage
    attempts: int
    timer: Optional[ScheduledEvent] = None


#: seconds a sender waits for an acknowledgment before retransmitting
RETRANSMIT_INTERVAL = 0.25
#: retransmissions before the sender gives up and suspects the peer
MAX_RETRANSMITS = 5


class ReliableChannel:
    """Retransmission layer for one endpoint.

    Parameters
    ----------
    network:
        The simulated network to send on.
    identity:
        The local endpoint identity.
    retransmit_interval:
        Seconds to wait for an acknowledgment before retransmitting.
    max_retransmits:
        Number of retransmissions before giving up; after that the message is
        reported to ``on_give_up`` (the caller may then *suspect* the peer,
        Section 4.3).
    """

    def __init__(self, network: SimulatedNetwork, identity: str, *,
                 retransmit_interval: float = RETRANSMIT_INTERVAL,
                 max_retransmits: int = MAX_RETRANSMITS,
                 on_give_up: Optional[Callable[[NetworkMessage], None]] = None) -> None:
        self.network = network
        self.identity = identity
        self.retransmit_interval = retransmit_interval
        self.max_retransmits = max_retransmits
        self.on_give_up = on_give_up
        self._pending: Dict[str, _PendingMessage] = {}
        self._retransmissions = 0
        self._given_up: List[str] = []

    # -- sending -----------------------------------------------------------------

    def send(self, message: NetworkMessage, expect_ack: bool = True) -> None:
        """Send a message; if ``expect_ack`` it will be retransmitted until acked."""
        if message.source != self.identity:
            raise ChannelError(
                f"channel for {self.identity!r} cannot send messages from "
                f"{message.source!r}")
        self.network.send(message)
        if expect_ack:
            pending = _PendingMessage(message=message, attempts=1)
            self._pending[message.message_id] = pending
            self._schedule_retransmit(pending)

    def _schedule_retransmit(self, pending: _PendingMessage) -> None:
        pending.timer = self.network.scheduler.schedule_after(
            self.retransmit_interval,
            lambda: self._retransmit(pending.message.message_id),
            label=f"retransmit:{pending.message.message_id}")

    def _retransmit(self, message_id: str) -> None:
        pending = self._pending.get(message_id)
        if pending is None:
            return  # acknowledged in the meantime
        if pending.attempts > self.max_retransmits:
            del self._pending[message_id]
            self._given_up.append(message_id)
            if self.on_give_up is not None:
                self.on_give_up(pending.message)
            return
        pending.attempts += 1
        self._retransmissions += 1
        self.network.send(pending.message)
        self._schedule_retransmit(pending)

    # -- acknowledgments -----------------------------------------------------------

    def acknowledge(self, message_id: str) -> bool:
        """Mark an outgoing message as acknowledged; returns ``True`` if it was pending."""
        pending = self._pending.pop(message_id, None)
        if pending is None:
            return False
        if pending.timer is not None:
            pending.timer.cancel()
        return True

    # -- queries ---------------------------------------------------------------------

    @property
    def unacknowledged(self) -> List[str]:
        """Message ids still waiting for an acknowledgment."""
        return list(self._pending)

    @property
    def retransmissions(self) -> int:
        return self._retransmissions

    @property
    def gave_up_on(self) -> List[str]:
        """Message ids the channel stopped retransmitting."""
        return list(self._given_up)
