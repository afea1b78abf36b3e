"""Guest events: the inputs a virtual machine can receive.

Asynchronous events (packet delivery, timer interrupts, keyboard input) arrive
"from the hardware" and their precise timing must be recorded for replay.
Synchronous requests (clock reads) are issued by the guest itself, so only the
returned *value* must be recorded — the request will be issued again at the
same point during replay (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.crypto import hashing


class GuestEvent:
    """Base class for asynchronous events delivered to a guest."""

    kind: str = "event"

    def to_payload(self) -> Dict[str, Any]:
        """Serialisable representation recorded in the log."""
        raise NotImplementedError

    def digest(self) -> bytes:
        """Stable hash of the event (used for cross-checking during replay)."""
        return hashing.hash_object({"kind": self.kind, **self.to_payload()})


@dataclass(frozen=True)
class PacketDelivery(GuestEvent):
    """A network packet delivered to the guest's virtual NIC."""

    source: str
    payload: bytes
    message_id: str

    kind = "packet"

    def to_payload(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "payload": self.payload.hex(),
            "message_id": self.message_id,
        }


@dataclass(frozen=True)
class TimerInterrupt(GuestEvent):
    """A periodic timer interrupt (drives game ticks, server maintenance...)."""

    tick_number: int

    kind = "timer"

    def to_payload(self) -> Dict[str, Any]:
        return {"tick_number": self.tick_number}


@dataclass(frozen=True)
class KeyboardInput(GuestEvent):
    """Local user input (keystrokes / mouse movements), as an opaque command.

    Section 4.8 and 7.2: local inputs are nondeterministic inputs the AVMM
    records but cannot authenticate without trusted input hardware — a point
    several cheats (re-engineered aimbots) exploit.
    """

    command: str
    device: str = "keyboard"

    kind = "input"

    def to_payload(self) -> Dict[str, Any]:
        return {"command": self.command, "device": self.device}
