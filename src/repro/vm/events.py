"""Guest events: the inputs a virtual machine can receive.

Asynchronous events (packet delivery, timer interrupts, keyboard input) arrive
"from the hardware" and their precise timing must be recorded for replay.
Synchronous requests (clock reads) are issued by the guest itself, so only the
returned *value* must be recorded — the request will be issued again at the
same point during replay (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass


class GuestEvent:
    """Base class for asynchronous events delivered to a guest."""

    kind: str = "event"


@dataclass(frozen=True)
class PacketDelivery(GuestEvent):
    """A network packet delivered to the guest's virtual NIC."""

    source: str
    payload: bytes
    message_id: str

    kind = "packet"


@dataclass(frozen=True)
class TimerInterrupt(GuestEvent):
    """A periodic timer interrupt (drives game ticks, server maintenance...)."""

    tick_number: int

    kind = "timer"


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
