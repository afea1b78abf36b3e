"""Guest program interface.

A guest program is the "software S" of the paper: an arbitrary deterministic
state machine that runs inside the (A)VM.  Guests interact with the virtual
hardware exclusively through :class:`MachineApi`; as long as the values the
API returns are the same, the guest's behaviour is bit-for-bit identical —
which is exactly the property deterministic replay relies on.

Guests must be deterministic: no wall-clock access, no ``random`` module, no
iteration over unordered structures whose order can vary.  All randomness and
timing must come through the API (``read_clock``) so the AVMM can record it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.crypto import hashing
from repro.vm.events import GuestEvent


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------

class Output:
    """Base class for externally visible guest outputs."""

    kind: str = "output"


@dataclass(frozen=True)
class PacketOutput(Output):
    """The guest asked the virtual NIC to transmit a packet."""

    destination: str
    payload: bytes

    kind = "packet_out"


@dataclass(frozen=True)
class FrameOutput(Output):
    """The guest rendered a display frame.

    Frames never leave the machine, but the *number* of frames rendered is the
    paper's headline performance metric, so the VM keeps count.
    """

    frame_number: int
    scene_complexity: int = 0

    kind = "frame_out"


@dataclass(frozen=True)
class DiskWriteOutput(Output):
    """The guest wrote a block to its virtual disk."""

    block: int
    data: bytes

    kind = "disk_write"

# ---------------------------------------------------------------------------
# Machine API
# ---------------------------------------------------------------------------

class MachineApi:
    """The interface a guest uses to talk to the virtual hardware.

    The :class:`~repro.vm.machine.VirtualMachine` provides the implementation;
    guests only see this abstract surface.
    """

    def read_clock(self) -> float:
        """Read the (virtual) wall clock.  Nondeterministic input."""
        raise NotImplementedError

    def send_packet(self, destination: str, payload: bytes) -> None:
        """Transmit a network packet."""
        raise NotImplementedError

    def render_frame(self, scene_complexity: int = 0) -> int:
        """Render one display frame; returns the frame number."""
        raise NotImplementedError

    def write_disk(self, block: int, data: bytes) -> None:
        """Write a block to the virtual disk."""
        raise NotImplementedError

    def consume_cycles(self, cycles: int) -> None:
        """Charge ``cycles`` units of computation to the guest."""
        raise NotImplementedError

    def set_timer(self, interval: float) -> None:
        """Request periodic timer interrupts every ``interval`` virtual seconds."""
        raise NotImplementedError

    def upstream_call(self, service: str, request: bytes) -> bytes:
        """Synchronous call to an external backend.  Nondeterministic input.

        The response body and its modelled latency come from outside the
        deterministic envelope (a database, a payment API, ...), so the AVMM
        records both with the call's execution timestamp and replay serves
        the recorded response — the guest cannot tell the difference.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Guest program
# ---------------------------------------------------------------------------

class GuestProgram:
    """Deterministic event-driven guest.

    Subclasses implement :meth:`on_start` and :meth:`on_event` and keep all
    their state in plain serialisable attributes exposed through
    :meth:`get_state` / :meth:`set_state` so the VM can snapshot and restore
    them.
    """

    #: human-readable name, included in the VM image identity
    name: str = "guest"

    def on_start(self, api: MachineApi) -> None:
        """Called once when the VM (re)starts from its image or a snapshot."""

    def on_event(self, api: MachineApi, event: GuestEvent) -> None:
        """Handle one asynchronous event."""
        raise NotImplementedError

    # -- state (snapshot support) -------------------------------------------

    def get_state(self) -> Dict[str, Any]:
        """Return the guest's complete serialisable state."""
        raise NotImplementedError

    def set_state(self, state: Dict[str, Any]) -> None:
        """Restore state previously returned by :meth:`get_state`."""
        raise NotImplementedError

    # -- identity ------------------------------------------------------------

    def program_digest(self) -> bytes:
        """Hash identifying the *code* of the guest.

        Two guests with the same class and configuration digest are considered
        the same program.  Cheat images override :meth:`config_fingerprint`
        (or are different classes), so their digest differs from the reference
        image — the root cause of replay divergence for class-1 cheats.
        """
        return hashing.hash_object({
            "class": type(self).__qualname__,
            "name": self.name,
            "config": self.config_fingerprint(),
        })

    def config_fingerprint(self) -> Dict[str, Any]:
        """Configuration that is part of the program identity."""
        return {}
