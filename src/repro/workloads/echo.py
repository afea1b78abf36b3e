"""Echo guest: replies to every packet with the same payload.

Used for the round-trip-time experiment (Figure 5): the "ping" is a packet to
the echo guest, the "pong" is its reply, and — because both machines run under
the configuration being measured — the reply path picks up the virtualisation,
recording, daemon and signature costs the paper attributes to each
configuration.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict

from repro.vm.events import GuestEvent, PacketDelivery
from repro.vm.guest import GuestProgram, MachineApi
from repro.vm.image import VMImage


class EchoGuest(GuestProgram):
    """Replies to every incoming packet with an identical payload."""

    name = "echo"

    def __init__(self) -> None:
        self.packets_echoed = 0

    def on_start(self, api: MachineApi) -> None:
        api.consume_cycles(10)

    def on_event(self, api: MachineApi, event: GuestEvent) -> None:
        if isinstance(event, PacketDelivery):
            api.consume_cycles(20)
            api.send_packet(event.source, event.payload)
            self.packets_echoed += 1

    def get_state(self) -> Dict[str, Any]:
        return {"packets_echoed": self.packets_echoed}

    def set_state(self, state: Dict[str, Any]) -> None:
        self.packets_echoed = int(state["packets_echoed"])


class PingSenderGuest(GuestProgram):
    """Sends a numbered ping to a target whenever it receives local input.

    The experiment driver injects a ``ping`` command per measurement; the
    guest sends the request and counts the replies it gets back.
    """

    name = "ping-sender"

    def __init__(self, target: str) -> None:
        self.target = target
        self.pings_sent = 0
        self.replies_received = 0

    def on_start(self, api: MachineApi) -> None:
        api.consume_cycles(10)

    def on_event(self, api: MachineApi, event: GuestEvent) -> None:
        from repro.vm.events import KeyboardInput
        if isinstance(event, KeyboardInput) and event.command.startswith("ping"):
            self.pings_sent += 1
            payload = f"icmp-echo-request:{self.pings_sent}".encode("utf-8")
            api.send_packet(self.target, payload)
        elif isinstance(event, PacketDelivery):
            self.replies_received += 1

    def get_state(self) -> Dict[str, Any]:
        return {"target": self.target, "pings_sent": self.pings_sent,
                "replies_received": self.replies_received}

    def set_state(self, state: Dict[str, Any]) -> None:
        self.target = str(state["target"])
        self.pings_sent = int(state["pings_sent"])
        self.replies_received = int(state["replies_received"])


def make_echo_image(name: str = "echo-official") -> VMImage:
    """Image containing the echo responder."""
    return VMImage(name=name, guest_factory=EchoGuest,
                   disk_blocks={0: b"echo-service"})


def make_ping_sender_image(target: str, name: str = "ping-sender") -> VMImage:
    """Image containing the ping sender aimed at ``target``."""
    return VMImage(name=f"{name}-{target}",
                   guest_factory=partial(PingSenderGuest, target),
                   disk_blocks={0: b"ping-tool"})
