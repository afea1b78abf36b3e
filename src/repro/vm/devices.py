"""Virtual devices.

The devices are deliberately simple: the point of the reproduction is the
*accountability machinery around* the VM, so each device does just enough to
exercise the relevant recording/replay path:

* :class:`VirtualDisk` — block store initialised from the image, written by
  the guest; its blocks are part of the snapshot state.
* :class:`VirtualNic` — builds outbound packets and counts the traffic.
* :class:`VirtualTimer` — remembers the interrupt interval the guest asked for.
* :class:`FrameCounter` — counts rendered frames (the paper's performance
  metric, measured in their setup with an AMX Mod X script).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import DeviceError
from repro.vm.guest import FrameOutput, PacketOutput


class VirtualDisk:
    """A block-addressed virtual disk, initialised from the image.

    Its content is reproducible from the image and the guest's writes, so
    nothing about it needs to be recorded in the log (Section 4.4).
    """

    BLOCK_SIZE = 4096

    def __init__(self, initial_blocks: Optional[Dict[int, bytes]] = None) -> None:
        self._blocks: Dict[int, bytes] = dict(initial_blocks or {})
        self._writes = 0

    def write(self, block: int, data: bytes) -> None:
        if block < 0:
            raise DeviceError(f"negative disk block {block}")
        if len(data) > self.BLOCK_SIZE:
            raise DeviceError(
                f"block write of {len(data)} bytes exceeds block size {self.BLOCK_SIZE}")
        self._writes += 1
        self._blocks[block] = bytes(data)

    @property
    def writes(self) -> int:
        return self._writes

    def get_state(self) -> Dict[str, str]:
        """Serialisable disk state (block -> hex)."""
        return {str(block): data.hex() for block, data in sorted(self._blocks.items())}

    def set_state(self, state: Dict[str, str]) -> None:
        self._blocks = {int(block): bytes.fromhex(data) for block, data in state.items()}


class VirtualNic:
    """The guest's network card: packet records and traffic counters."""

    def __init__(self) -> None:
        self._packets_sent = 0
        self._packets_received = 0
        self._bytes_sent = 0
        self._bytes_received = 0

    def transmit(self, destination: str, payload: bytes) -> PacketOutput:
        """Count a packet for transmission; returns the output record."""
        packet = PacketOutput(destination=destination, payload=bytes(payload))
        self._packets_sent += 1
        self._bytes_sent += len(payload)
        return packet

    def note_received(self, payload_size: int) -> None:
        """Account for an inbound packet delivered to the guest."""
        self._packets_received += 1
        self._bytes_received += payload_size

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "packets_sent": self._packets_sent,
            "packets_received": self._packets_received,
            "bytes_sent": self._bytes_sent,
            "bytes_received": self._bytes_received,
        }


@dataclass
class VirtualTimer:
    """Remembers the periodic interrupt interval requested by the guest."""

    interval: Optional[float] = None
    ticks_delivered: int = 0

    def request(self, interval: float) -> None:
        if interval <= 0:
            raise DeviceError(f"timer interval must be positive, got {interval!r}")
        self.interval = float(interval)

    def note_tick(self) -> None:
        self.ticks_delivered += 1


class FrameCounter:
    """Counts frames rendered by the guest."""

    def __init__(self) -> None:
        self._frames = 0

    def render(self, scene_complexity: int = 0) -> FrameOutput:
        self._frames += 1
        return FrameOutput(frame_number=self._frames, scene_complexity=scene_complexity)

    @property
    def frames(self) -> int:
        return self._frames

    def restore(self, frames: int) -> None:
        """Set the count restored from a snapshot."""
        self._frames = frames
