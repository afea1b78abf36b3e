"""Lying shippers: corrupt the archive-ingest stream in flight (PR 2's door).

The durable archive re-verifies the hash chain on every arriving shipment,
so a machine (or a compromised shipping daemon) that corrupts its stream
cannot poison the archive — the shipment is quarantined at the door and the
quarantine record itself names the machine.  These adversaries interpose on
the byzantine monitor's *own* network handle (the path its archive shipping
uses) and corrupt selected message kinds before they reach the wire:

* :class:`LyingShipperSegments` rewrites an entry inside each compressed
  ``ARCHIVE_SEGMENT``, so the archive sees a chain that does not extend the
  machine's archived head;
* :class:`LyingShipperSnapshots` re-encodes ``ARCHIVE_SNAPSHOT`` delta page
  files to name a base snapshot the archive never saw, the dangling-delta
  attack the ingest service quarantines.

Regular peer traffic (DATA/ACK) passes through untouched — the machine keeps
playing honestly; only its shipped history lies.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Tuple

from repro.adversary.base import Adversary, ScenarioContext
from repro.errors import SnapshotError
from repro.log.codec import get_codec
from repro.log.segments import LogSegment
from repro.network.message import MessageKind, NetworkMessage
from repro.network.simnet import SimulatedNetwork
from repro.vm.snapshot import IncrementalSnapshot


class CorruptingNetworkHandle:
    """Proxy for a monitor's network handle that corrupts selected shipments.

    Wraps the real :class:`~repro.network.simnet.SimulatedNetwork` and
    rewrites the payload of messages whose kind is in ``kinds`` before
    forwarding; everything else passes through.  Only the byzantine monitor
    holds this handle — the shared network object is untouched.
    """

    def __init__(self, inner: SimulatedNetwork,
                 kinds: Tuple[MessageKind, ...],
                 transform: Callable[[NetworkMessage], None]) -> None:
        self._inner = inner
        self._kinds = kinds
        self._transform = transform
        self.corrupted = 0

    def send(self, message: NetworkMessage) -> bool:
        if message.kind in self._kinds:
            before = bytes(message.payload)
            self._transform(message)
            if message.payload != before:
                self.corrupted += 1
        return self._inner.send(message)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _LyingShipper(Adversary):
    """Shared wiring: interpose on the byzantine monitor's network handle."""

    modes = ("archive",)
    during_run = True
    expects_quarantine = True
    expected_phases = ()
    kinds: Tuple[MessageKind, ...] = ()

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.handle: CorruptingNetworkHandle | None = None

    def install(self, ctx: ScenarioContext) -> None:
        monitor = ctx.monitor
        self.handle = CorruptingNetworkHandle(
            ctx.network, self.kinds,
            lambda message: self.corrupt_message(message, self.rng))
        # The monitor's archive-shipping path reads self.network; the regular
        # peer channel keeps its own reference to the real network.
        monitor.network = self.handle  # type: ignore[assignment]

    def corrupt_message(self, message: NetworkMessage,
                        rng: random.Random) -> None:
        raise NotImplementedError


class LyingShipperSegments(_LyingShipper):
    """Rewrites a log entry inside shipped archive segments."""

    name = "lying-shipper-segments"
    description = "rewrite an entry inside each shipped archive segment"
    kinds = (MessageKind.ARCHIVE_SEGMENT,)

    def corrupt_message(self, message: NetworkMessage,
                        rng: random.Random) -> None:
        codec = get_codec(1)
        try:
            segment = codec.decode_segment(message.payload)
        except Exception:  # pragma: no cover - only our own shipments arrive
            return
        if not segment.entries:
            return
        index = rng.randrange(len(segment.entries))
        entry = segment.entries[index]
        tampered = replace(entry, content={**entry.content,
                                           "shipped_lie": rng.randrange(1 << 30)})
        entries = list(segment.entries)
        entries[index] = tampered
        message.payload = codec.encode_segment(
            LogSegment(machine=segment.machine, entries=entries,
                       start_hash=segment.start_hash))


class LyingShipperSnapshots(_LyingShipper):
    """Re-bases shipped snapshot deltas onto a base the archive never saw."""

    name = "lying-shipper-snapshots"
    description = "ship snapshot deltas whose base the archive never saw"
    kinds = (MessageKind.ARCHIVE_SNAPSHOT,)

    def corrupt_message(self, message: NetworkMessage,
                        rng: random.Random) -> None:
        try:
            snapshot = IncrementalSnapshot.from_bytes(message.payload)
        except SnapshotError:  # pragma: no cover - only our own shipments arrive
            return
        if snapshot.base_snapshot_id is None:
            return  # the anchoring keyframe ships clean; the lie needs a chain
        message.payload = replace(
            snapshot,
            base_snapshot_id=990000 + rng.randrange(1 << 12)).to_bytes()
