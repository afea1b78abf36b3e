"""Lying shippers: corrupt the archive-ingest stream in flight (PR 2's door).

The durable archive re-verifies the hash chain on every arriving shipment,
so a machine (or a compromised shipping daemon) that corrupts its stream
cannot poison the archive — the part is quarantined at the door and the
quarantine record itself names the machine.  These adversaries interpose on
the byzantine monitor's *own* network handle (the path its archive shipping
uses) and corrupt *their part* of each ``ARCHIVE_SHIPMENT`` before it
reaches the wire:

* :class:`LyingShipperSegments` rewrites an entry inside the compressed
  segment part, so the archive sees a chain that does not extend the
  machine's archived head;
* :class:`LyingShipperSnapshots` re-encodes delta page files to name a base
  snapshot the archive never saw, the dangling-delta attack the ingest
  service quarantines.

The other parts of the shipment land as shipped, and regular peer traffic
(DATA/ACK) passes through untouched — the machine keeps playing honestly;
only its shipped history lies.
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
from repro.network.shipment import PartKind, decode_shipment, encode_shipment
from repro.network.simnet import SimulatedNetwork
from repro.vm.snapshot import IncrementalSnapshot


class CorruptingNetworkHandle:
    """Proxy for a monitor's network handle that corrupts selected messages.

    Wraps the real :class:`~repro.network.simnet.SimulatedNetwork` and
    rewrites messages whose kind is in ``kinds`` before forwarding;
    everything else passes through.  Only the byzantine monitor holds this
    handle — the shared network object is untouched.
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
    """Shared wiring: interpose on the byzantine monitor's network handle
    and corrupt the parts of one kind inside each of its shipments."""

    modes = ("archive",)
    during_run = True
    expects_quarantine = True
    expected_phases = ()
    kind: PartKind

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.handle: CorruptingNetworkHandle | None = None

    def install(self, ctx: ScenarioContext) -> None:
        monitor = ctx.monitor
        self.handle = CorruptingNetworkHandle(
            ctx.network, (MessageKind.ARCHIVE_SHIPMENT,), self._corrupt)
        # The monitor's archive-shipping path reads self.network; the regular
        # peer channel keeps its own reference to the real network.
        monitor.network = self.handle  # type: ignore[assignment]

    def _corrupt(self, message: NetworkMessage) -> None:
        message.payload = encode_shipment(
            replace(part, payload=self.corrupt_part(part.payload, self.rng))
            if part.kind is self.kind else part
            for part in decode_shipment(message.payload))

    def corrupt_part(self, payload: bytes, rng: random.Random) -> bytes:
        raise NotImplementedError


class LyingShipperSegments(_LyingShipper):
    """Rewrites a log entry inside shipped archive segments."""

    name = "lying-shipper-segments"
    description = "rewrite an entry inside each shipped archive segment"
    kind = PartKind.SEGMENT

    def corrupt_part(self, payload: bytes, rng: random.Random) -> bytes:
        codec = get_codec(1)
        try:
            segment = codec.decode_segment(payload)
        except Exception:  # pragma: no cover - only our own shipments arrive
            return payload
        if not segment.entries:
            return payload
        index = rng.randrange(len(segment.entries))
        entry = segment.entries[index]
        tampered = replace(entry, content={**entry.content,
                                           "shipped_lie": rng.randrange(1 << 30)})
        entries = list(segment.entries)
        entries[index] = tampered
        return codec.encode_segment(
            LogSegment(machine=segment.machine, entries=entries,
                       start_hash=segment.start_hash))


class LyingShipperSnapshots(_LyingShipper):
    """Re-bases shipped snapshot deltas onto a base the archive never saw."""

    name = "lying-shipper-snapshots"
    description = "ship snapshot deltas whose base the archive never saw"
    kind = PartKind.SNAPSHOT

    def corrupt_part(self, payload: bytes, rng: random.Random) -> bytes:
        try:
            snapshot = IncrementalSnapshot.from_bytes(payload)
        except SnapshotError:  # pragma: no cover - only our own shipments arrive
            return payload
        if snapshot.base_snapshot_id is None:
            return payload  # the anchoring keyframe ships clean; the lie needs a chain
        return replace(
            snapshot,
            base_snapshot_id=990000 + rng.randrange(1 << 12)).to_bytes()
