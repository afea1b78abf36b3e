"""Fleet sharding: consistent-hash placement and archive handoff.

One :class:`~repro.service.ingest.AuditIngestService` owning a whole fleet
stops scaling long before the ROADMAP's 1,000-machine target: every shipment
lands on one endpoint and every audit reads one archive.  This module splits
the ingest plane into N shards — each an :class:`AuditShard` with its own
service identity and :class:`~repro.store.archive.LogArchive` root — with
machines placed onto shards by a consistent-hash ring (:class:`ShardRing`),
so adding or removing a shard moves only ~1/N of the fleet.

The sharding plane deliberately splits *chains*, not *evidence*:

* a machine's hash-chained log (segments, snapshots, retention anchor) lives
  on exactly one shard — its *home* — and moves atomically via
  :func:`migrate_machine`;
* authenticators *about* a machine stay wherever its peers shipped them
  (the reporter's home shard).  They are signed commitments, valid anywhere;
  the :class:`~repro.service.fleet.FleetCoordinator` pools them across
  shards by gossip, which is exactly what makes cross-shard equivocation
  convictable.

Handoff safety: :func:`migrate_machine` is idempotent and resumable.  The
destination archive re-proves chain continuity on every migrated segment
(:meth:`~repro.store.archive.LogArchive.append_segment` re-verifies the hash
chain against the archived head), retention anchors are adopted before any
segment and refused if they conflict, and snapshot stores deduplicate by id
— so an interrupted handoff re-run completes the move and can never fork
the archived chain.  The source forgets the machine only after the
destination holds everything.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.crypto.hashing import hash_bytes
from repro.errors import StoreError
from repro.network.simnet import SimulatedNetwork
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive

#: virtual nodes per shard on the ring; 64 keeps the max/mean load ratio of
#: a 1,000-machine fleet within a few percent at 4–16 shards
RING_REPLICAS = 64


def _ring_point(key: str) -> int:
    """A key's position on the ring: the first 8 bytes of its hash."""
    return int.from_bytes(hash_bytes(key.encode("utf-8"))[:8], "big")


class ShardRing:
    """Consistent-hash machine→shard placement.

    Each shard contributes :data:`RING_REPLICAS` virtual points; a machine lands on
    the first shard point clockwise from its own hash.  Placement is a pure
    function of the shard ids and the machine name — every party (machines
    attaching shippers, shards, the coordinator) computes the same answer
    with no directory service, across processes and runs.
    """

    def __init__(self, shard_ids: Iterable[str] = ()) -> None:
        self._shard_ids: List[str] = []
        self._points: List[Tuple[int, str]] = []
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    def shard_ids(self) -> List[str]:
        return sorted(self._shard_ids)

    def __len__(self) -> int:
        return len(self._shard_ids)

    def add_shard(self, shard_id: str) -> None:
        if shard_id in self._shard_ids:
            raise ValueError(f"shard {shard_id!r} is already on the ring")
        self._shard_ids.append(shard_id)
        for replica in range(RING_REPLICAS):
            self._points.append(
                (_ring_point(f"shard:{shard_id}:{replica}"), shard_id))
        self._points.sort()

    def shard_for(self, machine: str) -> str:
        """The shard id owning ``machine`` (deterministic, directory-free)."""
        if not self._points:
            raise StoreError("cannot place a machine on an empty shard ring")
        position = bisect_right(self._points,
                                (_ring_point(f"machine:{machine}"), ""))
        if position == len(self._points):
            position = 0  # wrap past twelve o'clock
        return self._points[position][1]

class AuditShard:
    """One ingest shard: a service identity plus its own archive root."""

    def __init__(self, identity: str, archive: LogArchive,
                 network: Optional[SimulatedNetwork] = None) -> None:
        self.identity = identity
        self.archive = archive
        self.service = AuditIngestService(
            archive, identity=identity, network=network)

    @classmethod
    def create(cls, identity: str, root: Union[str, Path],
               network: Optional[SimulatedNetwork] = None,
               format_version: int = 1) -> "AuditShard":
        return cls(identity, LogArchive(Path(root), format_version=format_version),
                   network=network)

    def archived_machines(self) -> List[str]:
        """Machines whose chain (segments) lives on this shard, sorted."""
        return [machine for machine in self.archive.machines()
                if self.archive.segment_records(machine)]

    def auditable_machines(self) -> List[str]:
        """Machines this shard must produce a verdict for.

        The union of chain owners and machines with quarantined shipments —
        a machine whose *first* shipment was garbage has no archived
        segments, but its quarantine record demands a SUSPECTED verdict.
        """
        names = set(self.archived_machines())
        names.update(self.service.quarantined_machines())
        return sorted(names)

    def export_authenticator_gossip(self) -> Dict[str, bytes]:
        """Serialized authenticators this shard holds, keyed by issuer.

        The cross-shard gossip payload: each value is the issuer's archived
        authenticators in :func:`repro.log.storage.authenticators_to_bytes`
        wire form, exactly as they would travel shard→coordinator.  The
        receiver decodes and signature-checks them itself — a lying shard
        can withhold evidence but cannot fabricate a conviction.
        """
        from repro.log.storage import authenticators_to_bytes
        gossip: Dict[str, bytes] = {}
        for machine in self.archive.machines():
            auths = self.archive.authenticators_for(machine)
            if auths:
                gossip[machine] = authenticators_to_bytes(auths)
        return gossip


@dataclass
class HandoffReport:
    """What one :func:`migrate_machine` call actually moved."""

    machine: str
    source: str
    destination: str
    segments_copied: int = 0
    segments_already_present: int = 0
    snapshots_copied: int = 0
    retention_adopted: bool = False
    #: records the source released (segments and snapshots)
    source_files_removed: int = 0
    #: head sequence of the machine's chain on the destination afterwards
    destination_head_sequence: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "machine": self.machine,
            "source": self.source,
            "destination": self.destination,
            "segments_copied": self.segments_copied,
            "segments_already_present": self.segments_already_present,
            "snapshots_copied": self.snapshots_copied,
            "retention_adopted": self.retention_adopted,
            "source_files_removed": self.source_files_removed,
            "destination_head_sequence": self.destination_head_sequence,
        }


def migrate_machine(machine: str, source: AuditShard,
                    destination: AuditShard) -> HandoffReport:
    """Move a machine's archived chain from one shard to another.

    The handoff protocol, in an order chosen so that interrupting it at any
    point and re-running recovers cleanly instead of forking the archive:

    1. **Retention anchor.**  If the source was truncated, the destination
       adopts the retention checkpoint first (segments extend the anchor,
       not genesis).  Adoption is idempotent for an equal anchor and
       *refuses* a conflicting one — the fork guard.
    2. **Snapshots**, ascending id (a delta's base must precede it).  The
       archive's snapshot stores deduplicate by id, so a resumed handoff
       re-offers already-copied snapshots harmlessly.
    3. **Segments**, oldest first.  Each is re-read from the source and
       re-proven at the destination's ingest door —
       :meth:`~repro.store.archive.LogArchive.append_segment` verifies the
       whole hash chain against the archived head, so chain continuity is
       established by verification, not trust.  Segments at or below the
       destination head are skipped (resume case).
    4. **Queue bookkeeping** — migrated segments enter the destination's
       audit queue; the machine leaves the source's.
    5. **Forget** the machine on the source (its file is rewritten without
       the chain and the checkpoint switched before the old one is
       unlinked, so a crash leaves an orphan for the next open's sweep).
       Authenticator batches *about* the machine stay on the source: they
       are its peers' evidence, pooled fleet-wide by coordinator gossip.

    A machine with quarantined shipments is refused: the quarantine record
    is evidence bound to this shard's ingest history and must be judged
    before the chain moves.
    """
    if source.identity == destination.identity:
        raise StoreError(
            f"cannot migrate {machine!r} from {source.identity!r} to itself")
    quarantined = source.service.quarantine_for(machine)
    if quarantined:
        raise StoreError(
            f"cannot migrate {machine!r} off {source.identity!r}: "
            f"{len(quarantined)} quarantined shipment(s) must be judged "
            f"first ({quarantined[0].reason})")

    report = HandoffReport(machine=machine, source=source.identity,
                           destination=destination.identity)
    src, dst = source.archive, destination.archive

    retained = src.retained_checkpoint(machine)
    if retained is not None:
        dst.adopt_retention_checkpoint(machine, retained)
        report.retention_adopted = True

    report.snapshots_copied = src.copy_snapshots_to(dst, machine)

    head = dst.head_checkpoint(machine).sequence
    for record in src.segment_records(machine):
        if record.last_sequence <= head:
            report.segments_already_present += 1
            continue
        dst.append_segment(src.read_segment(record),
                           sealed_by_snapshot=record.sealed_by_snapshot)
        report.segments_copied += 1
    report.destination_head_sequence = dst.head_checkpoint(machine).sequence

    destination.service.enqueue_pending(machine, report.segments_copied)
    source.service.drop_pending(machine)
    report.source_files_removed = src.forget_machine(machine)
    return report
