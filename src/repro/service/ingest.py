"""The fleet audit-ingest pipeline.

:class:`AuditIngestService` is the datacenter-side counterpart of the AVMM's
segment shipping hook (:meth:`repro.avmm.monitor.AccountableVMM.
attach_archive_shipper`).  It registers as an endpoint on the simulated
network and consumes one message kind, ``ARCHIVE_SHIPMENT``
(:mod:`repro.network.shipment`): everything one seal or tail of a machine's
log produced, as typed parts —

* *snapshot* parts — the VM state at a seal boundary (a snapshot page file,
  :meth:`repro.vm.snapshot.IncrementalSnapshot.to_bytes`), stored as it
  arrived so archive-backed audits can start replay mid-log;
* the *segment* — a sealed, compressed log segment, appended to the
  durable :class:`~repro.store.archive.LogArchive` (which re-verifies the
  hash chain at the door — a segment that does not extend the machine's
  archived head is quarantined, not stored);
* *authenticator* batches — authenticators a machine collected from its
  peers, filed under their issuer so auditors can later check any machine's
  archived log against the commitments it gave out.

Every part is decoded and judged on its own — a refused one is quarantined,
the accepted ones still land — and the accepted parts are stored as one
group: one write, one commit record, one fsync
(:meth:`~repro.store.archive.LogArchive.shipment`).

Every successfully archived segment enqueues its machine on the per-machine
audit queue, and a service opened over an existing archive starts with every
archived machine queued; :meth:`audit_pending` drains the queue by feeding
the archived logs straight into the audit engine,
:class:`~repro.audit.engine.AuditScheduler`, via
:class:`~repro.service.target.ArchiveBackedMachine` targets.  A machine whose
archive has been truncated by retention GC replays from the boundary
snapshot — the same protocol a spot check uses for a mid-log chunk.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.audit.auditor import Auditor
from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.audit.verdict import AuditResult
from repro.errors import HashChainError, LogFormatError, SnapshotError, StoreError
from repro.log.codec import decode_segment
from repro.log.segments import LogSegment
from repro.log.storage import authenticators_from_bytes
from repro.network.message import MessageKind, NetworkMessage
from repro.network.shipment import PartKind, ShipmentPart, decode_shipment
from repro.network.simnet import SimulatedNetwork
from repro.service.target import ArchiveBackedMachine
from repro.store.archive import LogArchive
from repro.store.manifest import fsync_directory, write_durably
from repro.vm.snapshot import IncrementalSnapshot

DEFAULT_INGEST_IDENTITY = "audit-ingest"


@dataclass
class IngestStats:
    """Work counters for the ingest pipeline."""

    messages_received: int = 0
    segments_ingested: int = 0
    entries_ingested: int = 0
    raw_bytes_ingested: int = 0
    stored_bytes: int = 0
    authenticators_ingested: int = 0
    snapshots_ingested: int = 0
    segments_rejected: int = 0


@dataclass
class QuarantinedShipment:
    """A shipment the archive refused (chain break, fork, or garbage).

    Quarantine records are themselves evidence — they name the machine whose
    shipment could not be reconciled with its archived hash chain — so the
    service persists them next to the archive (``quarantine.jsonl``) and
    reloads them on recovery; a crash between ingest and audit cannot
    launder a rejected shipment.
    """

    machine: str
    reason: str
    first_sequence: int = 0
    last_sequence: int = 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "QuarantinedShipment":
        return QuarantinedShipment(
            machine=str(data.get("machine", "")),
            reason=str(data.get("reason", "")),
            first_sequence=int(data.get("first_sequence", 0) or 0),
            last_sequence=int(data.get("last_sequence", 0) or 0))


class AuditIngestService:
    """Receives streamed log state from a fleet and archives it durably."""

    def __init__(self, archive: LogArchive,
                 identity: str = DEFAULT_INGEST_IDENTITY,
                 network: Optional[SimulatedNetwork] = None) -> None:
        self.archive = archive
        self.identity = identity
        self.network = network
        self.stats = IngestStats()
        self._quarantine_path = Path(archive.root) / "quarantine.jsonl"
        self.quarantine: List[QuarantinedShipment] = self._load_quarantine()
        #: machines with archived-but-unaudited segments, with segment
        #: counts; rebuilt from the archive's index, so a reopened service
        #: owes every archived machine an audit
        self._pending: Dict[str, int] = {}
        for machine in archive.machines():
            records = archive.segment_records(machine)
            if records:
                self._pending[machine] = len(records)
        if network is not None:
            network.register(identity, self.on_message)

    # -- network ingestion ---------------------------------------------------

    def on_message(self, message: NetworkMessage) -> None:
        """Delivery callback registered with the simulated network."""
        self.stats.messages_received += 1
        if message.kind is not MessageKind.ARCHIVE_SHIPMENT:
            return  # not part of the ingest protocol; ignore it
        source = message.source
        try:
            parts = decode_shipment(message.payload)
        except LogFormatError as exc:
            self._record_quarantine(QuarantinedShipment(
                machine=source, reason=f"undecodable shipment: {exc}"))
            return
        handlers = {PartKind.SNAPSHOT: self._on_snapshot,
                    PartKind.SEGMENT: self._on_segment,
                    PartKind.AUTHENTICATORS: self._on_authenticators}
        with self.archive.shipment(source):
            for part in parts:
                handlers[part.kind](source, part)

    def _on_segment(self, source: str, part: ShipmentPart) -> None:
        try:
            # Sniffs the codec magic, so shipments in any registered wire
            # format (mixed-format fleets included) land in one archive.
            segment = decode_segment(part.payload)
        except (LogFormatError, OSError, EOFError, ValueError, KeyError,
                TypeError, struct.error) as exc:
            # bz2 raises OSError/EOFError on garbage, the JSON decoder
            # KeyError/ValueError on structurally wrong JSON, struct on a
            # torn binary frame — all quarantine, never crash the delivery
            # callback.
            self.stats.segments_rejected += 1
            self._record_quarantine(QuarantinedShipment(
                machine=source, reason=f"undecodable segment: {exc}"))
            return
        if segment.machine != source:
            self.stats.segments_rejected += 1
            self._record_quarantine(QuarantinedShipment(
                machine=source,
                reason=f"shipment claims to be from {segment.machine!r}"))
            return
        self.ingest_segment(segment,
                            sealed_by_snapshot=part.sealed_by_snapshot,
                            wire=part.payload)

    def _on_authenticators(self, source: str, part: ShipmentPart) -> None:
        try:
            batch = authenticators_from_bytes(part.payload)
        except (LogFormatError, ValueError, KeyError, TypeError) as exc:
            self._record_quarantine(QuarantinedShipment(
                machine=source,
                reason=f"undecodable authenticator batch: {exc}"))
            return
        self.ingest_authenticators(part.subject or source, batch)

    def _on_snapshot(self, source: str, part: ShipmentPart) -> None:
        try:
            self.archive.store_snapshot_delta(
                source, IncrementalSnapshot.from_bytes(part.payload),
                wire=part.payload)
            self.stats.snapshots_ingested += 1
        except (SnapshotError, StoreError) as exc:
            # SnapshotError also covers a delta whose base never arrived
            # (e.g. its own part was refused): unusable, so quarantined —
            # the archive's chain stays hole-free.
            self._record_quarantine(QuarantinedShipment(
                machine=source, reason=f"undecodable snapshot: {exc}"))

    # -- quarantine persistence ----------------------------------------------

    def _record_quarantine(self, shipment: QuarantinedShipment) -> None:
        """Remember a refused shipment, durably: the line is fsynced before
        this returns, so a crash cannot forget the refusal."""
        self.quarantine.append(shipment)
        # (after a torn last line — a crash inside this write — start afresh)
        line = "\n" * self._torn_tail + json.dumps(
            shipment.to_dict(), sort_keys=True) + "\n"
        self._torn_tail = False
        created = not self._quarantine_path.exists()
        write_durably(self._quarantine_path, line.encode("utf-8"), created)
        if created:
            fsync_directory(self._quarantine_path.parent)

    def _load_quarantine(self) -> List[QuarantinedShipment]:
        """Reload quarantine records persisted by a previous incarnation."""
        self._torn_tail = False
        if not self._quarantine_path.exists():
            return []
        records: List[QuarantinedShipment] = []
        text = self._quarantine_path.read_text("utf-8", errors="replace")
        self._torn_tail = not text.endswith("\n")
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                records.append(QuarantinedShipment.from_dict(json.loads(line)))
            except (json.JSONDecodeError, ValueError, TypeError):
                continue  # a torn tail write loses one record, not the file
        return records

    def quarantined_machines(self) -> List[str]:
        """Machines with at least one quarantined shipment."""
        return sorted({shipment.machine for shipment in self.quarantine})

    def quarantine_for(self, machine: str) -> List[QuarantinedShipment]:
        return [shipment for shipment in self.quarantine
                if shipment.machine == machine]

    # -- direct ingestion (network-free path, also used by the handlers) -----

    def ingest_segment(self, segment: LogSegment,
                       sealed_by_snapshot: Optional[int] = None, *,
                       wire: Optional[bytes] = None) -> bool:
        """Archive one sealed segment (``wire``: the shipment it was decoded
        from, if any); returns ``False`` if quarantined."""
        try:
            record = self.archive.append_segment(
                segment, sealed_by_snapshot=sealed_by_snapshot, wire=wire)
        except (HashChainError, StoreError) as exc:
            self.stats.segments_rejected += 1
            first = segment.entries[0].sequence if segment.entries else 0
            last = segment.entries[-1].sequence if segment.entries else 0
            self._record_quarantine(QuarantinedShipment(
                machine=segment.machine, reason=str(exc),
                first_sequence=first, last_sequence=last))
            return False
        self.stats.segments_ingested += 1
        self.stats.entries_ingested += record.entry_count
        self.stats.raw_bytes_ingested += record.raw_bytes
        self.stats.stored_bytes += record.stored_bytes
        self._pending[segment.machine] = self._pending.get(segment.machine, 0) + 1
        return True

    def ingest_authenticators(self, machine, authenticators) -> int:
        """Archive a batch of authenticators issued by ``machine``."""
        record = self.archive.store_authenticators(machine, list(authenticators))
        added = record.count if record is not None else 0
        self.stats.authenticators_ingested += added
        return added

    # -- the audit queue -----------------------------------------------------

    def pending_machines(self) -> List[str]:
        """Machines with archived segments not yet covered by an audit."""
        return sorted(self._pending)

    def pending_segments(self, machine: str) -> int:
        return self._pending.get(machine, 0)

    def target_for(self, machine: str) -> ArchiveBackedMachine:
        """An audit target serving ``machine``'s log from the archive."""
        return ArchiveBackedMachine(self.archive, machine)

    def prepare_auditor(self, auditor: Auditor, machine: str) -> int:
        """Hand the auditor every archived authenticator for ``machine``."""
        return auditor.collect_authenticators(
            machine, self.archive.authenticators_for(machine))

    def audit_machine(self, auditor: Auditor, machine: str) -> AuditResult:
        """Audit one machine straight from the archive.

        The auditor first collects the machine's archived authenticators.
        The audit engine reads the archived log chunk by chunk: a serial
        auditor holds one chunk at a time, an engine-backed one a window of
        two per worker.  A truncated archive is anchored at the retention
        boundary's snapshot, like a spot-check chunk.  Either way the
        machine leaves the pending queue.
        """
        self.prepare_auditor(auditor, machine)
        result = auditor.audit(self.target_for(machine))
        self._pending.pop(machine, None)
        return result

    def assignments(self, make_auditor: Callable[[str], Auditor]
                    ) -> List[AuditAssignment]:
        """Fleet assignments for every pending machine."""
        result = []
        for machine in self.pending_machines():
            auditor = make_auditor(machine)
            self.prepare_auditor(auditor, machine)
            result.append(AuditAssignment(auditor, self.target_for(machine)))
        return result

    def audit_pending(self, make_auditor: Callable[[str], Auditor],
                      engine: Optional[AuditScheduler] = None
                      ) -> Dict[str, AuditResult]:
        """Drain the audit queue in one fleet call (on ``engine``, or one
        inline worker); returns per-machine results.  Truncated archives are
        anchored at their retention boundary like any other start."""
        fleet = self.assignments(make_auditor)
        if not fleet:
            return {}
        results = (engine or AuditScheduler()).audit_fleet(fleet).results
        for machine in results:
            self._pending.pop(machine, None)
        return results


@dataclass
class _IngestReportRow:
    """One machine's line in :func:`format_ingest_report`."""

    machine: str
    segments: int
    entries: int
    stored_bytes: int
    verdict: str = "-"


def format_ingest_report(service: AuditIngestService,
                         results: Optional[Dict[str, AuditResult]] = None) -> str:
    """Human-readable summary of what the service has archived (and decided)."""
    rows: List[_IngestReportRow] = []
    for machine in service.archive.machines():
        records = service.archive.segment_records(machine)
        row = _IngestReportRow(
            machine=machine, segments=len(records),
            entries=sum(record.entry_count for record in records),
            stored_bytes=sum(record.stored_bytes for record in records))
        if results and machine in results:
            row.verdict = results[machine].verdict.value
        rows.append(row)
    lines = [f"{'machine':<16} {'segments':>8} {'entries':>8} "
             f"{'stored':>10} {'verdict':>9}"]
    for row in rows:
        lines.append(f"{row.machine:<16} {row.segments:>8d} {row.entries:>8d} "
                     f"{row.stored_bytes:>9d}B {row.verdict:>9}")
    return "\n".join(lines)
