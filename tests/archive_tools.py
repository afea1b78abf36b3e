"""Test tools for the archive's wire and disk formats.

* :func:`shipment` / :func:`ship` build and deliver ``ARCHIVE_SHIPMENT``
  messages part by part; :class:`World` is two small machines as the
  shipments they send, :func:`summary` what an archive holds, layout aside;
* :func:`rebuild_frame_file`, :func:`replace_payload` and :func:`scribble`
  do to a frame file what someone with write access to the disk could — the
  first two redo every checksum, the last one does not;
* :func:`archived_segments`, :func:`archived_log` and
  :func:`archived_entry_count` read back what an archive holds for a
  machine, whole.
"""

from __future__ import annotations

import zlib
from itertools import groupby
from pathlib import Path

from repro.log.codec import encode_segment
from repro.log.entries import EntryType, snapshot_content
from repro.log.hashchain import ChainCheckpoint
from repro.log.storage import authenticators_to_bytes
from repro.log.tamper_evident import TamperEvidentLog
from repro.network.message import MessageKind, NetworkMessage
from repro.network.shipment import PartKind, ShipmentPart, encode_shipment
from repro.store.archive import LogArchive
from repro.store.manifest import (commit_record, file_header, frame_head,
                                  parse_checkpoint, read_checkpoint,
                                  read_frames)
from repro.service.ingest import AuditIngestService
from repro.service.target import ArchiveBackedMachine
from repro.vm.execution import ExecutionTimestamp
from repro.vm.snapshot import SnapshotManager


# -- reading an archive back whole ------------------------------------------------

def archived_segments(archive, machine):
    """Every retained segment of ``machine``, oldest first."""
    return [archive.read_segment(record)
            for record in archive.segment_records(machine)]


def archived_log(archive, machine):
    """The retained log of ``machine`` as one segment (``StoreError`` if
    there is none): what a log that cannot be chunked is audited from."""
    return ArchiveBackedMachine(archive, machine).get_log_segment()


def archived_entry_count(archive, machine) -> int:
    """Retained log entries of ``machine``, from the index alone."""
    return sum(record.entry_count for record in archive.segment_records(machine))

# -- the wire ---------------------------------------------------------------------


def parts_of(segment=None, sealed_by_snapshot=None, snapshots=(),
             authenticators=None):
    """Shipment parts in the order the monitor sends them."""
    parts = [ShipmentPart(PartKind.SNAPSHOT, blob) for blob in snapshots]
    if segment is not None:
        parts.append(ShipmentPart(PartKind.SEGMENT, segment,
                                  sealed_by_snapshot=sealed_by_snapshot))
    parts += [ShipmentPart(PartKind.AUTHENTICATORS, blob, subject=subject)
              for subject, blob in (authenticators or {}).items()]
    return parts


def shipment(source, destination="audit-ingest", *, parts=None, message_id="",
             **described):
    """An ``ARCHIVE_SHIPMENT`` from ``source`` (``parts``, or what
    :func:`parts_of` makes of the keywords)."""
    return NetworkMessage(
        source=source, destination=destination, message_id=message_id,
        payload=encode_shipment(parts if parts is not None
                                else parts_of(**described)),
        kind=MessageKind.ARCHIVE_SHIPMENT)


def ship(service, source, **described):
    service.on_message(shipment(source, service.identity, **described))


# -- a small two-machine world, as the shipments it sends ---------------------------

MACHINES = ("alpha", "beta")


class World:
    """Two machines, four seals each; every seal is one shipment: the
    snapshot page file (the first a keyframe, the rest deltas), the segment
    it seals, and the authenticators collected from the other machine."""

    SEALS = 4

    def __init__(self):
        self.logs = {machine: TamperEvidentLog(machine) for machine in MACHINES}
        self.states = {machine: {} for machine in MACHINES}
        self.shipments = {machine: [] for machine in MACHINES}
        managers = {machine: SnapshotManager()
                    for machine in MACHINES}
        shipped = {machine: 0 for machine in MACHINES}
        for seal in range(1, self.SEALS + 1):
            for machine, peer in zip(MACHINES, reversed(MACHINES)):
                log, state = self.logs[machine], self.states[machine]
                for step in range(5):
                    log.append(EntryType.TIMETRACKER, {
                        "event_kind": "clock_read", "value": 0.25 * step,
                        "execution_counter": seal * 100 + step,
                        "branch_counter": seal})
                state[f"row-{seal}"] = machine[0] * (40 * seal)
                state["seal"] = seal
                snapshot = managers[machine].take(
                    state, ExecutionTimestamp(seal * 100, seal))
                log.append(EntryType.SNAPSHOT, snapshot_content(
                    snapshot.snapshot_id, snapshot.state_root, seal * 100))
                first = shipped[machine] + 1
                shipped[machine] = len(log)
                peers = self.logs[peer].entries[-3:]
                self.shipments[machine].append(shipment(
                    machine,
                    snapshots=[managers[machine].ship_payload(
                        snapshot.snapshot_id, force_keyframe=seal == 1)],
                    segment=encode_segment(log.segment(first, len(log))),
                    sealed_by_snapshot=snapshot.snapshot_id,
                    authenticators={peer: authenticators_to_bytes(
                        [self.logs[peer].authenticator_for(entry)
                         for entry in peers])} if peers else None))

    def ingest(self, root, seals=SEALS, machines=MACHINES):
        service = AuditIngestService(LogArchive(root))
        for seal in range(seals):
            for machine in machines:
                service.on_message(self.shipments[machine][seal])
        assert not service.quarantine
        return service


def summary(archive):
    """What the archive holds, layout aside."""
    return {machine: {
        "segments": [(r.first_sequence, r.last_sequence, r.end_hash,
                      r.sealed_by_snapshot, r.format_version)
                     for r in archive.segment_records(machine)],
        "snapshots": {
            snapshot_id: archive.load_snapshot(machine, snapshot_id).state
            for snapshot_id in archive.snapshot_store(machine).snapshot_ids()},
        "authenticators": archive.authenticators_for(machine),
        "retained": archive.retained_checkpoint(machine),
    } for machine in archive.machines()}


# -- the disk: frame files ----------------------------------------------------------

def _holder_of(root, record):
    _, files, _ = parse_checkpoint(read_checkpoint(root))
    return next(holder for holder, name in files.items()
                if name == record.file_name)


def rebuild_frame_file(root, holder, transform):
    """Rewrite ``holder``'s frame file in place, every checksum redone.

    ``transform(record, payload)`` returns the ``(record, payload)`` to
    write in its stead, or ``None`` to drop the frame (a group left with no
    frame is dropped whole)."""
    root = Path(root)
    _, files, retained = parse_checkpoint(read_checkpoint(root))
    anchor = retained.get(holder, ChainCheckpoint.genesis()).chain_hash
    records, _, _ = read_frames(root, files[holder], holder, anchor)
    raw = (root / files[holder]).read_bytes()
    data = bytearray(file_header(holder))
    seed = zlib.crc32(data)
    for number, members in groupby(records, key=lambda record: record.commit):
        crc, frames = seed, 0
        for record in members:
            kept = transform(
                record, raw[record.offset:record.offset + record.stored_bytes])
            if kept is not None:
                head = frame_head(*kept)
                data += head + kept[1]
                crc, frames = zlib.crc32(head, crc), frames + 1
        if frames:
            data += commit_record(frames, number, crc)
    (root / files[holder]).write_bytes(bytes(data))


def replace_payload(root, record, payload, **header_fields):
    """Give ``record``'s frame another payload (and header fields), validly:
    what an attacker who can write the file — and knows the format — does."""
    from dataclasses import replace
    rebuild_frame_file(
        root, _holder_of(root, record),
        lambda found, stored: (replace(found, **header_fields), payload)
        if found.offset == record.offset else (found, stored))


def scribble(root, record, data, at=0):
    """Overwrite bytes of ``record``'s stored payload in place — nothing
    else: the frame's checksum is left as it was."""
    path = Path(root) / record.file_name
    raw = bytearray(path.read_bytes())
    assert at + len(data) <= record.stored_bytes
    raw[record.offset + at:record.offset + at + len(data)] = data
    path.write_bytes(bytes(raw))
