"""Test tools for the archive's wire and disk formats.

* :func:`shipment` / :func:`ship` build and deliver ``ARCHIVE_SHIPMENT``
  messages part by part; :class:`World` is two small machines as the
  shipments they send, :func:`summary` what an archive holds, layout aside;
* :func:`rebuild_frame_file`, :func:`replace_payload` and :func:`scribble`
  do to a frame file what someone with write access to the disk could — the
  first two redo every checksum, the last one does not;
* :func:`write_legacy_layout` turns a freshly recorded archive into the
  per-record files of an earlier format — the deleted writers, kept here as
  the reference.
"""

from __future__ import annotations

import bz2
import json
import zlib
from itertools import groupby
from pathlib import Path

from repro.log.codec import encode_segment
from repro.log.entries import EntryType, snapshot_content
from repro.log.hashchain import ChainCheckpoint
from repro.log.storage import authenticators_from_bytes, authenticators_to_bytes
from repro.log.tamper_evident import TamperEvidentLog
from repro.network.message import MessageKind, NetworkMessage
from repro.network.shipment import PartKind, ShipmentPart, encode_shipment
from repro.store.archive import LogArchive
from repro.store.manifest import (JOURNAL_NAME, MANIFEST_NAME, commit_record,
                                  file_header, frame_head, parse_checkpoint,
                                  read_checkpoint, read_frames)
from repro.service.ingest import AuditIngestService
from repro.vm.execution import ExecutionTimestamp
from repro.vm.snapshot import (IncrementalSnapshot, SnapshotManager,
                               serialize_state)

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
        managers = {machine: SnapshotManager(page_size=64, keyframe_interval=16)
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


# -- the disk: the layouts of earlier formats ---------------------------------------

def _journal_line(record):
    body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    return b"%08x %s\n" % (zlib.crc32(body), body)


def write_legacy_layout(root, journal=False, packed=True):
    """Rewrite the frame-file archive under ``root``, in place, as one data
    file per record: under an indented format-1 manifest, or
    (``journal=True``) an empty format-2 checkpoint and the journal of its
    commits.  ``packed=False`` also takes snapshots and authenticator
    batches back to the forms before the packed ones — hex-in-JSON snapshot
    files, JSON-lines batches under bz2."""
    root = Path(root)
    archive = LogArchive(root)
    _, files, retained = parse_checkpoint(read_checkpoint(root))
    directories = {holder: name.split("/")[0] for holder, name in files.items()}
    segments, snapshots, batches = [], [], []
    for record in sorted(archive._all_records(),  # noqa: SLF001
                         key=lambda record: (record.commit, record.offset)):
        data = archive.stored_bytes_of(record)
        directory = directories.get(record.machine, record.machine)
        stored = {"machine": record.machine}
        if hasattr(record, "first_sequence"):
            name = (f"segment-{record.first_sequence:08d}-"
                    f"{record.last_sequence:08d}.avmlog"
                    f"{'?zbt'[record.format_version]}")
            stored.update(
                first_sequence=record.first_sequence,
                last_sequence=record.last_sequence,
                start_hash=record.start_hash.hex(),
                end_hash=record.end_hash.hex(),
                entry_count=record.entry_count, raw_bytes=record.raw_bytes,
                stored_bytes=len(data),
                sealed_by_snapshot=record.sealed_by_snapshot,
                format_version=record.format_version)
            segments.append(("segment", stored))
        elif hasattr(record, "snapshot_id"):
            name = f"snapshot-{record.snapshot_id:06d}.avmsnap"
            stored.update(
                snapshot_id=record.snapshot_id,
                state_root=record.state_root.hex(),
                transfer_bytes=record.transfer_bytes,
                execution=record.execution, kind=record.kind,
                base_snapshot_id=record.base_snapshot_id,
                page_count=record.page_count, page_size=record.page_size)
            if not packed:
                name = name.replace(".avmsnap", ".json")
                data = _json_snapshot(stored, data)
            snapshots.append(("snapshot", stored))
        else:
            name = f"auths-{len(batches) + 1:06d}.avmauth"
            stored.update(count=record.count, min_sequence=record.min_sequence,
                          max_sequence=record.max_sequence)
            if not packed:
                name = name.replace(".avmauth", ".jsonl.bz2")
                data = _json_lines_batch(data)
            batches.append(("auth_batch", stored))
        stored["file"] = f"{directory}/{name}"
        (root / directory).mkdir(exist_ok=True)
        (root / stored["file"]).write_bytes(data)
    for name in files.values():
        (root / name).unlink()
    records = segments + snapshots + batches
    manifest = {
        "format_version": 2 if journal else 1, "kind": "avm_log_archive",
        "segments": [], "auth_batches": [], "snapshots": [],
        "retained": {machine: {"sequence": checkpoint.sequence,
                               "chain_hash": checkpoint.chain_hash.hex()}
                     for machine, checkpoint in retained.items()}}
    if journal:
        manifest["generation"] = 1
        (root / JOURNAL_NAME).write_bytes(
            _journal_line({"generation": 1}) + b"".join(
                _journal_line({kind: stored}) for kind, stored in records))
    else:
        for kind, stored in records:
            manifest[kind + ("es" if kind == "auth_batch" else "s")].append(stored)
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=None if journal else 1, sort_keys=True))


def _json_snapshot(stored, page_file):
    snapshot = IncrementalSnapshot.from_bytes(page_file)
    common = {key: stored[key] for key in (
        "machine", "snapshot_id", "state_root", "transfer_bytes", "execution")}
    if snapshot.base_snapshot_id is None:
        pages = [snapshot.changed_pages[i] for i in range(snapshot.page_count)]
        payload = {**common, "kind": "keyframe",
                   "state": json.loads(b"".join(pages))}
    else:
        payload = {**common, "kind": "delta",
                   "base_snapshot_id": snapshot.base_snapshot_id,
                   "page_count": snapshot.page_count,
                   "changed_pages": {
                       str(index): page.hex() for index, page
                       in sorted(snapshot.changed_pages.items())}}
    return serialize_state(payload)


def _json_lines_batch(packed_batch):
    lines = ['{"format_version": 1, "kind": "authenticators"}']
    for auth in authenticators_from_bytes(packed_batch):
        row = auth.to_dict()
        if auth.is_consistent():
            del row["chain_hash"]
        lines.append(json.dumps(row, sort_keys=True))
    return bz2.compress(("\n".join(lines) + "\n").encode())
