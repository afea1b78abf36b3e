"""Readers for archives written before the frame file — read, never written.

Such an archive is one data file per record (a segment, a packed or
JSON-lines-under-bzip2 authenticator batch, a page-file or hex-in-JSON
snapshot), indexed by a format-1 ``MANIFEST.json`` listing every record, or
by a format-2 checkpoint plus the ``MANIFEST.journal`` of the commits since.
:class:`~repro.store.archive.LogArchive` opens one read-only — every record
an index record whose payload is its whole data file — and rewrites it into
frame files on its first mutation (docs/log-archive.md).  The day per-record
archives stop being supported, this module is what goes.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.errors import ArchiveIntegrityError
from repro.log.codec import require_format_version
from repro.log.hashchain import ChainCheckpoint
from repro.store.manifest import (JOURNAL_NAME, AuthBatchRecord, SegmentRecord,
                                  SnapshotRecord, _retained_from)
from repro.vm.execution import ExecutionTimestamp
from repro.vm.snapshot import (PAGE_SIZE, IncrementalSnapshot, paginate,
                               serialize_state)

#: record kind -> (class, its list in the manifest)
_LEGACY = {"segment": (SegmentRecord, "segments"),
           "auth_batch": (AuthBatchRecord, "auth_batches"),
           "snapshot": (SnapshotRecord, "snapshots")}


def _legacy_record(kind: str, data: Dict[str, Any]):
    """One record of a format-1 / -2 manifest or journal: it names the data
    file that is its payload, whole (``checksum`` stays ``None``); keys no
    field answers to (a snapshot's ``kind``, retired ones) are ignored."""
    record_class = _LEGACY[kind][0]
    try:
        values = {field.name: data[field.name] for field in fields(record_class)
                  if data.get(field.name) is not None}
        values.update(machine=str(data["machine"]), file_name=str(data["file"]))
        for name in {"start_hash", "end_hash", "state_root"} & values.keys():
            values[name] = bytes.fromhex(values[name])
        if kind == "segment":  # (an unknown wire format is a LogFormatError)
            values["format_version"] = require_format_version(
                values.get("format_version", 1), what="archived segment")
        return record_class(**values)
    except (AttributeError, KeyError, ValueError, TypeError) as exc:
        raise ArchiveIntegrityError(f"malformed {kind} record: {exc}") from exc


def read_legacy_index(root: Path, data: Dict[str, Any]) -> Tuple[
        List[Any], Dict[str, ChainCheckpoint]]:
    """The records and retention anchors of a format-1 / -2 archive: those
    of checkpoint ``data`` and of ``MANIFEST.journal`` (one ``crc32 {kind:
    record}`` line per commit, after a first line naming the generation it
    extends), if one of its generation is there.  Reads only: a torn last
    line (its commit never returned) and a journal of an older generation
    are ignored; damage before the last line is refused."""
    try:
        retained = {str(machine): _retained_from(checkpoint) for machine,
                    checkpoint in dict(data.get("retained", {})).items()}
        generation = int(data.get("generation", 0))
    except (KeyError, ValueError, TypeError) as exc:
        raise ArchiveIntegrityError(f"malformed manifest: {exc}") from exc
    records = [_legacy_record(kind, body) for kind, spec in _LEGACY.items()
               for body in data.get(spec[1], [])]
    journal = Path(root) / JOURNAL_NAME
    lines = journal.read_bytes().split(b"\n")[:-1] if journal.exists() else []
    parsed = []
    for line in lines:
        try:
            entry = json.loads(line[9:]) if line[8:9] == b" " and int(
                line[:8], 16) == zlib.crc32(line[9:]) else None
        except ValueError:
            entry = None
        parsed.append(entry if isinstance(entry, dict) else None)
    if parsed and parsed[-1] is None:
        parsed.pop()  # whole, but fails its checksum: a torn write too
    if not parsed:
        return records, retained  # none, or torn inside its first line
    extends = (parsed[0] or {}).get("generation")
    if not isinstance(extends, int) or extends > generation:
        raise ArchiveIntegrityError(
            f"journal {journal} does not extend its checkpoint (generation "
            f"{generation}): first line {lines[0][:60]!r}")
    if extends == generation:  # else: absorbed by the checkpoint after it
        for number, entry in enumerate(parsed[1:], start=2):
            try:
                (kind, body), = entry.items()
                _LEGACY[kind]
            except (AttributeError, KeyError, ValueError):
                raise ArchiveIntegrityError(
                    f"journal {journal} is damaged at line {number} (of "
                    f"{len(parsed)}): {lines[number - 1][:60]!r}") from None
            records.append(_legacy_record(kind, body))
    return records, retained


def legacy_json_snapshot(record: SnapshotRecord,
                          data: bytes) -> IncrementalSnapshot:
    """A snapshot file from before the page file (``.json``): a keyframe is
    its raw state, a delta its changed pages as hex.  Read from the archive's
    own disk, never from a shipment, so — like the bzip2 batches of
    :meth:`LogArchive._read_auth_batch` — it is not bounded."""
    payload = json.loads(data.decode("utf-8"))
    page_size = record.page_size or PAGE_SIZE
    if record.kind == "delta":
        if payload.get("kind") != "delta":
            raise ValueError(f"expected a delta, found {payload.get('kind')!r}")
        changed = {int(index): bytes.fromhex(page)
                   for index, page in dict(payload["changed_pages"]).items()}
        page_count = int(payload["page_count"])
    else:
        changed = dict(enumerate(paginate(
            serialize_state(dict(payload["state"])), page_size)))
        page_count = len(changed)
    return IncrementalSnapshot(
        snapshot_id=record.snapshot_id,
        execution=ExecutionTimestamp.from_dict(record.execution),
        base_snapshot_id=record.base_snapshot_id, changed_pages=changed,
        page_count=page_count, state_root=record.state_root,
        page_size=page_size, transfer_bytes=record.transfer_bytes)
