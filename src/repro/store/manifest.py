"""The archive manifest: the durable index of everything the archive holds.

The manifest is the single source of truth for the on-disk archive, kept as
a *checkpoint* (``MANIFEST.json``) plus an append-only *journal*
(``MANIFEST.journal``) of the records committed since.  Data files
(segments, authenticator batches, snapshots) are written first, to temporary
names, fsynced and renamed into place; only then does :meth:`Manifest.commit`
append one checksummed line to the journal and fsync it — O(1) bytes per
commit.  A crash between the two steps leaves at worst an *orphan* data file
that no record references, or a torn last journal line, and recovery simply
discards both.  The rare whole-index rewrites (GC, shard handoff) write a
new checkpoint of the next *generation* and unlink the journal, whose first
line names the generation it extends — so a crash between those two steps
leaves a stale journal that the next open ignores and sweeps.

Per-segment records carry the sequence range and the chain hashes at both
ends, so recovery can prove that a machine's archived segments tile into one
unbroken hash chain *without decompressing a single data file* — and range
lookups can binary-search the index instead of scanning files.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ArchiveIntegrityError
from repro.log.codec import _dump_compact, require_format_version
from repro.log.hashchain import ChainCheckpoint

#: 2 = a journal may extend the checkpoint; a reader that knows only 1 would
#: miss the journaled records and sweep their files, so it must refuse
MANIFEST_FORMAT_VERSION = 2
MANIFEST_NAME = "MANIFEST.json"
JOURNAL_NAME = "MANIFEST.journal"


@dataclass(frozen=True)
class SegmentRecord:
    """Index entry for one archived log segment."""

    machine: str
    file_name: str
    first_sequence: int
    last_sequence: int
    start_hash: bytes
    end_hash: bytes
    entry_count: int
    raw_bytes: int
    stored_bytes: int
    #: id of the snapshot whose SNAPSHOT entry seals this segment, or None
    #: for the tail segment shipped after the last snapshot
    sealed_by_snapshot: Optional[int] = None
    #: wire format the segment file is stored in (a codec registry version)
    format_version: int = 1

    def covers(self, sequence: int) -> bool:
        return self.first_sequence <= sequence <= self.last_sequence

    def end_checkpoint(self) -> ChainCheckpoint:
        return ChainCheckpoint(sequence=self.last_sequence, chain_hash=self.end_hash)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "machine": self.machine,
            "file": self.file_name,
            "first_sequence": self.first_sequence,
            "last_sequence": self.last_sequence,
            "start_hash": self.start_hash.hex(),
            "end_hash": self.end_hash.hex(),
            "entry_count": self.entry_count,
            "raw_bytes": self.raw_bytes,
            "stored_bytes": self.stored_bytes,
            "sealed_by_snapshot": self.sealed_by_snapshot,
            "format_version": self.format_version,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "SegmentRecord":
        # Routed through the codec registry (outside the try: an unknown
        # wire format is a LogFormatError, not a malformed record).
        format_version = require_format_version(
            data.get("format_version", 1) if isinstance(data, dict) else 1,
            what="archived segment")
        try:
            sealed = data.get("sealed_by_snapshot")
            return SegmentRecord(
                machine=str(data["machine"]),
                file_name=str(data["file"]),
                first_sequence=int(data["first_sequence"]),
                last_sequence=int(data["last_sequence"]),
                start_hash=bytes.fromhex(data["start_hash"]),
                end_hash=bytes.fromhex(data["end_hash"]),
                entry_count=int(data["entry_count"]),
                raw_bytes=int(data["raw_bytes"]),
                stored_bytes=int(data["stored_bytes"]),
                sealed_by_snapshot=int(sealed) if sealed is not None else None,
                format_version=format_version,
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ArchiveIntegrityError(f"malformed segment record: {exc}") from exc


@dataclass(frozen=True)
class AuthBatchRecord:
    """Index entry for one archived batch of authenticators.

    Batches arrive from the fleet in shipment order and are replayed in the
    same order, so the concatenation of the retained batches reproduces the
    collector's authenticator list exactly.
    """

    machine: str
    file_name: str
    count: int
    min_sequence: int
    max_sequence: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "machine": self.machine,
            "file": self.file_name,
            "count": self.count,
            "min_sequence": self.min_sequence,
            "max_sequence": self.max_sequence,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "AuthBatchRecord":
        try:
            return AuthBatchRecord(
                machine=str(data["machine"]),
                file_name=str(data["file"]),
                count=int(data["count"]),
                min_sequence=int(data["min_sequence"]),
                max_sequence=int(data["max_sequence"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ArchiveIntegrityError(f"malformed auth batch record: {exc}") from exc


@dataclass(frozen=True)
class SnapshotRecord:
    """Index entry for one archived snapshot (replay start for a chunk).

    Snapshots are archived the way Section 4.4 ships them: periodic
    *keyframes* carry the full serialised state, everything in between is a
    *delta* — the pages changed since ``base_snapshot_id`` — and the archive
    re-materialises full state on demand by replaying the chain.
    """

    machine: str
    snapshot_id: int
    file_name: str
    state_root: bytes
    #: download cost an auditor pays to start replay here, as reported by the
    #: source machine's snapshot manager — stored verbatim so archive-backed
    #: audits charge exactly what in-memory audits charge
    transfer_bytes: int
    execution: Dict[str, int] = field(default_factory=dict)
    #: "keyframe" (full state) or "delta" (changed pages over the base)
    kind: str = "keyframe"
    #: the snapshot a delta applies on top of (``None`` for keyframes)
    base_snapshot_id: Optional[int] = None
    #: page geometry of the source manager (0 = unknown, legacy record)
    page_count: int = 0
    page_size: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "machine": self.machine,
            "snapshot_id": self.snapshot_id,
            "file": self.file_name,
            "state_root": self.state_root.hex(),
            "transfer_bytes": self.transfer_bytes,
            "execution": self.execution,
            "kind": self.kind,
            "base_snapshot_id": self.base_snapshot_id,
            "page_count": self.page_count,
            "page_size": self.page_size,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "SnapshotRecord":
        try:
            kind = str(data.get("kind", "keyframe"))
            if kind not in ("keyframe", "delta"):
                raise ValueError(f"unknown snapshot kind {kind!r}")
            base = data.get("base_snapshot_id")
            return SnapshotRecord(
                machine=str(data["machine"]),
                snapshot_id=int(data["snapshot_id"]),
                file_name=str(data["file"]),
                state_root=bytes.fromhex(data["state_root"]),
                transfer_bytes=int(data["transfer_bytes"]),
                execution=dict(data.get("execution", {})),
                kind=kind,
                base_snapshot_id=int(base) if base is not None else None,
                page_count=int(data.get("page_count", 0)),
                page_size=int(data.get("page_size", 0)),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ArchiveIntegrityError(f"malformed snapshot record: {exc}") from exc


def _journal_line(record: Dict[str, Any]) -> bytes:
    body = _dump_compact(record)
    return b"%08x %s\n" % (zlib.crc32(body), body)


def _parse_journal_line(line: bytes) -> Optional[Dict[str, Any]]:
    """The record of one (newline-stripped) journal line, ``None`` if it is
    not exactly what :func:`_journal_line` writes."""
    try:
        if line[8:9] != b" " or int(line[:8], 16) != zlib.crc32(line[9:]):
            return None
        record = json.loads(line[9:])
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


#: journal record kind -> (record class, the Manifest list it extends)
_JOURNALED = {"segment": (SegmentRecord, "segments"),
              "auth_batch": (AuthBatchRecord, "auth_batches"),
              "snapshot": (SnapshotRecord, "snapshots")}


@dataclass
class Manifest:
    """Everything the archive knows, in manifest (JSON) form."""

    segments: List[SegmentRecord] = field(default_factory=list)
    auth_batches: List[AuthBatchRecord] = field(default_factory=list)
    snapshots: List[SnapshotRecord] = field(default_factory=list)
    #: per machine, the checkpoint the log was truncated to (Section 4.2);
    #: entries at or below this sequence have been garbage-collected
    retained: Dict[str, ChainCheckpoint] = field(default_factory=dict)
    #: generation of the on-disk checkpoint this state extends; 0: there is
    #: none a journal could extend (a new archive, or one written before the
    #: journal) and the first commit writes it
    generation: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format_version": MANIFEST_FORMAT_VERSION,
            "kind": "avm_log_archive",
            "generation": self.generation,
            "segments": [record.to_dict() for record in self.segments],
            "auth_batches": [record.to_dict() for record in self.auth_batches],
            "snapshots": [record.to_dict() for record in self.snapshots],
            "retained": {machine: {"sequence": checkpoint.sequence,
                                   "chain_hash": checkpoint.chain_hash.hex()}
                         for machine, checkpoint in sorted(self.retained.items())},
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Manifest":
        if not isinstance(data, dict) or data.get("kind") != "avm_log_archive":
            kind = data.get("kind") if isinstance(data, dict) else None
            raise ArchiveIntegrityError(f"not an archive manifest: kind={kind!r}")
        # The manifest has its own version space (it indexes archives, it is
        # not a wire codec), but the check routes through the codec layer's
        # single helper so every unsupported-version failure in the repo is
        # one well-typed LogFormatError.
        require_format_version(data.get("format_version"), what="manifest",
                               supported=(1, MANIFEST_FORMAT_VERSION))
        try:
            retained = {
                str(machine): ChainCheckpoint(
                    sequence=int(checkpoint["sequence"]),
                    chain_hash=bytes.fromhex(checkpoint["chain_hash"]))
                for machine, checkpoint in dict(data.get("retained", {})).items()}
            return Manifest(
                segments=[SegmentRecord.from_dict(record)
                          for record in data.get("segments", [])],
                auth_batches=[AuthBatchRecord.from_dict(record)
                              for record in data.get("auth_batches", [])],
                snapshots=[SnapshotRecord.from_dict(record)
                           for record in data.get("snapshots", [])],
                retained=retained,
                generation=int(data.get("generation", 0)),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ArchiveIntegrityError(f"malformed manifest: {exc}") from exc

    # -- persistence ---------------------------------------------------------

    def commit(self, root: Union[str, Path], kind: str, record) -> None:
        """Add one record to the index, durably: one journal line, one fsync.

        The record's data file must already be durable.  The commit is on
        disk when this returns; a crash inside it leaves a torn last line,
        which :meth:`load` drops (the data file is then an orphan).
        """
        root = Path(root)
        if not self.generation:
            self.checkpoint(root)
        line = _journal_line({kind: record.to_dict()})
        # A journal on disk is this generation's: load and checkpoint leave
        # no other behind.
        created = not (root / JOURNAL_NAME).exists()
        if created:
            line = _journal_line({"generation": self.generation}) + line
        with open(root / JOURNAL_NAME, "ab") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        if created:
            fsync_directory(root)
        getattr(self, _JOURNALED[kind][1]).append(record)

    def checkpoint(self, root: Union[str, Path]) -> None:
        """Write the whole index as the next generation's checkpoint.

        What a rewrite that is not an append needs (GC, handoff), and what
        opens a journal's generation.  The journal of the generation before
        is unlinked only once the checkpoint that absorbed it is durable.
        """
        root = Path(root)
        self.generation += 1
        atomic_write(root / MANIFEST_NAME, _dump_compact(self.to_dict()))
        fsync_directory(root)
        (root / JOURNAL_NAME).unlink(missing_ok=True)

    @staticmethod
    def load(root: Union[str, Path]) -> Tuple["Manifest", List[str]]:
        """Load the checkpoint under ``root`` and replay its journal.

        Returns the manifest (empty if there is no archive yet) and the
        names swept: a journal of another generation, or one whose very
        first line is torn, extends nothing and is unlinked.  A torn *last*
        line is cut off (its commit never returned); damage before the last
        line raises :class:`ArchiveIntegrityError` and deletes nothing.
        """
        root = Path(root)
        path = root / MANIFEST_NAME
        manifest = Manifest()
        if path.exists():
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ArchiveIntegrityError(
                    f"corrupt manifest at {path}: {exc}") from exc
            manifest = Manifest.from_dict(data)
        journal = root / JOURNAL_NAME
        if not journal.exists():
            return manifest, []
        raw = journal.read_bytes()
        lines = raw.split(b"\n")
        torn = len(lines.pop())  # bytes after the last newline: a cut line
        records = [_parse_journal_line(line) for line in lines]
        if not torn and records and records[-1] is None:
            # a whole last line that fails its checksum is a torn write too
            torn = len(lines[-1]) + 1
            records.pop()
        if not records:
            journal.unlink()  # torn inside its first line: extends nothing
            return manifest, [JOURNAL_NAME]
        generation = (records[0] or {}).get("generation")
        if not isinstance(generation, int) or generation > manifest.generation:
            raise ArchiveIntegrityError(
                f"journal {journal} does not extend its checkpoint "
                f"(generation {manifest.generation}): first line "
                f"{lines[0][:60]!r}")
        if generation < manifest.generation:
            journal.unlink()  # absorbed by the checkpoint written after it
            return manifest, [JOURNAL_NAME]
        for number, record in enumerate(records[1:], start=2):
            try:
                (kind, body), = record.items()
                record_class, attribute = _JOURNALED[kind]
            except (AttributeError, KeyError, ValueError):
                raise ArchiveIntegrityError(
                    f"journal {journal} is damaged at line {number} (of "
                    f"{len(records)}): {lines[number - 1][:60]!r}") from None
            getattr(manifest, attribute).append(record_class.from_dict(body))
        if torn:
            os.truncate(journal, len(raw) - torn)
        return manifest, []


def fsync_directory(path: Union[str, Path]) -> None:
    """Make the names just created or renamed inside ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` via a temporary file + rename.

    The rename is atomic on POSIX, so readers (and crash recovery) only ever
    see the old file or the complete new one — never a torn write.  The
    rename itself is durable once the directory is fsynced
    (:func:`fsync_directory`), which the caller does where a name is new.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path
