"""The archive manifest: the durable index of everything the archive holds.

The manifest is the single source of truth for the on-disk archive.  Data
files (compressed segments, authenticator batches, snapshots) are written
first, to temporary names, and renamed into place; only then is the manifest
rewritten — atomically, via a temporary file and :func:`os.replace` — to
reference them.  A crash between the two steps therefore leaves at worst an
*orphan* data file that no manifest references, and recovery simply discards
it: the archive never observes a manifest entry whose data is missing unless
the disk itself was corrupted.

Per-segment records carry the sequence range and the chain hashes at both
ends, so recovery can prove that a machine's archived segments tile into one
unbroken hash chain *without decompressing a single data file* — and range
lookups can binary-search the index instead of scanning files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ArchiveIntegrityError
from repro.log.codec import require_format_version
from repro.log.hashchain import ChainCheckpoint

MANIFEST_FORMAT_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"


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


@dataclass
class Manifest:
    """Everything the archive knows, in manifest (JSON) form."""

    segments: List[SegmentRecord] = field(default_factory=list)
    auth_batches: List[AuthBatchRecord] = field(default_factory=list)
    snapshots: List[SnapshotRecord] = field(default_factory=list)
    #: per machine, the checkpoint the log was truncated to (Section 4.2);
    #: entries at or below this sequence have been garbage-collected
    retained: Dict[str, ChainCheckpoint] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format_version": MANIFEST_FORMAT_VERSION,
            "kind": "avm_log_archive",
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
                               supported=(MANIFEST_FORMAT_VERSION,))
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
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ArchiveIntegrityError(f"malformed manifest: {exc}") from exc

    # -- persistence ---------------------------------------------------------

    def write(self, root: Union[str, Path]) -> Path:
        """Atomically (re)write the manifest under ``root``."""
        root = Path(root)
        path = root / MANIFEST_NAME
        # Compact, so the C encoder does it: the manifest is rewritten at
        # every commit, and ``indent`` would force json's pure-Python path.
        data = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return atomic_write(path, data)

    @staticmethod
    def load(root: Union[str, Path]) -> "Manifest":
        """Load the manifest under ``root`` (empty archive if none exists)."""
        path = Path(root) / MANIFEST_NAME
        if not path.exists():
            return Manifest()
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ArchiveIntegrityError(f"corrupt manifest at {path}: {exc}") from exc
        return Manifest.from_dict(data)


def atomic_write(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` via a temporary file + rename.

    The rename is atomic on POSIX, so readers (and crash recovery) only ever
    see the old file or the complete new one — never a torn write.
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
