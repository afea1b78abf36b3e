"""The archive's on-disk formats: the frame file and the checkpoint.

A machine's archive is **one append-only file per generation**
(``<machine>/frames-<generation>.avmf``): a header naming the machine, then
*groups* — the frames of one shipment closed by a commit record.  A frame is
a packed header that *is* the index record (:class:`SegmentRecord`,
:class:`SnapshotRecord`, :class:`AuthBatchRecord` — no file name, no machine
name, no hex) followed by the payload as shipped; the commit record carries
the group's number, its frame count and a checksum over its frame headers,
each of which carries its payload's.  A group is one ``write`` and one
``os.fsync`` (:func:`write_durably`) and is visible only once its commit
record is: :func:`read_frames` walks the headers without reading a payload,
stops at the first byte that is not a committed group, and tells a torn tail
(no later commit record: the caller cuts it) from damage (refused).

``MANIFEST.json`` is the rarely written *checkpoint* — generation, each
machine's current frame file and retention anchor (:func:`write_checkpoint`)
— replaced atomically (:func:`atomic_write`) when a machine is created and
when frames are rewritten into the next generation (GC).  A
checkpoint of any other format — the per-record archives of formats 1 and 2
— is refused, typed, before anything on disk is touched (docs/log-archive.md).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ArchiveIntegrityError, LogFormatError
from repro.log.codec import _dump_compact, require_format_version
from repro.log.hashchain import ChainCheckpoint
from repro.log.storage import _put_bytes, _put_varint, _Reader

#: 3 = frame files; a reader that knows only 1 or 2 would find no records
#: and sweep the frame files, so it must refuse — as this one refuses them
MANIFEST_FORMAT_VERSION = 3
MANIFEST_NAME = "MANIFEST.json"
FRAMES_MAGIC = b"AVMFRAM1"
#: every frame: kind, header length, payload length, payload crc32
_PREFIX = struct.Struct("<BHII")
#: a commit record: 0, frames in the group, group number, crc32 of the
#: group's prefixes and headers (seeded with the file header's), crc32 of
#: this record up to here
_COMMIT = struct.Struct("<BHQII")
COMMIT_SIZE = _COMMIT.size
#: a bound, not an option: no frame header is longer
MAX_FRAME_HEADER = 1024


@dataclass(frozen=True)
class _Stored:
    """What every index record says about its payload's place on disk."""

    machine: str
    #: the file holding the payload (relative to the archive root), where
    #: it starts, and its crc32
    file_name: str = field(default="", kw_only=True)
    offset: int = field(default=0, kw_only=True)
    stored_bytes: int = field(default=0, kw_only=True)
    checksum: int = field(default=0, kw_only=True)
    #: number of the group that committed it (archive-wide arrival order)
    commit: int = field(default=0, kw_only=True)

    def label(self) -> str:
        return f"{self.file_name}@{self.offset}"


@dataclass(frozen=True)
class SegmentRecord(_Stored):
    """Index entry for one archived log segment."""

    first_sequence: int
    last_sequence: int
    start_hash: bytes
    end_hash: bytes
    entry_count: int
    raw_bytes: int
    #: id of the snapshot whose SNAPSHOT entry seals this segment, or None
    #: for the tail segment shipped after the last snapshot
    sealed_by_snapshot: Optional[int] = None
    #: wire format the payload is stored in (a codec registry version)
    format_version: int = 1

    def covers(self, sequence: int) -> bool:
        return self.first_sequence <= sequence <= self.last_sequence

    def end_checkpoint(self) -> ChainCheckpoint:
        return ChainCheckpoint(sequence=self.last_sequence, chain_hash=self.end_hash)

    def header(self) -> bytes:
        """Packed; ``start_hash`` is the end hash of the segment before (the
        retention anchor for the first) and is not stored."""
        out = bytearray([self.format_version])
        sealed = self.sealed_by_snapshot
        for value in (self.first_sequence, self.entry_count, self.raw_bytes,
                      0 if sealed is None else sealed + 1):
            _put_varint(out, value)
        _put_bytes(out, self.end_hash)
        return bytes(out)

    @staticmethod
    def parse(reader: _Reader, start_hash: bytes, **stored) -> "SegmentRecord":
        format_version = require_format_version(reader.byte(),
                                                what="archived segment")
        first, count, raw, sealed = (reader.varint() for _ in range(4))
        if not count:
            raise LogFormatError("a segment frame of no entries")
        return SegmentRecord(
            first_sequence=first, last_sequence=first + count - 1,
            start_hash=start_hash, end_hash=reader.bytes(), entry_count=count,
            raw_bytes=raw, sealed_by_snapshot=sealed - 1 if sealed else None,
            format_version=format_version, **stored)



@dataclass(frozen=True)
class AuthBatchRecord(_Stored):
    """Index entry for one archived batch of authenticators ``machine``
    issued (its *subject*; the frame sits in the file of whoever shipped it).

    Batches are replayed in arrival order — ``(commit, offset)`` — so the
    concatenation of the retained batches reproduces the collectors'
    authenticator lists exactly.
    """

    count: int
    min_sequence: int
    max_sequence: int

    def header(self) -> bytes:
        out = bytearray()
        _put_bytes(out, self.machine.encode("utf-8"))
        for value in (self.count, self.min_sequence, self.max_sequence):
            _put_varint(out, value)
        return bytes(out)

    @staticmethod
    def parse(reader: _Reader, **stored) -> "AuthBatchRecord":
        try:
            stored["machine"] = reader.bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LogFormatError(f"batch subject is not UTF-8: {exc}") from exc
        return AuthBatchRecord(count=reader.varint(),
                               min_sequence=reader.varint(),
                               max_sequence=reader.varint(), **stored)



@dataclass(frozen=True)
class SnapshotRecord(_Stored):
    """Index entry for one archived snapshot (replay start for a chunk).

    Snapshots are archived the way Section 4.4 ships them: periodic
    *keyframes* carry every page, everything in between is a *delta* — the
    pages changed since ``base_snapshot_id`` — and the archive
    re-materialises full state on demand by replaying the chain.
    """

    snapshot_id: int
    state_root: bytes
    #: download cost an auditor pays to start replay here, as reported by the
    #: source machine's snapshot manager — stored verbatim so archive-backed
    #: audits charge exactly what in-memory audits charge
    transfer_bytes: int
    execution: Dict[str, int] = field(default_factory=dict)
    #: the snapshot a delta applies on top of (``None`` for keyframes)
    base_snapshot_id: Optional[int] = None
    #: page geometry of the source manager
    page_count: int = 0
    page_size: int = 0

    @property
    def kind(self) -> str:
        """"keyframe" (every page) or "delta" (changed pages over the base)."""
        return "keyframe" if self.base_snapshot_id is None else "delta"

    def header(self) -> bytes:
        out = bytearray()
        base = self.base_snapshot_id
        for value in (self.snapshot_id, 0 if base is None else base + 1,
                      self.page_count, self.page_size,
                      self.execution.get("instructions", 0),
                      self.execution.get("branches", 0), self.transfer_bytes):
            _put_varint(out, value)
        _put_bytes(out, self.state_root)
        return bytes(out)

    @staticmethod
    def parse(reader: _Reader, **stored) -> "SnapshotRecord":
        (snapshot_id, base, page_count, page_size, instructions, branches,
         transfer_bytes) = (reader.varint() for _ in range(7))
        return SnapshotRecord(
            snapshot_id=snapshot_id, state_root=reader.bytes(),
            transfer_bytes=transfer_bytes,
            execution={"instructions": instructions, "branches": branches},
            base_snapshot_id=base - 1 if base else None,
            page_count=page_count, page_size=page_size, **stored)


# -- the frame file -------------------------------------------------------------

#: frame kind on disk -> the record class whose packed header it carries
_FRAME_KINDS = {1: SegmentRecord, 2: SnapshotRecord, 3: AuthBatchRecord}
_KIND_OF = {record_class: kind for kind, record_class in _FRAME_KINDS.items()}


def file_header(holder: str) -> bytes:
    """What a frame file starts with; its crc32 seeds every group checksum,
    so a group cut out of another machine's file does not commit here."""
    out = bytearray(FRAMES_MAGIC)
    _put_bytes(out, holder.encode("utf-8"))
    return bytes(out)


def frame_head(record, payload: bytes) -> bytes:
    """Prefix and packed header of ``record``'s frame; ``payload`` follows."""
    header = record.header()
    return _PREFIX.pack(_KIND_OF[type(record)], len(header), len(payload),
                        zlib.crc32(payload)) + header


def commit_record(frames: int, number: int, group_crc: int) -> bytes:
    body = _COMMIT.pack(0, frames, number, group_crc, 0)[:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def _parse_commit(raw: bytes) -> Optional[Tuple[int, int, int]]:
    """``(frames, number, group crc)`` if ``raw`` is a whole commit record."""
    if len(raw) < COMMIT_SIZE or raw[0]:
        return None
    _, frames, number, group_crc, own_crc = _COMMIT.unpack_from(raw)
    if own_crc != zlib.crc32(raw[:COMMIT_SIZE - 4]):
        return None
    return frames, number, group_crc


def read_frames(root: Path, file_name: str, holder: str,
                anchor: bytes) -> Tuple[List[Any], int, int]:
    """Walk ``file_name``'s frame headers; no payload is read.

    Returns the records of its committed groups (segments chained from
    ``anchor``, the holder's retention hash), the offset its last committed
    group ends at, and its size.  Untrusted bytes: every length is checked
    against the bytes that remain before anything is read.  Whatever follows
    the last committed group is a torn or uncommitted tail — the one append
    a crash interrupted — for the caller to cut, unless a whole commit record
    sits somewhere in it: then committed groups were damaged, and that is
    refused (:class:`ArchiveIntegrityError`).
    """
    def refused(why: str) -> ArchiveIntegrityError:
        return ArchiveIntegrityError(f"frame file {file_name}: {why}")
    try:
        handle = open(root / file_name, "rb")
    except OSError as exc:
        raise refused(f"listed in the checkpoint, missing on disk: {exc}")
    with handle:
        size = os.fstat(handle.fileno()).st_size
        head = file_header(holder)
        if handle.read(len(head)) != head:
            raise refused(f"does not start as {holder!r}'s frame file")
        seed = zlib.crc32(head)
        records: List[Any] = []
        end = position = len(head)
        group: List[Any] = []
        crc, chain, last_number = seed, anchor, 0
        while position < size:
            handle.seek(position)
            prefix = handle.read(_PREFIX.size)
            if prefix[:1] == b"\0":
                commit = _parse_commit(prefix + handle.read(
                    COMMIT_SIZE - _PREFIX.size))
                if commit is None or commit != (len(group), commit[1], crc) \
                        or not group or commit[1] <= last_number:
                    break
                end = position = position + COMMIT_SIZE
                records += [replace(record, commit=commit[1])
                            for record in group]
                group, crc, last_number = [], seed, commit[1]
                continue
            if len(prefix) < _PREFIX.size:
                break
            kind, header_length, stored_bytes, checksum = _PREFIX.unpack(prefix)
            offset = position + _PREFIX.size + header_length
            if kind not in _FRAME_KINDS or header_length > MAX_FRAME_HEADER \
                    or offset + stored_bytes > size:
                break
            header = handle.read(header_length)
            reader = _Reader(header, 0)
            stored = dict(machine=holder, file_name=file_name, offset=offset,
                          stored_bytes=stored_bytes, checksum=checksum)
            try:
                record = SegmentRecord.parse(reader, chain, **stored) \
                    if kind == 1 else _FRAME_KINDS[kind].parse(reader, **stored)
            except LogFormatError:
                break
            if reader.left():
                break
            if kind == 1:
                chain = record.end_hash
            group.append(record)
            crc = zlib.crc32(prefix + header, crc)
            position = offset + stored_bytes
        if end < size:
            handle.seek(end)
            tail = handle.read()
            at = tail.find(b"\0")
            while at >= 0:
                if _parse_commit(tail[at:at + COMMIT_SIZE]) is not None:
                    raise refused(
                        f"damaged between offset {end} and the commit "
                        f"record at {end + at}")
                at = tail.find(b"\0", at + 1)
    return records, end, size


# -- the checkpoint -------------------------------------------------------------

def read_checkpoint(root: Path) -> Optional[Dict[str, Any]]:
    """``MANIFEST.json`` as written (``None``: no archive here yet), its
    kind and format version checked."""
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArchiveIntegrityError(f"corrupt manifest at {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("kind") != "avm_log_archive":
        kind = data.get("kind") if isinstance(data, dict) else None
        raise ArchiveIntegrityError(f"not an archive manifest: kind={kind!r}")
    # The manifest has its own version space (it indexes archives, it is
    # not a wire codec), but the check routes through the codec layer's
    # single helper so every unsupported-version failure in the repo is
    # one well-typed LogFormatError.
    require_format_version(data.get("format_version"), what="manifest",
                           supported=(MANIFEST_FORMAT_VERSION,))
    return data


def parse_checkpoint(data: Dict[str, Any]) -> Tuple[
        int, Dict[str, str], Dict[str, ChainCheckpoint]]:
    """``(generation, frame file per machine, retention anchors)``."""
    try:
        files = {str(machine): str(entry["file"])
                 for machine, entry in data["machines"].items()
                 if entry.get("file") is not None}
        retained = {
            str(machine): ChainCheckpoint(
                sequence=int(entry["retained"]["sequence"]),
                chain_hash=bytes.fromhex(entry["retained"]["chain_hash"]))
            for machine, entry in data["machines"].items()
            if entry.get("retained") is not None}
        return int(data["generation"]), files, retained
    except (AttributeError, KeyError, ValueError, TypeError) as exc:
        raise ArchiveIntegrityError(f"malformed manifest: {exc}") from exc


def write_checkpoint(root: Path, generation: int, files: Dict[str, str],
                     retained: Dict[str, ChainCheckpoint]) -> None:
    """Replace ``MANIFEST.json``, durably (the rename included)."""
    def anchor(checkpoint: Optional[ChainCheckpoint]):
        return checkpoint and {"sequence": checkpoint.sequence,
                               "chain_hash": checkpoint.chain_hash.hex()}
    atomic_write(Path(root) / MANIFEST_NAME, _dump_compact({
        "format_version": MANIFEST_FORMAT_VERSION, "kind": "avm_log_archive",
        "generation": generation,
        "machines": {machine: {"file": files.get(machine),
                               "retained": anchor(retained.get(machine))}
                     for machine in sorted({*files, *retained})}}))
    fsync_directory(root)


# -- durable writes ---------------------------------------------------------------

def fsync_directory(path: Union[str, Path]) -> None:
    """Make the names just created or renamed inside ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_durably(path: Union[str, Path], data: bytes, create: bool) -> None:
    """Append ``data`` to ``path`` (``create``: start it afresh) and fsync.

    Everything the store writes goes through ``os.write`` / ``os.fsync`` by
    those names, so a test (or a tracer) that patches them sees every byte.
    """
    fd = os.open(path, os.O_WRONLY | (os.O_CREAT | os.O_TRUNC if create
                                      else os.O_APPEND), 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` via a temporary file + rename.

    The rename is atomic on POSIX, so readers (and crash recovery) only ever
    see the old file or the complete new one — never a torn write.  The
    rename itself is durable once the directory is fsynced
    (:func:`fsync_directory`), which the caller does.  What a rewrite that
    is not an append needs: the checkpoint, and a generation's frame file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    write_durably(tmp, data, create=True)
    os.replace(tmp, path)
    return path
