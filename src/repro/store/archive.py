"""The durable, crash-recoverable log archive.

Section 4.2's accountability story only works if logs outlive the execution
that produced them: machines keep tamper-evident logs, truncate them at
mutually-agreed checkpoints, and hand segments to auditors on demand.
:class:`LogArchive` is that durable home.  Each machine's archive is one
append-only *frame file* per generation (:mod:`repro.store.manifest`): log
segments rolled at snapshot boundaries (Section 6.12's spot-check chunks) in
a versioned wire codec (:mod:`repro.log.codec`), packed authenticator
batches and snapshot page files, each a frame whose header is its index
record; ``MANIFEST.json`` is the checkpoint naming every machine's current
file and retention anchor (``docs/log-archive.md``).  It guarantees:

* **Append-only with chain continuity.**  A segment is only accepted if it
  extends the machine's archived head by an unbroken hash chain — every
  entry's chain hash is re-verified at ingest, so a tampered shipment is
  rejected at the door, not discovered at audit time.
* **One commit per shipment.**  Everything stored inside
  :meth:`LogArchive.shipment` — a segment, its sealing snapshot, the
  batches that rode along — is one ``write`` closed by a checksummed commit
  record and one ``os.fsync``, visible whole or not at all (a store call
  outside one is a group of its own).  Opening walks each file's frame
  headers (no payload is read), proves each machine's segments tile into
  one unbroken chain, cuts the torn tail a crash left, refuses damage
  before it, and sweeps the files a crash inside a rewrite orphaned.
* **Indexed range lookup.**  The per-machine index is kept sorted, so the
  segment covering a sequence number is a binary search away.
* **Checkpoint retention (GC).**  :meth:`truncate` mirrors the paper's log
  truncation: the frames retained past a mutually-agreed checkpoint are
  rewritten into the next generation's file, the checkpoint (sequence +
  chain hash) becomes the new trust anchor, and the snapshot at the
  boundary is kept so audits can still replay the surviving suffix.

Archives written before the frame file (one data file per record under a
format-1 manifest or a format-2 journal) are refused, typed
(:class:`~repro.errors.LogFormatError`), before anything on disk is touched.
"""

from __future__ import annotations

import os
import re
import zlib
from bisect import bisect_right
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from itertools import groupby
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import (
    ArchiveIntegrityError,
    HashChainError,
    LogFormatError,
    RetentionError,
    SnapshotError,
    StoreError,
)
from repro.log.authenticator import Authenticator
from repro.log.codec import (SegmentStreamDecoder, get_codec,
                             require_format_version)
from repro.log.entries import LogEntry
from repro.log.hashchain import ChainCheckpoint, verify_chain_incremental
from repro.log.segments import LogSegment, concatenate_segments
from repro.log.storage import authenticators_from_bytes, authenticators_to_bytes
from repro.store.manifest import (
    AuthBatchRecord, SegmentRecord, SnapshotRecord, atomic_write,
    commit_record, file_header, frame_head, fsync_directory, parse_checkpoint,
    read_checkpoint, read_frames, write_checkpoint, write_durably)
from repro.vm.execution import ExecutionTimestamp
from repro.vm.snapshot import (PAGE_SIZE, IncrementalSnapshot, Snapshot,
                               apply_delta, paginate, serialize_state)

#: the file names the archive writes — the orphan sweep touches nothing else,
#: so opening an archive in the wrong directory cannot destroy foreign data
_OWNED_NAME_RE = re.compile(r"^frames-\d+\.avmf$")

#: how much of a stored segment :meth:`LogArchive.stream_segment` reads at once
STREAM_CHUNK_BYTES = 1 << 16


def _snapshot_record(machine: str, snapshot: IncrementalSnapshot,
                     **stored) -> SnapshotRecord:
    return SnapshotRecord(
        machine=machine, snapshot_id=snapshot.snapshot_id,
        state_root=snapshot.state_root, transfer_bytes=snapshot.transfer_bytes,
        execution=snapshot.execution.to_dict(),
        base_snapshot_id=snapshot.base_snapshot_id,
        page_count=snapshot.page_count, page_size=snapshot.page_size, **stored)


def _mismatch(record) -> ArchiveIntegrityError:
    return ArchiveIntegrityError(
        f"archived data at {record.label()} does not match its index record")


@dataclass
class RecoveryReport:
    """What opening an archive found (and cleaned up)."""

    machines: int = 0
    segments: int = 0
    entries: int = 0
    chains_verified: int = 0
    #: files the checkpoint does not name (swept): what a crash inside a
    #: machine's creation or a generation rewrite leaves
    orphan_files: List[str] = field(default_factory=list)
    #: frame files whose torn tail — the append a crash interrupted — was cut
    torn_tails: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.orphan_files and not self.torn_tails


class _Group:
    """The frames of one append, staged: one write, one commit record."""

    def __init__(self, holder: str) -> None:
        self.holder = holder
        #: the holder's frame file and where the group starts in it: placed
        #: by its first frame (until then nothing has been mutated)
        self.file_name, self.base = "", 0
        self.data = bytearray()
        self.crc = zlib.crc32(file_header(holder))
        self.records: List[Any] = []


class LogArchive:
    """A durable archive of tamper-evident logs for a fleet of machines."""

    def __init__(self, root: Union[str, Path], deep_verify: bool = False,
                 format_version: int = 1) -> None:
        """Open (or create) the archive rooted at ``root``.

        Opening reads the checkpoint and walks every machine's frame
        headers: per machine, the segment records must tile into one
        unbroken chain from the retention checkpoint (or genesis);
        ``deep_verify`` also decodes every segment and re-verifies its hash
        chain entry by entry.  ``format_version`` selects the wire codec
        *new* segments are written with (:mod:`repro.log.codec`); reading
        follows each record's own, so one archive can hold a mix.
        """
        self.root = Path(root)
        os.makedirs(self.root, exist_ok=True)
        self.format_version = require_format_version(format_version,
                                                     what="log codec")
        self._generation = 0
        #: per machine that shipped here (a *holder*): its current frame
        #: file (relative to the root) and where that file's next group goes
        self._files: Dict[str, str] = {}
        self._ends: Dict[str, int] = {}
        self._retained: Dict[str, ChainCheckpoint] = {}
        self._next_commit = 1
        self._group: Optional[_Group] = None
        self._index: Dict[str, List[SegmentRecord]] = {}
        self._auth_index: Dict[str, List[AuthBatchRecord]] = {}
        self._snapshot_index: Dict[str, Dict[int, SnapshotRecord]] = {}
        #: reconstructed delta snapshots by ``(file, offset)`` of their frame
        #: — committed frames are immutable, so an entry never goes stale
        self._snapshot_pages_cache: Dict[Tuple[str, int], Tuple[bytes, ...]] = {}
        self.recovery = self._recover(deep_verify)

    # -- recovery ------------------------------------------------------------

    def _recover(self, deep_verify: bool) -> RecoveryReport:
        report = RecoveryReport()
        data = read_checkpoint(self.root)
        records: List[Any] = []
        if data is not None:
            self._generation, self._files, self._retained = \
                parse_checkpoint(data)
            for holder, file_name in self._files.items():
                found, end, size = read_frames(
                    self.root, file_name, holder,
                    self.start_checkpoint(holder).chain_hash)
                if end < size:
                    os.truncate(self.root / file_name, end)
                    report.torn_tails.append(file_name)
                self._ends[holder] = end
                records += found
        for record in records:
            self._enter(record)
        self._next_commit = 1 + max(
            (record.commit for record in records), default=0)
        self._sort()
        self._sweep(report)

        for machine, segments in self._index.items():
            expected = self.start_checkpoint(machine)
            for record in segments:
                if record.first_sequence != expected.sequence + 1 \
                        or record.start_hash != expected.chain_hash:
                    raise ArchiveIntegrityError(
                        f"archive for {machine!r} is not contiguous at "
                        f"sequence {record.first_sequence}")
                if record.entry_count != \
                        record.last_sequence - record.first_sequence + 1:
                    raise ArchiveIntegrityError(
                        f"segment {record.label()} advertises "
                        f"{record.entry_count} entries")
                try:
                    if deep_verify:
                        verify_chain_incremental(
                            self.read_segment(record).entries, expected)
                except HashChainError as exc:
                    raise ArchiveIntegrityError(
                        f"segment {record.label()} fails hash-chain "
                        f"verification: {exc}") from exc
                expected = record.end_checkpoint()
                report.segments += 1
                report.entries += record.entry_count
            report.chains_verified += 1
        report.machines = len(self._index)
        return report

    def _sweep(self, report: RecoveryReport) -> None:
        """Unlink what the checkpoint does not name: a frame file whose
        checkpoint never landed or moved on, a torn ``.tmp``."""
        current = set(self._files.values())
        for path in sorted(self.root.rglob("*")):
            relative = path.relative_to(self.root).as_posix()
            if relative in current or not path.is_file() or not (
                    _OWNED_NAME_RE.match(path.name)
                    or path.name.endswith(".tmp")):
                continue  # ours and current — or not ours: never deleted
            os.unlink(path)
            report.orphan_files.append(relative)

    # -- the index -------------------------------------------------------------

    def _enter(self, record) -> None:
        if isinstance(record, SegmentRecord):
            self._index.setdefault(record.machine, []).append(record)
        elif isinstance(record, SnapshotRecord):
            self._snapshot_index.setdefault(
                record.machine, {})[record.snapshot_id] = record
        elif record.max_sequence > self.start_checkpoint(record.machine).sequence:
            # (a batch wholly below its subject's retention anchor is dead:
            # it stays in its holder's file until that file is rewritten)
            self._auth_index.setdefault(record.machine, []).append(record)

    def _sort(self) -> None:
        """Segments by sequence, batches by arrival."""
        for segments in self._index.values():
            segments.sort(key=lambda record: record.first_sequence)
        for batches in self._auth_index.values():
            batches.sort(key=lambda batch: (batch.commit, batch.offset))

    def _leave(self, record) -> None:
        if isinstance(record, SegmentRecord):
            self._index[record.machine].remove(record)
        elif isinstance(record, SnapshotRecord):
            del self._snapshot_index[record.machine][record.snapshot_id]
        elif record in self._auth_index.get(record.machine, ()):
            self._auth_index[record.machine].remove(record)

    def _all_records(self) -> Iterator[Any]:
        for segments in self._index.values():
            yield from segments
        for snapshots in self._snapshot_index.values():
            yield from snapshots.values()
        for batches in self._auth_index.values():
            yield from batches

    def _holder_of(self, record) -> str:
        """The machine whose file holds ``record``."""
        return next(holder for holder, file_name in self._files.items()
                    if file_name == record.file_name)

    # -- basic queries -------------------------------------------------------

    def machines(self) -> List[str]:
        """All machines with archived data, sorted."""
        names = set(self._index) | set(self._auth_index) | set(self._snapshot_index)
        return sorted(names)

    def segment_records(self, machine: str) -> List[SegmentRecord]:
        """This machine's segment index, oldest first (a copy)."""
        return list(self._index.get(machine, []))

    def entry_count(self, machine: str) -> int:
        """Number of archived (retained) log entries for ``machine``."""
        return sum(record.entry_count for record in self._index.get(machine, []))

    def start_checkpoint(self, machine: str) -> ChainCheckpoint:
        """Chain state just before the first retained entry (GC trust anchor)."""
        retained = self._retained.get(machine)
        return retained if retained is not None else ChainCheckpoint.genesis()

    def head_checkpoint(self, machine: str) -> ChainCheckpoint:
        """Chain state after the last archived entry."""
        records = self._index.get(machine)
        if not records:
            return self.start_checkpoint(machine)
        return records[-1].end_checkpoint()

    def retained_checkpoint(self, machine: str) -> Optional[ChainCheckpoint]:
        """The truncation checkpoint, or ``None`` if never truncated."""
        return self._retained.get(machine)

    # -- writing: the shipment append ------------------------------------------

    @contextmanager
    def shipment(self, holder: str) -> Iterator[None]:
        """Everything stored inside lands in ``holder``'s file as one group:
        one ``write`` of its frames and a commit record, one ``os.fsync``,
        visible together or — after a crash or a failed write — not at all.
        Each store method still judges its own part and raises for the one
        it refuses; the accepted ones commit when the block ends (an
        exception leaving it abandons them all).  Nested, it joins the outer.
        """
        if self._group is not None:
            yield
            return
        group = self._group = _Group(holder)
        try:
            yield
        except Exception:
            self._abandon(group)
            raise
        finally:
            self._group = None
        self._commit(group)

    def _frame_file(self, holder: str, generation: int) -> str:
        """``holder``'s frame file of ``generation``: in the directory it
        has, else in one named after it that no other machine uses."""
        current = self._files.get(holder)
        directory = current.split("/")[0] if current else \
            re.sub(r"[^A-Za-z0-9._-]", "_", holder) or "machine"
        taken = {name.split("/")[0] for name in self._files.values()}
        while current is None and directory in taken:
            directory += "_"  # two names, one sanitised form
        return f"{directory}/frames-{generation:06d}.avmf"

    def _stage(self, record, payload: bytes):
        """Index ``record`` and stage its frame; outside a shipment, commit."""
        group = self._group or _Group(record.machine)
        if record.machine != group.holder \
                and not isinstance(record, AuthBatchRecord):
            raise StoreError(
                f"{record.machine!r} data in a shipment from {group.holder!r}")
        if not group.file_name:
            group.file_name = self._files.get(group.holder) \
                or self._frame_file(group.holder, self._generation + 1)
            group.base = self._ends.get(group.holder,
                                        len(file_header(group.holder)))
        head = frame_head(record, payload)
        record = replace(
            record, file_name=group.file_name, stored_bytes=len(payload),
            offset=group.base + len(group.data) + len(head),
            checksum=zlib.crc32(payload), commit=self._next_commit)
        group.crc = zlib.crc32(head, group.crc)
        group.data += head
        group.data += payload
        group.records.append(record)
        self._enter(record)
        if group is not self._group:
            self._commit(group)
        return record

    def _abandon(self, group: _Group) -> None:
        for record in reversed(group.records):
            self._leave(record)

    def _commit(self, group: _Group) -> None:
        """Make ``group`` durable.  A machine's first group also creates its
        directory and file and names them in the checkpoint; every later one
        is a single append to that file."""
        if not group.records:
            return
        path = self.root / group.file_name
        created = group.holder not in self._files
        data = bytes(group.data) + commit_record(
            len(group.records), self._next_commit, group.crc)
        try:
            if created:
                os.makedirs(path.parent, exist_ok=True)
                write_durably(path, file_header(group.holder) + data, True)
                fsync_directory(path.parent)
                self._files[group.holder] = group.file_name
                self._checkpoint()
            else:
                write_durably(path, data, False)
        except OSError as exc:
            self._abandon(group)
            with suppress(OSError):  # leave no half group behind
                if created:  # (the next open sweeps the file)
                    self._files.pop(group.holder, None)
                else:
                    os.truncate(path, group.base)
            raise StoreError(
                f"cannot append to {group.file_name}: {exc}") from exc
        self._ends[group.holder] = group.base + len(data)
        self._next_commit += 1

    def _checkpoint(self) -> None:
        self._generation += 1
        write_checkpoint(self.root, self._generation, self._files,
                         self._retained)

    def append_segment(self, segment: LogSegment,
                       sealed_by_snapshot: Optional[int] = None, *,
                       wire: Optional[bytes] = None) -> SegmentRecord:
        """Archive one sealed segment; it must extend the machine's head.

        The segment's whole hash chain is re-verified against the archived
        head before anything is staged, so the archive only ever holds
        segments that tile into one unbroken chain: :class:`HashChainError`
        for a broken or forked one, :class:`StoreError` for an empty one.

        ``wire`` is the blob ``segment`` was just decoded from, if any — the
        caller vouches for that, pass nothing else.  Laid out as the
        archive's own codec writes (the decoders are strict: every byte of
        it was consumed), it is stored as it arrived, not encoded again.
        """
        if not segment.entries:
            raise StoreError("cannot archive an empty segment")
        machine = segment.machine
        head = self.head_checkpoint(machine)
        if segment.first_sequence != head.sequence + 1 \
                or segment.start_hash != head.chain_hash:
            raise HashChainError(
                f"segment [{segment.first_sequence}, {segment.last_sequence}] "
                f"does not extend the archived head of {machine!r} "
                f"(head sequence {head.sequence})")
        end = verify_chain_incremental(segment.entries, head)

        raw = segment.size_bytes()
        codec = get_codec(self.format_version)
        if wire is not None and codec.writes_layout_of(wire):
            data = bytes(wire)
        else:
            data = codec.encode_segment(segment)
        record = self._stage(SegmentRecord(
            machine=machine, first_sequence=segment.first_sequence,
            last_sequence=segment.last_sequence,
            start_hash=segment.start_hash, end_hash=end.chain_hash,
            entry_count=len(segment.entries), raw_bytes=raw,
            sealed_by_snapshot=sealed_by_snapshot,
            format_version=self.format_version), data)
        return record

    def store_authenticators(self, machine: str,
                             authenticators: List[Authenticator]
                             ) -> Optional[AuthBatchRecord]:
        """Archive a batch of authenticators issued by ``machine`` (an empty
        one is ignored).  Batches are kept in shipment order and
        :meth:`authenticators_for` replays them in it, so the archive
        reproduces a collector's authenticator list exactly."""
        batch = [auth for auth in authenticators if auth.machine == machine]
        if not batch:
            return None
        sequences = [auth.sequence for auth in batch]
        return self._stage(AuthBatchRecord(
            machine=machine, count=len(batch), min_sequence=min(sequences),
            max_sequence=max(sequences)), authenticators_to_bytes(batch))

    def store_snapshot(self, machine: str, snapshot_id: int,
                       state: Dict[str, Any], state_root: bytes,
                       transfer_bytes: int,
                       execution: Optional[Dict[str, int]] = None,
                       page_size: int = PAGE_SIZE) -> SnapshotRecord:
        """Archive a full state as a keyframe: a replay start point."""
        pages = paginate(serialize_state(state), page_size)
        return self.store_snapshot_delta(machine, IncrementalSnapshot(
            snapshot_id=snapshot_id,
            execution=ExecutionTimestamp.from_dict(execution or {}),
            base_snapshot_id=None, changed_pages=dict(enumerate(pages)),
            page_count=len(pages), state_root=state_root,
            page_size=page_size, transfer_bytes=transfer_bytes))

    def store_snapshot_delta(self, machine: str,
                             snapshot: IncrementalSnapshot, *,
                             wire: Optional[bytes] = None) -> SnapshotRecord:
        """Archive one snapshot page file: changed pages over its base.

        Section 4.4's space saving, end to end: between keyframes (no base,
        every page) the archive stores only what changed and
        :meth:`load_snapshot` replays the chain.  A delta whose base is not
        archived could never be materialised: :class:`SnapshotError`, for
        the ingest layer to quarantine.  ``wire``: as for
        :meth:`append_segment`.
        """
        known = self._snapshot_index.get(machine, {})
        existing = known.get(snapshot.snapshot_id)
        if existing is not None:
            return existing
        if snapshot.base_snapshot_id is not None \
                and snapshot.base_snapshot_id not in known:
            raise SnapshotError(
                f"delta snapshot {snapshot.snapshot_id} of {machine!r} "
                f"references base {snapshot.base_snapshot_id}, which is not "
                f"archived")
        return self._stage(
            _snapshot_record(machine, snapshot),
            bytes(wire) if wire is not None else snapshot.to_bytes())

    # -- reading -------------------------------------------------------------

    def stored_bytes_of(self, record, what: str = "archived bytes") -> bytes:
        """``record``'s payload exactly as stored, checked against the
        checksum its frame header carries."""
        return b"".join(self._stored_chunks(record, what, 1 << 30))

    def _stored_chunks(self, record, what: str,
                       chunk_bytes: int) -> Iterator[bytes]:
        left, crc = record.stored_bytes, 0
        try:
            with open(self.root / record.file_name, "rb") as handle:
                handle.seek(record.offset)
                while left and (chunk := handle.read(min(chunk_bytes, left))):
                    crc = zlib.crc32(chunk, crc)
                    left -= len(chunk)
                    yield chunk
        except OSError as exc:
            raise ArchiveIntegrityError(
                f"cannot read {what} {record.label()}: {exc}") from exc
        if left or crc != record.checksum:
            raise ArchiveIntegrityError(
                f"corrupt {what} {record.label()}: fails its checksum")

    def read_segment(self, record: SegmentRecord) -> LogSegment:
        """Load one archived segment and check it against its index record."""
        try:
            codec = get_codec(record.format_version)
            segment = codec.decode_segment(
                self.stored_bytes_of(record, "archived segment"))
        except (OSError, EOFError, ValueError, LogFormatError) as exc:
            raise ArchiveIntegrityError(
                f"cannot read archived segment {record.label()}: {exc}") from exc
        if segment.machine != record.machine \
                or not segment.entries \
                or segment.first_sequence != record.first_sequence \
                or segment.last_sequence != record.last_sequence \
                or segment.start_hash != record.start_hash \
                or segment.end_hash != record.end_hash:
            raise _mismatch(record)
        return segment

    def stream_segment(self, record: SegmentRecord) -> Iterator[LogEntry]:
        """Stream one archived segment's entries without materializing it.

        Decodes the stored bytes incrementally
        (:class:`~repro.log.codec.SegmentStreamDecoder`) — peak memory is
        one stored chunk plus one entry.  :meth:`read_segment`'s checks run
        as the entries stream past (header before the first, sequences and
        end hash on the way, count at exhaustion) and fail the same way,
        :class:`ArchiveIntegrityError`.  The hash chain is *not* verified
        here — the audit kernel does that.
        """
        decoder = SegmentStreamDecoder()
        last_entry: Optional[LogEntry] = None
        mismatch = _mismatch(record)
        try:
            for entry in decoder.entries(self._stored_chunks(
                    record, "archived segment", STREAM_CHUNK_BYTES)):
                if decoder.entry_count == 1:
                    header = decoder.header or {}
                    if str(header.get("machine")) != record.machine \
                            or header.get("start_hash") \
                            != record.start_hash.hex() \
                            or entry.sequence != record.first_sequence:
                        raise mismatch
                if entry.sequence > record.last_sequence or (
                        entry.sequence == record.last_sequence
                        and entry.chain_hash != record.end_hash):
                    # Checked before the yield, so a consumer verifying
                    # the chain as it pulls sees the same error class the
                    # materializing reader raises for this corruption.
                    raise mismatch
                last_entry = entry
                yield entry
        except (OSError, EOFError, ValueError, LogFormatError) as exc:
            raise ArchiveIntegrityError(
                f"cannot read archived segment {record.label()}: "
                f"{exc}") from exc
        if last_entry is None \
                or decoder.entry_count != record.entry_count \
                or last_entry.sequence != record.last_sequence \
                or last_entry.chain_hash != record.end_hash:
            raise mismatch

    def segments_for(self, machine: str) -> List[LogSegment]:
        """All retained segments of ``machine``, oldest first."""
        return [self.read_segment(record)
                for record in self._index.get(machine, [])]

    def materialized_log(self, machine: str) -> LogSegment:
        """The whole retained log, materialized: peak memory grows with its
        length.  The audit engine reads it chunk by chunk instead
        (:mod:`repro.audit.stream`); this is for a log that cannot be
        chunked and callers that want it whole."""
        segments = self.segments_for(machine)
        if not segments:
            raise StoreError(f"no archived segments for {machine!r}")
        return concatenate_segments(segments)

    def reencode_segments(self, destination_root: Union[str, Path],
                          format_version: int) -> "LogArchive":
        """Copy this archive to ``destination_root`` in another wire format.

        Segments are decoded, re-verified (by the destination's ingest
        path) and re-encoded with ``format_version``'s codec, sealing
        metadata preserved; batches and snapshots are copied as they are —
        one group per machine.  The migration path between codec
        generations, and the differential suite's.  Returns the new archive.
        """
        destination = LogArchive(destination_root,
                                 format_version=format_version)
        for machine in self.machines():
            # Install the retention anchor first: a truncated source's
            # earliest segment extends the checkpoint, not genesis.
            retained = self.retained_checkpoint(machine)
            if retained is not None:
                destination.adopt_retention_checkpoint(machine, retained)
            with destination.shipment(machine):
                for record in self._index.get(machine, []):
                    destination.append_segment(
                        self.read_segment(record),
                        sealed_by_snapshot=record.sealed_by_snapshot)
                for batch in self._auth_index.get(machine, []):
                    destination.store_authenticators(
                        machine, self._read_auth_batch(batch))
                self.copy_snapshots_to(destination, machine)
        return destination

    def record_covering(self, machine: str, sequence: int) -> SegmentRecord:
        """Index lookup: the segment record containing ``sequence`` — a
        binary search, logarithmic in the machine's segment *count*."""
        records = self._index.get(machine, [])
        starts = [record.first_sequence for record in records]
        position = bisect_right(starts, sequence) - 1
        if position < 0 or not records[position].covers(sequence):
            raise StoreError(
                f"no archived entry {sequence} for {machine!r} "
                f"(retained range starts after GC checkpoint "
                f"{self.start_checkpoint(machine).sequence})")
        return records[position]

    def read_range(self, machine: str, first_sequence: int,
                   last_sequence: int) -> LogSegment:
        """Extract ``[first_sequence, last_sequence]`` from the archive."""
        if first_sequence > last_sequence:
            raise StoreError(
                f"range start {first_sequence} is after end {last_sequence}")
        records = self._index.get(machine, [])
        first_record = self.record_covering(machine, first_sequence)
        last_record = self.record_covering(machine, last_sequence)
        start = records.index(first_record)
        stop = records.index(last_record) + 1
        chunk = concatenate_segments([self.read_segment(record)
                                      for record in records[start:stop]])
        entries = [entry for entry in chunk.entries
                   if first_sequence <= entry.sequence <= last_sequence]
        return LogSegment(machine=machine, entries=entries,
                          start_hash=entries[0].previous_hash)

    def authenticators_for(self, machine: str) -> List[Authenticator]:
        """All retained authenticators issued by ``machine``, shipment order."""
        result: List[Authenticator] = []
        for batch in self._auth_index.get(machine, []):
            result.extend(self._read_auth_batch(batch))
        return result

    def _read_auth_batch(self, batch: AuthBatchRecord) -> List[Authenticator]:
        """One archived batch, parsed."""
        try:
            return authenticators_from_bytes(
                self.stored_bytes_of(batch, "authenticator batch"))
        except LogFormatError as exc:
            raise ArchiveIntegrityError(
                f"corrupt authenticator batch {batch.label()}: {exc}") from exc

    def snapshot_store(self, machine: str) -> "ArchiveSnapshotStore":
        """A snapshot-manager view over the machine's archived snapshots."""
        return ArchiveSnapshotStore(self, machine)

    def load_snapshot(self, machine: str, snapshot_id: int) -> Snapshot:
        """Rebuild a full :class:`~repro.vm.snapshot.Snapshot` from the archive.

        A keyframe carries every page; a delta is materialised by walking
        back to the nearest archived keyframe and replaying the changed
        pages forward, page count and Merkle root verified at every step —
        a corrupt chain surfaces as :class:`SnapshotError`, never as a
        silently wrong state.  An audit fetches snapshots in chunk order,
        each fetch walking the chain back — quadratic re-application of the
        same deltas — so the page tuples of the deltas reconstructed (and
        verified) last are kept, LRU.
        """
        record = self._snapshot_record(machine, snapshot_id)
        cache = self._snapshot_pages_cache
        chain: List[SnapshotRecord] = []
        base = record
        pages: Optional[List[bytes]] = None
        while base.kind == "delta":
            cached = cache.pop((base.file_name, base.offset), None)
            if cached is not None:
                cache[base.file_name, base.offset] = cached  # refresh LRU
                pages = list(cached)
                break
            chain.append(base)
            parent = self._snapshot_index.get(machine, {}).get(base.base_snapshot_id)
            if parent is None:
                raise ArchiveIntegrityError(
                    f"delta snapshot {base.snapshot_id} of {machine!r} "
                    f"references missing base {base.base_snapshot_id}")
            base = parent
        if pages is None:
            keyframe = self._read_snapshot_file(base)  # carries every page
            pages = [keyframe.changed_pages[index]
                     for index in range(keyframe.page_count)]
        for delta_record in reversed(chain):
            pages = apply_delta(pages, self._read_snapshot_file(delta_record))
        if chain:
            cache[record.file_name, record.offset] = tuple(pages)
            while len(cache) > self._SNAPSHOT_PAGES_CACHE_LIMIT:
                cache.pop(next(iter(cache)))
        # state=None: the Snapshot parses its state dict lazily from the
        # canonical pages, so every caller gets a fresh dict even when the
        # pages came out of the cache.
        return Snapshot(snapshot_id=snapshot_id,
                        execution=ExecutionTimestamp.from_dict(record.execution),
                        pages=pages, state_root=record.state_root,
                        state=None)

    #: reconstructed delta snapshots held (see :meth:`load_snapshot`)
    _SNAPSHOT_PAGES_CACHE_LIMIT = 4

    def _read_snapshot_file(self, record: SnapshotRecord) -> IncrementalSnapshot:
        """One archived snapshot's page file, decoded."""
        try:
            snapshot = IncrementalSnapshot.from_bytes(
                self.stored_bytes_of(record, "archived snapshot"))
        except SnapshotError as exc:
            raise ArchiveIntegrityError(
                f"corrupt archived snapshot {record.label()}: {exc}") from exc
        if (snapshot.snapshot_id, snapshot.base_snapshot_id, snapshot.state_root) \
                != (record.snapshot_id, record.base_snapshot_id, record.state_root):
            raise _mismatch(record)
        return snapshot

    def _snapshot_record(self, machine: str, snapshot_id: int) -> SnapshotRecord:
        record = self._snapshot_index.get(machine, {}).get(snapshot_id)
        if record is None:
            raise SnapshotError(
                f"no archived snapshot {snapshot_id} for {machine!r}")
        return record

    def snapshot_transfer_bytes(self, machine: str, snapshot_id: int) -> int:
        return self._snapshot_record(machine, snapshot_id).transfer_bytes

    def initial_state_for(self, machine: str) -> Tuple[Optional[Dict[str, Any]], int]:
        """Replay start state for the retained suffix: ``(None, 0)`` while the
        archive reaches back to the log's beginning, else the state and
        transfer cost of the snapshot at the retention boundary."""
        if self.retained_checkpoint(machine) is None:
            return None, 0
        snaps = self._snapshot_index.get(machine, {})
        if not snaps:
            raise SnapshotError(
                f"archive of {machine!r} was truncated but retains no "
                f"boundary snapshot")
        boundary_id = min(snaps)
        snapshot = self.load_snapshot(machine, boundary_id)
        if not snapshot.verify_root():
            raise SnapshotError(
                f"boundary snapshot {boundary_id} of {machine!r} failed "
                f"hash-tree verification")
        return snapshot.state, self.snapshot_transfer_bytes(machine, boundary_id)

    # -- copying into another archive (reencode_segments) ---------------------

    def copy_snapshots_to(self, destination: "LogArchive",
                          machine: str) -> int:
        """Copy ``machine``'s archived snapshots into another archive, as one
        group: keyframe/delta structure, transfer costs and execution
        timestamps preserved, ascending ids (a delta's base precedes it).
        What the destination already holds is skipped.  Returns the number
        copied."""
        copied = 0
        already = set(destination._snapshot_index.get(machine, {}))
        snaps = self._snapshot_index.get(machine, {})
        with destination.shipment(machine):
            for snapshot_id in sorted(snaps):
                if snapshot_id not in already:
                    destination.store_snapshot_delta(
                        machine, self._read_snapshot_file(snaps[snapshot_id]))
                    copied += 1
        return copied

    def adopt_retention_checkpoint(self, machine: str,
                                   checkpoint: ChainCheckpoint) -> None:
        """Install another archive's retention anchor for ``machine``.

        The first step of :meth:`reencode_segments`: a truncated source's
        earliest segment extends its retention checkpoint, not genesis, so
        the destination adopts the anchor *before* any segment arrives.
        Idempotent for the checkpoint already installed; a *conflicting*
        anchor, or any once segments exist, is refused
        (:class:`RetentionError`) — moving the anchor would fork the
        archived chain.
        """
        current = self._retained.get(machine)
        if current is not None:
            if current.sequence == checkpoint.sequence \
                    and current.chain_hash == checkpoint.chain_hash:
                return  # already adopted
            raise RetentionError(
                f"cannot adopt retention checkpoint {checkpoint.sequence} for "
                f"{machine!r}: a different anchor (sequence "
                f"{current.sequence}) is already installed")
        if self._index.get(machine):
            raise RetentionError(
                f"cannot adopt a retention checkpoint for {machine!r}: "
                f"segments are already archived here")
        self._retained[machine] = checkpoint
        self._checkpoint()

    # -- rewriting: the next generation ----------------------------------------

    def _rewrite(self, holders, payloads: Optional[Dict[int, bytes]] = None
                 ) -> None:
        """Write what is still indexed of each of ``holders``' files into the
        next generation, switch the checkpoint, unlink what it replaced.

        Each file is written whole (temp + rename + directory fsync) before
        the one checkpoint that names them all: a crash before it leaves the
        old generation in force and the new files to the sweep, one after it
        the old files.  Groups keep their numbers, so arrival order does.
        ``payloads``: new stored bytes for some records, by ``id``.
        """
        generation = self._generation + 1
        live: Dict[str, List[Any]] = {holder: [] for holder in holders}
        owners = {name: holder for holder, name in self._files.items()}
        for record in self._all_records():
            holder = owners[record.file_name]
            if holder in live:
                live[holder].append(record)
        stale = set()
        for holder, records in sorted(live.items()):
            file_name = self._frame_file(holder, generation)
            stale.update(record.file_name for record in records)
            stale.add(self._files.pop(holder, file_name))
            self._ends.pop(holder, None)
            if not records:
                continue
            records.sort(key=lambda record: (record.commit, record.offset))
            data = bytearray(file_header(holder))
            seed = zlib.crc32(data)
            for number, members in groupby(records, key=lambda r: r.commit):
                crc, frames = seed, 0
                for record in members:
                    payload = (payloads or {}).get(id(record)) \
                        or self.stored_bytes_of(record)
                    head = frame_head(record, payload)
                    self._leave(record)
                    self._enter(replace(
                        record, file_name=file_name, commit=number,
                        offset=len(data) + len(head),
                        stored_bytes=len(payload),
                        checksum=zlib.crc32(payload)))
                    data += head + payload
                    crc, frames = zlib.crc32(head, crc), frames + 1
                data += commit_record(frames, number, crc)
            os.makedirs((self.root / file_name).parent, exist_ok=True)
            atomic_write(self.root / file_name, bytes(data))
            fsync_directory((self.root / file_name).parent)
            self._files[holder], self._ends[holder] = file_name, len(data)
        self._sort()
        self._checkpoint()
        for file_name in sorted(stale - set(self._files.values())):
            with suppress(FileNotFoundError):
                os.unlink(self.root / file_name)

    # -- retention / GC ------------------------------------------------------

    def truncate(self, machine: str, up_to_sequence: int) -> ChainCheckpoint:
        """Garbage-collect ``machine``'s log up to a checkpoint (Section 4.2).

        Whole segments at or below ``up_to_sequence`` are dropped —
        truncation lands on the greatest snapshot-sealed segment boundary
        not beyond it, so the surviving suffix still starts at a replayable
        snapshot.  The boundary's ``(sequence, chain hash)`` becomes the
        machine's retention checkpoint: the mutually-agreed anchor future
        audits verify against.  Batches of its authenticators wholly at or
        below it are dead from then on (and dropped from the file of the
        machine that shipped them when that is next rewritten).  Returns
        the checkpoint in force (unchanged if no boundary is eligible).
        """
        current = self.start_checkpoint(machine)
        if up_to_sequence < current.sequence:
            raise RetentionError(
                f"cannot truncate {machine!r} to {up_to_sequence}: already "
                f"truncated to {current.sequence}")
        records = self._index.get(machine, [])
        snaps = self._snapshot_index.get(machine, {})
        # Eligible boundaries are snapshot-sealed *and* have that snapshot in
        # the archive — else the surviving suffix would have no replay start
        # (its part of the shipment was refused, or left out).
        eligible = [record for record in records
                    if record.last_sequence <= up_to_sequence
                    and record.sealed_by_snapshot in snaps]
        if not eligible:
            return current
        boundary = eligible[-1]
        # The suffix must start at a *materialisable* snapshot once its delta
        # chain's ancestors are gone: a delta boundary becomes a keyframe.
        payloads: Dict[int, bytes] = {}
        old = snaps[boundary.sealed_by_snapshot]
        if old.kind == "delta":
            snapshot = self.load_snapshot(machine, old.snapshot_id)  # verifies
            keyframe = IncrementalSnapshot(
                snapshot_id=old.snapshot_id, execution=snapshot.execution,
                base_snapshot_id=None,
                changed_pages=dict(enumerate(snapshot.pages)),
                page_count=len(snapshot.pages), state_root=old.state_root,
                page_size=old.page_size or PAGE_SIZE,
                transfer_bytes=old.transfer_bytes)
            snaps[old.snapshot_id] = record = _snapshot_record(
                machine, keyframe, file_name=old.file_name, offset=old.offset,
                commit=old.commit)
            payloads[id(record)] = keyframe.to_bytes()
        holders = {self._holder_of(boundary)}
        self._index[machine] = [record for record in records
                                if record.last_sequence > boundary.last_sequence]
        self._auth_index[machine] = [
            batch for batch in self._auth_index.get(machine, [])
            if batch.max_sequence > boundary.last_sequence]
        self._snapshot_index[machine] = {
            snap_id: snap for snap_id, snap in snaps.items()
            if snap_id >= boundary.sealed_by_snapshot}
        self._retained[machine] = boundary.end_checkpoint()
        self._rewrite(holders, payloads)
        return self._retained[machine]


class ArchiveSnapshotStore:
    """Duck-typed stand-in for :class:`~repro.vm.snapshot.SnapshotManager`:
    the audit front-ends' boundary-snapshot fetch
    (:func:`repro.audit.kernel.fetch_verified_snapshot_entry`) calls only
    :meth:`get` and :meth:`transfer_cost_bytes`, served here from the
    archive — with the transfer cost the *source machine* recorded, so
    archive-backed audit costs equal in-memory ones."""

    def __init__(self, archive: LogArchive, machine: str) -> None:
        self._archive = archive
        self._machine = machine

    @property
    def count(self) -> int:
        return len(self._archive._snapshot_index.get(self._machine, {}))

    def snapshot_ids(self) -> List[int]:
        return sorted(self._archive._snapshot_index.get(self._machine, {}))

    def get(self, snapshot_id: int) -> Snapshot:
        return self._archive.load_snapshot(self._machine, snapshot_id)

    def transfer_cost_bytes(self, snapshot_id: int,
                            include_memory_dump: bool = True) -> int:
        return self._archive.snapshot_transfer_bytes(self._machine, snapshot_id)
