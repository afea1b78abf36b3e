"""The durable, crash-recoverable log archive.

Section 4.2's accountability story only works if logs outlive the execution
that produced them: machines keep tamper-evident logs, truncate them at
mutually-agreed checkpoints, and hand segments to auditors on demand.
:class:`LogArchive` is that durable home.  It persists each machine's log as
append-only *segment files* rolled at snapshot boundaries (the same
boundaries Section 6.12 uses for spot-check chunks), serialised by a
versioned wire codec (:mod:`repro.log.codec` — JSON+bzip2 ``v1`` by default,
the packed binary ``v2`` opt-in per archive), and indexed by a manifest
(:mod:`repro.store.manifest`) that records every segment's sequence range,
wire format and the chain hashes at both ends.  Beside the segments sit
packed authenticator batches (``.avmauth``, :func:`repro.log.storage.
authenticators_to_bytes`) and snapshot page files (``.avmsnap``,
:meth:`repro.vm.snapshot.IncrementalSnapshot.to_bytes`); the ``.jsonl.bz2``
/ ``.json`` files of older archives are only ever read
(``docs/log-archive.md``).

Properties the archive guarantees:

* **Append-only with chain continuity.**  A segment is only accepted if it
  extends the machine's archived head by an unbroken hash chain — the
  archive re-verifies every entry's chain hash at ingest, so a tampered
  shipment is rejected at the door, not discovered at audit time.
* **Crash recovery.**  Data files are written via temp-file + fsync + rename
  before the manifest references them, and each commit is one fsynced line
  appended to the manifest's journal (the checkpoint beside it is replaced
  atomically, and rarely).  Opening an archive loads the checkpoint, replays
  the journal, proves each machine's segments tile into one unbroken chain
  (start/end hashes and dense sequence ranges — no decompression needed),
  and discards a torn last journal line and the orphan files left by a
  crash between the two write steps.
* **Indexed range lookup.**  The per-machine index is kept sorted, so the
  segment covering a sequence number is a binary search away regardless of
  how many segment files the machine has accumulated.
* **Checkpoint retention (GC).**  :meth:`truncate` mirrors the paper's log
  truncation: everything up to a mutually-agreed checkpoint is deleted, the
  checkpoint (sequence + chain hash) is recorded as the new trust anchor,
  and the snapshot at the boundary is retained so audits can still replay
  the surviving suffix.
"""

from __future__ import annotations

import bz2
import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field
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
from repro.log.codec import (
    SegmentStreamDecoder,
    get_codec,
    require_format_version,
    segment_suffix,
)
from repro.log.entries import LogEntry
from repro.log.hashchain import ChainCheckpoint, verify_chain_incremental
from repro.log.segments import LogSegment, concatenate_segments
from repro.log.storage import authenticators_from_bytes, authenticators_to_bytes
from repro.store.manifest import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    AuthBatchRecord,
    Manifest,
    SegmentRecord,
    SnapshotRecord,
    atomic_write,
    fsync_directory,
)
from repro.vm.execution import ExecutionTimestamp
from repro.vm.snapshot import (
    DEFAULT_KEYFRAME_INTERVAL,
    PAGE_SIZE,
    SNAPSHOT_MAGIC,
    IncrementalSnapshot,
    Snapshot,
    apply_delta,
    paginate,
    serialize_state,
)

_AUTH_SUFFIX = ".avmauth"
_SNAPSHOT_SUFFIX = ".avmsnap"
#: what archives written before the packed forms hold (read, never written)
_LEGACY_AUTH_SUFFIX = ".jsonl.bz2"
_AUTH_NAME_RE = re.compile(r"^auths-(\d+)\.(avmauth|jsonl\.bz2)$")
#: file names the archive itself writes — the orphan sweep only ever touches
#: these, so opening an archive in the wrong directory cannot destroy
#: unrelated data.  Covers every codec's segment suffix (.avmlogz = v1
#: JSON+bz2, .avmlogb = v2 binary, .avmlogt = v3 typed).
_OWNED_NAME_RE = re.compile(
    r"^(segment-\d+-\d+\.(avmlogz|avmlogb|avmlogt)"
    r"|auths-\d+\.(avmauth|jsonl\.bz2)|snapshot-\d+(-kf)?\.(avmsnap|json))$")


def _legacy_json_snapshot(record: SnapshotRecord,
                          data: bytes) -> IncrementalSnapshot:
    """A snapshot file from before the page file (``.json``): a keyframe is
    its raw state, a delta its changed pages as hex."""
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


@dataclass
class RecoveryReport:
    """What opening an archive found (and cleaned up)."""

    machines: int = 0
    segments: int = 0
    entries: int = 0
    chains_verified: int = 0
    #: data files present on disk but unreferenced by the manifest — the
    #: residue of a crash between data write and manifest update
    orphan_files: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.orphan_files


@dataclass
class ArchiveStats:
    """Aggregate archive contents (drives the ingest benchmark's table)."""

    machines: int = 0
    segment_files: int = 0
    entries: int = 0
    raw_bytes: int = 0
    stored_bytes: int = 0
    auth_batches: int = 0
    authenticators: int = 0
    snapshots: int = 0

    @property
    def compression_ratio(self) -> float:
        """Stored size over raw size (smaller is better)."""
        if self.raw_bytes == 0:
            return 1.0
        return self.stored_bytes / self.raw_bytes


class LogArchive:
    """A durable archive of tamper-evident logs for a fleet of machines."""

    def __init__(self, root: Union[str, Path], deep_verify: bool = False,
                 format_version: int = 1, obs=None) -> None:
        """Open (or create) the archive rooted at ``root``.

        Opening replays the manifest: per machine, the segment records must
        tile into one unbroken chain starting at the retention checkpoint
        (or genesis).  ``deep_verify`` additionally decodes every segment
        file and re-verifies its hash chain entry by entry.

        ``format_version`` selects the wire codec *new* segments are written
        with (see :mod:`repro.log.codec`); reading always follows each
        record's own ``format_version``, so one archive can hold a mix and
        old archives open regardless of the write-side setting.

        ``obs`` (an :class:`repro.obs.Observability`) meters disk traffic —
        segment read/write bytes and codec versions; the default is the
        shared no-op bundle.
        """
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.format_version = require_format_version(format_version,
                                                     what="log codec")
        self.set_observability(obs)
        self._manifest, swept = Manifest.load(self.root)
        self._index: Dict[str, List[SegmentRecord]] = {}
        self._auth_index: Dict[str, List[AuthBatchRecord]] = {}
        self._snapshot_index: Dict[str, Dict[int, SnapshotRecord]] = {}
        self._auth_counters: Dict[str, int] = {}
        # Stat-validated parse caches for immutable archive files: repeated
        # audits through one archive re-read the same authenticator batches
        # and snapshot page files every run otherwise.  A keyframe's file is
        # the full serialised state, so that cache is LRU-bounded.
        self._auth_batch_cache: Dict[
            str, Tuple[Tuple[int, int], List[Authenticator]]] = {}
        self._snapshot_file_cache: Dict[
            str, Tuple[Tuple[int, int], IncrementalSnapshot]] = {}
        self._snapshot_pages_cache: Dict[
            Tuple[str, int],
            Tuple[Tuple[Tuple[str, Tuple[int, int]], ...],
                  Tuple[bytes, ...]]] = {}
        self.recovery = self._recover(deep_verify, swept)

    def set_observability(self, obs) -> None:
        """(Re)bind this archive's telemetry instruments to ``obs``.

        Exists so a service constructed around an unobserved archive can
        adopt it into its own metrics registry (the instruments are bound
        once here, not looked up per segment).
        """
        from repro.obs import ensure_obs
        self.obs = ensure_obs(obs)
        metrics = self.obs.metrics
        self._m_segments_written = metrics.counter("archive.segments_written_total")
        self._m_raw_bytes_written = metrics.counter("archive.raw_bytes_written_total")
        self._m_bytes_written = metrics.counter("archive.bytes_written_total")
        self._m_segments_read = metrics.counter("archive.segments_read_total")
        self._m_bytes_read = metrics.counter("archive.bytes_read_total")
        self._m_snapshots_written = metrics.counter("archive.snapshots_written_total")

    # -- recovery ------------------------------------------------------------

    def _recover(self, deep_verify: bool, swept: List[str]) -> RecoveryReport:
        report = RecoveryReport(orphan_files=swept)
        for record in self._manifest.segments:
            self._index.setdefault(record.machine, []).append(record)
        for batch in self._manifest.auth_batches:
            self._auth_index.setdefault(batch.machine, []).append(batch)
            match = _AUTH_NAME_RE.match(Path(batch.file_name).name)
            if match:
                counter = self._auth_counters.get(batch.machine, 0)
                self._auth_counters[batch.machine] = max(counter, int(match.group(1)))
        for snap in self._manifest.snapshots:
            self._snapshot_index.setdefault(snap.machine, {})[snap.snapshot_id] = snap

        referenced = {record.file_name for record in self._manifest.segments}
        referenced.update(batch.file_name for batch in self._manifest.auth_batches)
        referenced.update(snap.file_name for snap in self._manifest.snapshots)
        for path in sorted(self.root.rglob("*")):
            if not path.is_file() or path.name in (MANIFEST_NAME, JOURNAL_NAME):
                continue
            relative = path.relative_to(self.root).as_posix()
            if relative in referenced:
                if not path.stat().st_size:
                    raise ArchiveIntegrityError(
                        f"archived file {relative} is empty on disk")
                referenced.discard(relative)
                continue
            if not (_OWNED_NAME_RE.match(path.name)
                    or path.name.endswith(".tmp")):
                continue  # not ours — never delete foreign files
            # Orphan: written but never committed to the manifest's journal
            # (or a leftover .tmp from a torn atomic write).  Recovery
            # discards it — no record ever referenced it, so the archive
            # behaves as if the shipment had never arrived and ingest can
            # accept it afresh.
            path.unlink()
            report.orphan_files.append(relative)
        if referenced:
            raise ArchiveIntegrityError(
                f"manifest references missing file {min(referenced)}")

        for machine, records in self._index.items():
            records.sort(key=lambda record: record.first_sequence)
            expected = self.start_checkpoint(machine)
            for record in records:
                if record.first_sequence != expected.sequence + 1 \
                        or record.start_hash != expected.chain_hash:
                    raise ArchiveIntegrityError(
                        f"archive for {machine!r} is not contiguous at "
                        f"sequence {record.first_sequence}")
                if record.entry_count != \
                        record.last_sequence - record.first_sequence + 1:
                    raise ArchiveIntegrityError(
                        f"segment {record.file_name} advertises "
                        f"{record.entry_count} entries for range "
                        f"[{record.first_sequence}, {record.last_sequence}]")
                if deep_verify:
                    segment = self.read_segment(record)
                    try:
                        verify_chain_incremental(segment.entries, expected)
                    except HashChainError as exc:
                        raise ArchiveIntegrityError(
                            f"segment {record.file_name} fails hash-chain "
                            f"verification: {exc}") from exc
                expected = record.end_checkpoint()
                report.segments += 1
                report.entries += record.entry_count
            report.chains_verified += 1
        report.machines = len(self._index)
        return report

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
        retained = self._manifest.retained.get(machine)
        return retained if retained is not None else ChainCheckpoint.genesis()

    def head_checkpoint(self, machine: str) -> ChainCheckpoint:
        """Chain state after the last archived entry."""
        records = self._index.get(machine)
        if not records:
            return self.start_checkpoint(machine)
        return records[-1].end_checkpoint()

    def retained_checkpoint(self, machine: str) -> Optional[ChainCheckpoint]:
        """The truncation checkpoint, or ``None`` if never truncated."""
        return self._manifest.retained.get(machine)

    def stats(self) -> ArchiveStats:
        stats = ArchiveStats(machines=len(self.machines()))
        for records in self._index.values():
            for record in records:
                stats.segment_files += 1
                stats.entries += record.entry_count
                stats.raw_bytes += record.raw_bytes
                stats.stored_bytes += record.stored_bytes
        for batches in self._auth_index.values():
            stats.auth_batches += len(batches)
            stats.authenticators += sum(batch.count for batch in batches)
        stats.snapshots = sum(len(snaps) for snaps in self._snapshot_index.values())
        return stats

    # -- writing -------------------------------------------------------------

    def append_segment(self, segment: LogSegment,
                       sealed_by_snapshot: Optional[int] = None, *,
                       wire: Optional[bytes] = None) -> SegmentRecord:
        """Archive one sealed segment; it must extend the machine's head.

        The entire hash chain of the segment is re-verified against the
        archived head checkpoint before anything touches disk, so the
        archive only ever holds segments that tile into one unbroken chain.
        Raises :class:`HashChainError` for a broken/forked shipment and
        :class:`StoreError` for structural problems (empty segment, stale
        range).

        ``wire`` is the blob ``segment`` was just decoded from, if any — the
        caller vouches for that, pass nothing else.  When it is laid out as
        the archive's own codec writes (the decoders are strict: every byte
        of it was consumed) it is stored as it arrived instead of encoding
        the same entries a second time.
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
        file_name = (f"{self._machine_dir(machine)}/segment-"
                     f"{segment.first_sequence:08d}-{segment.last_sequence:08d}"
                     f"{segment_suffix(self.format_version)}")
        self._write_data_file(file_name, data)
        record = SegmentRecord(
            machine=machine,
            file_name=file_name,
            first_sequence=segment.first_sequence,
            last_sequence=segment.last_sequence,
            start_hash=segment.start_hash,
            end_hash=end.chain_hash,
            entry_count=len(segment.entries),
            raw_bytes=raw,
            stored_bytes=len(data),
            sealed_by_snapshot=sealed_by_snapshot,
            format_version=self.format_version,
        )
        self._index.setdefault(machine, []).append(record)
        self._manifest.commit(self.root, "segment", record)
        self._m_segments_written.inc()
        self._m_raw_bytes_written.inc(raw)
        self._m_bytes_written.inc(len(data))
        self.obs.metrics.counter(
            f"archive.segments_written.v{self.format_version}").inc()
        return record

    def store_authenticators(self, machine: str,
                             authenticators: List[Authenticator]
                             ) -> Optional[AuthBatchRecord]:
        """Archive a batch of authenticators issued by ``machine``.

        Batches are kept in shipment order; :meth:`authenticators_for`
        replays them in the same order, so the archive reproduces a
        collector's authenticator list exactly.  Empty batches are ignored.
        """
        batch = [auth for auth in authenticators if auth.machine == machine]
        if not batch:
            return None
        index = self._auth_counters.get(machine, 0) + 1
        self._auth_counters[machine] = index
        file_name = f"{self._machine_dir(machine)}/auths-{index:06d}{_AUTH_SUFFIX}"
        self._write_data_file(file_name, authenticators_to_bytes(batch))
        record = AuthBatchRecord(
            machine=machine,
            file_name=file_name,
            count=len(batch),
            min_sequence=min(auth.sequence for auth in batch),
            max_sequence=max(auth.sequence for auth in batch),
        )
        self._auth_index.setdefault(machine, []).append(record)
        self._manifest.commit(self.root, "auth_batch", record)
        return record

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

        Section 4.4's space saving, end to end: between keyframes (the
        deltas that name no base and carry every page) the archive stores
        only what changed; :meth:`load_snapshot` replays the chain when an
        audit needs the full state.  A base must already be archived — a
        delta whose base is missing could never be materialised, so it is
        rejected (:class:`SnapshotError`) for the ingest layer to
        quarantine.  ``wire``: as for :meth:`append_segment`.
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
        record = self._write_snapshot_file(machine, snapshot, wire=wire)
        self._snapshot_index.setdefault(machine, {})[snapshot.snapshot_id] = record
        self._manifest.commit(self.root, "snapshot", record)
        self._m_snapshots_written.inc()
        return record

    def _write_snapshot_file(self, machine: str, snapshot: IncrementalSnapshot,
                             tag: str = "", wire: Optional[bytes] = None
                             ) -> SnapshotRecord:
        """Write ``snapshot``'s page file; the caller commits the record."""
        file_name = (f"{self._machine_dir(machine)}/snapshot-"
                     f"{snapshot.snapshot_id:06d}{tag}{_SNAPSHOT_SUFFIX}")
        self._write_data_file(
            file_name, bytes(wire) if wire is not None else snapshot.to_bytes())
        base = snapshot.base_snapshot_id
        return SnapshotRecord(
            machine=machine, snapshot_id=snapshot.snapshot_id,
            file_name=file_name, state_root=snapshot.state_root,
            transfer_bytes=snapshot.transfer_bytes,
            execution=snapshot.execution.to_dict(),
            kind="keyframe" if base is None else "delta",
            base_snapshot_id=base, page_count=snapshot.page_count,
            page_size=snapshot.page_size)

    def _write_data_file(self, file_name: str, data: bytes) -> None:
        """Write one data file durably, before any record names it."""
        path = self.root / file_name
        new_directory = not path.parent.exists()
        atomic_write(path, data)
        if new_directory:
            fsync_directory(self.root)  # the machine directory's own name

    # -- reading -------------------------------------------------------------

    def read_segment(self, record: SegmentRecord) -> LogSegment:
        """Load one archived segment and check it against its index record."""
        path = self.root / record.file_name
        try:
            codec = get_codec(record.format_version)
            segment = codec.decode_segment(path.read_bytes())
        except (OSError, EOFError, ValueError, LogFormatError) as exc:
            raise ArchiveIntegrityError(
                f"cannot read archived segment {record.file_name}: {exc}") from exc
        if segment.machine != record.machine \
                or not segment.entries \
                or segment.first_sequence != record.first_sequence \
                or segment.last_sequence != record.last_sequence \
                or segment.start_hash != record.start_hash \
                or segment.end_hash != record.end_hash:
            raise ArchiveIntegrityError(
                f"archived segment {record.file_name} does not match its "
                f"manifest record")
        self._m_segments_read.inc()
        self._m_bytes_read.inc(record.stored_bytes)
        return segment

    def stream_segment(self, record: SegmentRecord,
                       chunk_bytes: int = 1 << 16) -> Iterator[LogEntry]:
        """Stream one archived segment's entries without materializing it.

        Decodes the segment file incrementally
        (:class:`~repro.log.codec.SegmentStreamDecoder`, which sniffs the
        wire format by magic) and yields one entry at a time — peak memory
        is one stored chunk plus one entry, not the segment.  The same metadata checks :meth:`read_segment`
        performs run incrementally: header fields before the first entry,
        first/last sequence and end hash as they stream past, entry count at
        exhaustion.  Any decode failure or metadata mismatch raises
        :class:`ArchiveIntegrityError`, exactly like the materializing
        reader.  The hash chain is *not* verified here — feed the stream to
        :func:`repro.log.hashchain.extend_checkpoint` (the audit stream
        pipeline does).
        """
        path = self.root / record.file_name
        decoder = SegmentStreamDecoder()
        self._m_segments_read.inc()
        self._m_bytes_read.inc(record.stored_bytes)
        last_entry: Optional[LogEntry] = None
        try:
            with open(path, "rb") as handle:
                chunks = iter(lambda: handle.read(chunk_bytes), b"")
                for entry in decoder.entries(chunks):
                    if decoder.entry_count == 1:
                        header = decoder.header or {}
                        if str(header.get("machine")) != record.machine \
                                or header.get("start_hash") \
                                != record.start_hash.hex() \
                                or entry.sequence != record.first_sequence:
                            raise ArchiveIntegrityError(
                                f"archived segment {record.file_name} does "
                                f"not match its manifest record")
                    if entry.sequence > record.last_sequence or (
                            entry.sequence == record.last_sequence
                            and entry.chain_hash != record.end_hash):
                        # Checked before the yield, so a consumer verifying
                        # the chain as it pulls sees the same error class the
                        # materializing reader raises for this corruption.
                        raise ArchiveIntegrityError(
                            f"archived segment {record.file_name} does not "
                            f"match its manifest record")
                    last_entry = entry
                    yield entry
        except (OSError, EOFError, ValueError, LogFormatError) as exc:
            raise ArchiveIntegrityError(
                f"cannot read archived segment {record.file_name}: "
                f"{exc}") from exc
        if last_entry is None \
                or decoder.entry_count != record.entry_count \
                or last_entry.sequence != record.last_sequence \
                or last_entry.chain_hash != record.end_hash:
            raise ArchiveIntegrityError(
                f"archived segment {record.file_name} does not match its "
                f"manifest record")

    def segments_for(self, machine: str) -> List[LogSegment]:
        """All retained segments of ``machine``, oldest first."""
        return [self.read_segment(record)
                for record in self._index.get(machine, [])]

    def materialized_log(self, machine: str) -> LogSegment:
        """The whole retained log, explicitly materialized in memory.

        Peak memory grows with log length — audits stream instead
        (:mod:`repro.audit.stream`), convictions included; this exists for a
        log that cannot be chunked and for callers that really want the
        whole log at once.
        """
        segments = self.segments_for(machine)
        if not segments:
            raise StoreError(f"no archived segments for {machine!r}")
        return concatenate_segments(segments)

    def reencode_segments(self, destination_root: Union[str, Path],
                          format_version: int) -> "LogArchive":
        """Copy this archive to ``destination_root`` in another wire format.

        Segments are decoded, re-verified (by the destination's ingest
        path) and re-encoded with ``format_version``'s codec, preserving
        sealing metadata; authenticator batches and snapshots are copied
        content-identically.  Returns the new archive.  Used by the
        cross-format differential suite and as the migration path between
        codec generations.
        """
        destination = LogArchive(destination_root,
                                 format_version=format_version)
        for machine in self.machines():
            # Install the retention anchor first: a truncated source's
            # earliest segment extends the checkpoint, not genesis.
            retained = self.retained_checkpoint(machine)
            if retained is not None:
                destination.adopt_retention_checkpoint(machine, retained)
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
        """Index lookup: the segment record containing ``sequence``.

        Binary search over the sorted per-machine index — cost is independent
        of segment *size* and logarithmic in segment *count*.
        """
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
        """One archived batch, parsed.  Batch files are immutable once
        shipped (growth appends new files), so the parse is cached against
        the file's stat signature."""
        try:
            signature = self._file_signature(batch.file_name)
            cached = self._auth_batch_cache.get(batch.file_name)
            if cached is not None and cached[0] == signature:
                return cached[1]
            data = (self.root / batch.file_name).read_bytes()
            if batch.file_name.endswith(_LEGACY_AUTH_SUFFIX):
                data = bz2.decompress(data)
            parsed = authenticators_from_bytes(data)
        except (OSError, EOFError, ValueError, LogFormatError) as exc:
            raise ArchiveIntegrityError(
                f"corrupt authenticator batch {batch.file_name}: {exc}") from exc
        self._auth_batch_cache[batch.file_name] = (signature, parsed)
        return parsed

    def snapshot_store(self, machine: str) -> "ArchiveSnapshotStore":
        """A snapshot-manager view over the machine's archived snapshots."""
        return ArchiveSnapshotStore(self, machine)

    def load_snapshot(self, machine: str, snapshot_id: int) -> Snapshot:
        """Rebuild a full :class:`~repro.vm.snapshot.Snapshot` from the archive.

        A keyframe's file carries every page; a delta is materialised by
        walking back to the nearest archived keyframe and replaying the
        changed-page chain forward, verifying page count and Merkle root at
        every step — so Merkle-root verification works exactly as on the
        source machine and a corrupt chain surfaces as
        :class:`SnapshotError`, never as a silently-wrong state.
        """
        record = self._snapshot_index.get(machine, {}).get(snapshot_id)
        if record is None:
            raise SnapshotError(
                f"no archived snapshot {snapshot_id} for {machine!r}")
        chain: List[SnapshotRecord] = []
        base = record
        pages: Optional[List[bytes]] = None
        deps: List[Tuple[str, Tuple[int, int]]] = []
        while base.kind == "delta":
            cached = self._cached_snapshot_pages(machine, base.snapshot_id)
            if cached is not None:
                deps.extend(cached[0])
                pages = list(cached[1])
                break
            chain.append(base)
            if base.base_snapshot_id is None:
                raise ArchiveIntegrityError(
                    f"delta snapshot {base.snapshot_id} of {machine!r} "
                    f"has no base id")
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
            deps.append((base.file_name, self._file_signature(base.file_name)))
        for delta_record in reversed(chain):
            pages = apply_delta(pages, self._read_snapshot_file(delta_record))
            deps.append((delta_record.file_name,
                         self._file_signature(delta_record.file_name)))
        if record.kind == "delta" and chain:
            self._snapshot_pages_cache[(machine, record.snapshot_id)] = \
                (tuple(deps), tuple(pages))
            while (len(self._snapshot_pages_cache)
                   > self._SNAPSHOT_PAGES_CACHE_LIMIT):
                self._snapshot_pages_cache.pop(
                    next(iter(self._snapshot_pages_cache)))
        # state=None: the Snapshot parses its state dict lazily from the
        # canonical pages, so every caller gets a fresh dict even when the
        # pages came out of a cache.
        return Snapshot(snapshot_id=snapshot_id,
                        execution=ExecutionTimestamp.from_dict(record.execution),
                        pages=pages, state_root=record.state_root,
                        state=None)

    #: parsed snapshot files held: one keyframe interval's chain (a keyframe's
    #: is a full serialised state — bounded so that a long archive walk
    #: cannot accumulate every one in memory)
    _SNAPSHOT_FILE_CACHE_LIMIT = DEFAULT_KEYFRAME_INTERVAL

    #: reconstructed delta snapshots held in the pages memo (see
    #: :meth:`_cached_snapshot_pages`)
    _SNAPSHOT_PAGES_CACHE_LIMIT = 4

    def _file_signature(self, file_name: str) -> Tuple[int, int]:
        stat = (self.root / file_name).stat()
        return (stat.st_mtime_ns, stat.st_size)

    def _cached_snapshot_pages(
            self, machine: str, snapshot_id: int,
    ) -> Optional[Tuple[Tuple[Tuple[str, Tuple[int, int]], ...],
                        Tuple[bytes, ...]]]:
        """A previously reconstructed (and Merkle-verified) delta snapshot.

        An audit fetches snapshots in chunk order, and each fetch walks
        the delta chain back to a keyframe — quadratic re-application of
        the same deltas over one audit.  The memo keeps the page tuples of
        the most recently reconstructed delta snapshots together with the
        stat signatures of every file that went into them; a hit is only
        served while all of those files are unchanged, so rewriting any
        delta or keyframe in the chain forces a fresh (re-verified)
        reconstruction.
        """
        entry = self._snapshot_pages_cache.get((machine, snapshot_id))
        if entry is None:
            return None
        deps, pages = entry
        try:
            for file_name, signature in deps:
                if self._file_signature(file_name) != signature:
                    raise OSError("stale")
        except OSError:
            del self._snapshot_pages_cache[(machine, snapshot_id)]
            return None
        # Refresh LRU position.
        self._snapshot_pages_cache[(machine, snapshot_id)] = \
            self._snapshot_pages_cache.pop((machine, snapshot_id))
        return deps, pages

    def _read_snapshot_file(self, record: SnapshotRecord) -> IncrementalSnapshot:
        """One archived snapshot file, decoded.  Snapshot files are
        immutable and a chain walk re-reads the same ones a fetch at a time,
        so the decoded form is cached against the file's stat signature
        (LRU); :func:`apply_delta` treats a delta as read-only, so sharing
        the cached instance is safe."""
        cache = self._snapshot_file_cache
        try:
            signature = self._file_signature(record.file_name)
            cached = cache.pop(record.file_name, None)
            if cached is not None and cached[0] == signature:
                cache[record.file_name] = cached  # refresh LRU position
                return cached[1]
            data = (self.root / record.file_name).read_bytes()
            snapshot = IncrementalSnapshot.from_bytes(data) \
                if data.startswith(SNAPSHOT_MAGIC) \
                else _legacy_json_snapshot(record, data)
        except (OSError, ValueError, KeyError, TypeError, SnapshotError) as exc:
            raise ArchiveIntegrityError(
                f"corrupt archived snapshot {record.file_name}: {exc}") from exc
        if (snapshot.snapshot_id, snapshot.base_snapshot_id, snapshot.state_root) \
                != (record.snapshot_id, record.base_snapshot_id, record.state_root):
            raise ArchiveIntegrityError(
                f"archived snapshot {record.file_name} does not match its "
                f"manifest record")
        cache[record.file_name] = (signature, snapshot)
        while len(cache) > self._SNAPSHOT_FILE_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        return snapshot

    def snapshot_transfer_bytes(self, machine: str, snapshot_id: int) -> int:
        record = self._snapshot_index.get(machine, {}).get(snapshot_id)
        if record is None:
            raise SnapshotError(
                f"no archived snapshot {snapshot_id} for {machine!r}")
        return record.transfer_bytes

    def initial_state_for(self, machine: str) -> Tuple[Optional[Dict[str, Any]], int]:
        """Replay start state for the retained suffix.

        ``(None, 0)`` when the archive still reaches back to the beginning of
        the log; otherwise the state and transfer cost of the snapshot at the
        retention boundary.
        """
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

    # -- shard handoff -------------------------------------------------------

    def copy_snapshots_to(self, destination: "LogArchive",
                          machine: str) -> int:
        """Copy ``machine``'s archived snapshots into another archive.

        Preserves keyframe/delta structure, transfer costs and execution
        timestamps (ascending id order, so every delta's base precedes it).
        Snapshots the destination already holds are skipped — the store
        methods deduplicate by id — which makes an interrupted shard
        handoff safely resumable.  Returns the number of snapshots copied.
        """
        copied = 0
        already = set(destination._snapshot_index.get(machine, {}))
        snaps = self._snapshot_index.get(machine, {})
        for snapshot_id in sorted(snaps):
            if snapshot_id not in already:
                destination.store_snapshot_delta(
                    machine, self._read_snapshot_file(snaps[snapshot_id]))
                copied += 1
        return copied

    def adopt_retention_checkpoint(self, machine: str,
                                   checkpoint: ChainCheckpoint) -> None:
        """Install another archive's retention anchor for ``machine``.

        The first step of a shard handoff: a truncated source archive's
        earliest segment extends its retention checkpoint, not genesis, so
        the destination must adopt the anchor *before* any segment arrives.
        Idempotent when the same checkpoint is already installed (an
        interrupted handoff simply re-runs); any *conflicting* anchor, or an
        adoption attempted after segments exist, is refused
        (:class:`RetentionError`) — silently moving the anchor would fork
        the archived chain.
        """
        current = self._manifest.retained.get(machine)
        if current is not None:
            if current.sequence == checkpoint.sequence \
                    and current.chain_hash == checkpoint.chain_hash:
                return  # handoff resume: already adopted
            raise RetentionError(
                f"cannot adopt retention checkpoint {checkpoint.sequence} for "
                f"{machine!r}: a different anchor (sequence "
                f"{current.sequence}) is already installed")
        if self._index.get(machine):
            raise RetentionError(
                f"cannot adopt a retention checkpoint for {machine!r}: "
                f"segments are already archived here")
        self._manifest.retained[machine] = checkpoint
        self._manifest.checkpoint(self.root)

    def forget_machine(self, machine: str,
                       keep_authenticators: bool = True) -> int:
        """Release ``machine``'s archived chain (the source side of a handoff).

        Removes the machine's segments, snapshots and retention anchor after
        they have been migrated to another shard's archive; returns the
        number of data files deleted.  Authenticator batches *about* the
        machine are kept by default — they are evidence collected from this
        shard's own reporters, stay valid wherever the machine's chain
        lives, and the fleet coordinator pools them across shards; pass
        ``keep_authenticators=False`` to drop them too.  The manifest is
        committed before any file is unlinked, so a crash mid-delete leaves
        orphan files for the next open's sweep, never a half-indexed
        archive.
        """
        records = self._index.pop(machine, [])
        snaps = self._snapshot_index.pop(machine, {})
        batches: List[AuthBatchRecord] = []
        if not keep_authenticators:
            batches = self._auth_index.pop(machine, [])
            self._auth_counters.pop(machine, None)
        had_retained = machine in self._manifest.retained
        if not (records or snaps or batches or had_retained):
            return 0
        self._manifest.segments = [record for record in self._manifest.segments
                                   if record.machine != machine]
        self._manifest.snapshots = [snap for snap in self._manifest.snapshots
                                    if snap.machine != machine]
        if not keep_authenticators:
            self._manifest.auth_batches = [
                batch for batch in self._manifest.auth_batches
                if batch.machine != machine]
        self._manifest.retained.pop(machine, None)
        self._manifest.checkpoint(self.root)
        removed = 0
        for file_name in ([record.file_name for record in records]
                          + [snap.file_name for snap in snaps.values()]
                          + [batch.file_name for batch in batches]):
            (self.root / file_name).unlink(missing_ok=True)
            removed += 1
        for snap in snaps.values():
            self._snapshot_file_cache.pop(snap.file_name, None)
        for batch in batches:
            self._auth_batch_cache.pop(batch.file_name, None)
        self._snapshot_pages_cache = {
            key: value for key, value in self._snapshot_pages_cache.items()
            if key[0] != machine}
        return removed

    # -- retention / GC ------------------------------------------------------

    def truncate(self, machine: str, up_to_sequence: int) -> ChainCheckpoint:
        """Garbage-collect ``machine``'s log up to a checkpoint (Section 4.2).

        Whole segments whose entries all fall at or below ``up_to_sequence``
        are deleted — truncation lands on the greatest snapshot-sealed
        segment boundary not beyond the requested sequence, so the surviving
        suffix still starts at a replayable snapshot.  The boundary's
        ``(sequence, chain hash)`` is recorded as the machine's retention
        checkpoint: the mutually-agreed anchor future audits verify against.
        Returns the checkpoint actually applied (the current one when no
        eligible boundary exists).
        """
        current = self.start_checkpoint(machine)
        if up_to_sequence < current.sequence:
            raise RetentionError(
                f"cannot truncate {machine!r} to {up_to_sequence}: already "
                f"truncated to {current.sequence}")
        records = self._index.get(machine, [])
        archived_snaps = self._snapshot_index.get(machine, {})
        boundary: Optional[SegmentRecord] = None
        for record in records:
            # Eligible boundaries are snapshot-sealed *and* have the boundary
            # snapshot in the archive — otherwise the surviving suffix would
            # have no replay start (e.g. the snapshot shipment was dropped).
            if record.last_sequence <= up_to_sequence \
                    and record.sealed_by_snapshot is not None \
                    and record.sealed_by_snapshot in archived_snaps:
                boundary = record
        if boundary is None:
            return current

        checkpoint = boundary.end_checkpoint()
        # The surviving suffix must still start at a *materialisable*
        # snapshot once its delta chain's ancestors are gone: a delta
        # boundary is rewritten as a keyframe first.
        stale_boundary_file = self._ensure_boundary_keyframe(
            machine, boundary.sealed_by_snapshot)
        dropped = [record for record in records
                   if record.last_sequence <= boundary.last_sequence]
        kept = [record for record in records
                if record.last_sequence > boundary.last_sequence]
        dropped_auths = [batch for batch in self._auth_index.get(machine, [])
                         if batch.max_sequence <= boundary.last_sequence]
        kept_auths = [batch for batch in self._auth_index.get(machine, [])
                      if batch.max_sequence > boundary.last_sequence]
        snaps = self._snapshot_index.get(machine, {})
        dropped_snaps = [snap for snap_id, snap in snaps.items()
                         if snap_id < boundary.sealed_by_snapshot]
        kept_snaps = {snap_id: snap for snap_id, snap in snaps.items()
                      if snap_id >= boundary.sealed_by_snapshot}

        self._index[machine] = kept
        self._auth_index[machine] = kept_auths
        self._snapshot_index[machine] = kept_snaps
        self._manifest.segments = [record for record in self._manifest.segments
                                   if record.machine != machine
                                   or record in kept]
        self._manifest.auth_batches = [batch for batch in self._manifest.auth_batches
                                       if batch.machine != machine
                                       or batch in kept_auths]
        self._manifest.snapshots = [snap for snap in self._manifest.snapshots
                                    if snap.machine != machine
                                    or snap.snapshot_id in kept_snaps]
        self._manifest.retained[machine] = checkpoint
        # Commit the manifest first: a crash after this point leaves orphan
        # data files, which the next open discards.
        self._manifest.checkpoint(self.root)
        for record in dropped:
            (self.root / record.file_name).unlink(missing_ok=True)
        for batch in dropped_auths:
            (self.root / batch.file_name).unlink(missing_ok=True)
        for snap in dropped_snaps:
            (self.root / snap.file_name).unlink(missing_ok=True)
        if stale_boundary_file is not None:
            (self.root / stale_boundary_file).unlink(missing_ok=True)
        return checkpoint

    def _ensure_boundary_keyframe(self, machine: str,
                                  snapshot_id: int) -> Optional[str]:
        """Materialise a delta snapshot into a keyframe (for GC boundaries).

        Writes the keyframe to a *new* file and swaps the in-memory record;
        the manifest is committed by the caller, so a crash at any point
        leaves either the old delta (new file is an orphan) or the new
        keyframe (old file is an orphan) — never a half state.  Returns the
        old file name to delete after the manifest commit, or ``None`` if
        the snapshot already was a keyframe.
        """
        record = self._snapshot_index.get(machine, {}).get(snapshot_id)
        if record is None or record.kind == "keyframe":
            return None
        snapshot = self.load_snapshot(machine, snapshot_id)  # verifies chain
        new_record = self._write_snapshot_file(machine, IncrementalSnapshot(
            snapshot_id=snapshot_id, execution=snapshot.execution,
            base_snapshot_id=None,
            changed_pages=dict(enumerate(snapshot.pages)),
            page_count=len(snapshot.pages), state_root=record.state_root,
            page_size=record.page_size or PAGE_SIZE,
            transfer_bytes=record.transfer_bytes), tag="-kf")
        self._snapshot_index[machine][snapshot_id] = new_record
        self._manifest.snapshots = [
            new_record if (snap.machine == machine
                           and snap.snapshot_id == snapshot_id) else snap
            for snap in self._manifest.snapshots]
        return record.file_name

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _machine_dir(machine: str) -> str:
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", machine)
        return safe or "machine"


class ArchiveSnapshotStore:
    """Duck-typed stand-in for :class:`~repro.vm.snapshot.SnapshotManager`.

    The audit front-ends' boundary-snapshot fetch
    (:func:`repro.audit.kernel.fetch_verified_snapshot_entry`) only calls
    :meth:`get` and :meth:`transfer_cost_bytes`; this adapter serves both
    from the archive, reporting the transfer cost the *source machine*
    recorded so archive-backed audit costs equal in-memory ones.
    """

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
