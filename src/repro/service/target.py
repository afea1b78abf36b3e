"""Archive-backed audit targets.

An audit reads one surface from its target, whichever kind it is
(``docs/streaming-audit.md``): ``identity``; ``segment_records()``, the
log's snapshot-delimited segments in order, each with its end checkpoint
and the id of the snapshot sealing it; ``read_segments(run)``, a run of
those as one segment that starts where the run's first record does;
``snapshots``, the snapshots it serves; ``replay_start()``, where the
replay of the whole log starts; and ``audit_chunks``, how many chunks a
whole-log audit at one worker reads it in.

:class:`ArchiveBackedMachine` serves that surface from the durable archive,
:class:`~repro.avmm.monitor.AccountableVMM` from its live log.  The audit
engine (:class:`~repro.audit.engine.AuditScheduler`) plans both one way
(:func:`repro.audit.stream.iter_stream_chunks`): an archived log is read a
sealed run at a time off its segment files, so peak auditor memory is
O(chunk) rather than O(log), and because the archive round-trip is
bit-exact, verdicts and evidence are identical to the live log's.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import StoreError
from repro.log.segments import LogSegment
from repro.store.archive import ArchiveSnapshotStore, LogArchive
from repro.store.manifest import SegmentRecord


class ArchiveBackedMachine:
    """An audit target served from the durable archive instead of a live VMM."""

    #: a whole-log audit at one worker reads one sealed run per chunk, so
    #: the auditor holds one chunk of the archived log at a time
    audit_chunks: Optional[int] = None

    def __init__(self, archive: LogArchive, identity: str) -> None:
        self.archive = archive
        self.identity = identity

    @property
    def snapshots(self) -> ArchiveSnapshotStore:
        return self.archive.snapshot_store(self.identity)

    def segment_records(self) -> List[SegmentRecord]:
        """The archived segments' index records, oldest first."""
        records = self.archive.segment_records(self.identity)
        if not records:
            raise StoreError(f"no archived segments for {self.identity!r}")
        return records

    def read_segments(self, records: Sequence[SegmentRecord]) -> LogSegment:
        """A run of records' entries, streamed off their segment files."""
        return LogSegment(
            machine=self.identity, start_hash=records[0].start_hash,
            entries=[entry for record in records
                     for entry in self.archive.stream_segment(record)])

    def get_log_segment(self) -> LogSegment:
        """The whole retained log as one segment, materialized by the
        archive's other reader (:meth:`LogArchive.read_segment`): peak
        memory grows with its length.  The audit engine reads the log chunk
        by chunk instead.
        """
        records = self.segment_records()
        return LogSegment(
            machine=self.identity, start_hash=records[0].start_hash,
            entries=[entry for record in records
                     for entry in self.archive.read_segment(record).entries])

    def replay_start(self) -> Tuple[Optional[Dict[str, Any]], int]:
        """Replay start state and transfer cost for the retained suffix."""
        return self.archive.initial_state_for(self.identity)
