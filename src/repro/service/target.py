"""Archive-backed audit targets.

:class:`ArchiveBackedMachine` presents a machine's *archived* log through the
part of the audit-serving surface :class:`~repro.avmm.monitor.AccountableVMM`
exposes that audits read (``identity``, ``get_log_segment``, ``snapshots``),
so :class:`~repro.audit.auditor.Auditor`,
:class:`~repro.audit.engine.AuditScheduler` and
:class:`~repro.audit.spot_check.SpotChecker` gain an archive-backed mode
without changing a line of audit code — the auditor cannot tell whether the
segments it verifies came from a live machine or from disk, and because the
archive round-trip is bit-exact, verdicts and evidence are identical.

Archive-backed targets additionally advertise ``supports_streaming``:
``Auditor.audit`` sends them to the audit engine
(:class:`~repro.audit.engine.AuditScheduler`), which decodes, verifies and
replays their logs chunk by chunk (:mod:`repro.audit.stream`) instead of
materializing the whole retained log, so peak auditor memory is O(chunk)
rather than O(log).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import StoreError
from repro.log.segments import LogSegment, concatenate_segments
from repro.store.archive import ArchiveSnapshotStore, LogArchive


class ArchiveBackedMachine:
    """An audit target served from the durable archive instead of a live VMM."""

    #: the audit engine reads this target's log chunk by chunk instead of
    #: materializing it (:mod:`repro.audit.stream`); duck-typed so audit
    #: code never has to import the store layer
    supports_streaming = True

    def __init__(self, archive: LogArchive, identity: str) -> None:
        self.archive = archive
        self.identity = identity

    # -- audit serving (mirrors AccountableVMM) ------------------------------

    @property
    def snapshots(self) -> ArchiveSnapshotStore:
        return self.archive.snapshot_store(self.identity)

    def get_log_segment(self) -> LogSegment:
        """The whole retained log as one segment, materialized: peak memory
        grows with its length.  The audit engine reads the log chunk by
        chunk instead.
        """
        records = self.archive.segment_records(self.identity)
        if not records:
            raise StoreError(f"no archived segments for {self.identity!r}")
        return concatenate_segments([self.archive.read_segment(record)
                                     for record in records])

    # -- retention-aware helpers ---------------------------------------------

    def is_truncated(self) -> bool:
        """True when GC has discarded a prefix of this machine's log."""
        return self.archive.retained_checkpoint(self.identity) is not None

    def initial_state(self) -> Tuple[Optional[Dict[str, Any]], int]:
        """Replay start state and transfer cost for the retained suffix."""
        return self.archive.initial_state_for(self.identity)
