"""Archive-backed audit targets.

:class:`ArchiveBackedMachine` presents a machine's *archived* log through the
same audit-serving surface :class:`~repro.avmm.monitor.AccountableVMM`
exposes (``get_log_segment``, ``get_snapshot_segments``, ``snapshots``,
``authenticators_from``), so :class:`~repro.audit.auditor.Auditor`,
:class:`~repro.audit.engine.AuditScheduler`,
:class:`~repro.audit.spot_check.SpotChecker` and
:class:`~repro.audit.online.OnlineAuditor` all gain an archive-backed mode
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

from typing import Any, Dict, List, Optional, Tuple

from repro.log.authenticator import Authenticator
from repro.log.hashchain import ChainCheckpoint
from repro.log.segments import LogSegment
from repro.store.archive import ArchiveSnapshotStore, LogArchive


class _ArchiveLogView:
    """Just enough of the log surface for lag tracking (``len(target.log)``)."""

    def __init__(self, archive: LogArchive, machine: str) -> None:
        self._archive = archive
        self._machine = machine

    def __len__(self) -> int:
        records = self._archive.segment_records(self._machine)
        return records[-1].last_sequence if records else 0

    def __iter__(self):
        for segment in self._archive.segments_for(self._machine):
            yield from segment.entries


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
    def log(self) -> _ArchiveLogView:
        return _ArchiveLogView(self.archive, self.identity)

    @property
    def snapshots(self) -> ArchiveSnapshotStore:
        return self.archive.snapshot_store(self.identity)

    def get_log_segment(self, first_sequence: Optional[int] = None,
                        last_sequence: Optional[int] = None) -> LogSegment:
        """The retained log (or a sub-range of it) as one segment.

        Materializes every requested entry — no audit path calls this
        after a detection; the audit engine only does for a log that cannot
        be chunked.
        """
        if first_sequence is None and last_sequence is None:
            return self.archive.materialized_log(self.identity)
        records = self.archive.segment_records(self.identity)
        first = first_sequence if first_sequence is not None \
            else records[0].first_sequence
        last = last_sequence if last_sequence is not None \
            else records[-1].last_sequence
        return self.archive.read_range(self.identity, first, last)

    def get_snapshot_segments(self) -> List[LogSegment]:
        """The archived segments — already rolled at snapshot boundaries."""
        return self.archive.segments_for(self.identity)

    def authenticators_from(self, peer: str) -> List[Authenticator]:
        """Archived authenticators issued by ``peer``.

        The ingest service files authenticators under their *issuer*, so an
        auditor asking the archive target for a machine's authenticators
        gets the concatenation of everything the fleet shipped about it.
        """
        return self.archive.authenticators_for(peer)

    # -- retention-aware helpers ---------------------------------------------

    def start_checkpoint(self) -> ChainCheckpoint:
        """Chain state just before the first retained entry."""
        return self.archive.start_checkpoint(self.identity)

    def is_truncated(self) -> bool:
        """True when GC has discarded a prefix of this machine's log."""
        return self.archive.retained_checkpoint(self.identity) is not None

    def initial_state(self) -> Tuple[Optional[Dict[str, Any]], int]:
        """Replay start state and transfer cost for the retained suffix."""
        return self.archive.initial_state_for(self.identity)

    def describe(self) -> Dict[str, Any]:
        records = self.archive.segment_records(self.identity)
        return {
            "identity": self.identity,
            "backing": "archive",
            "segments": len(records),
            "log_entries": self.archive.entry_count(self.identity),
            "retained_from": self.start_checkpoint().sequence + 1,
            "snapshots": self.snapshots.count,
        }
