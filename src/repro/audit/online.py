"""Online auditing (Section 6.11).

During a long or high-stakes game session players can audit each other *while
the game is still in progress* so cheating is detected as soon as the
cheater's externally visible behaviour deviates from the reference execution.
:class:`OnlineAuditor` periodically re-audits the target's log-so-far, against
the authenticators its sources hold by then, and records when (in simulated
time) a fault first became detectable.

The auditor's CPU consumption is tracked so the Figure 8 experiment can charge
it against the player's machine when the audit runs concurrently with the
game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.audit.auditor import Auditor
from repro.audit.verdict import AuditResult, Verdict
from repro.avmm.monitor import AccountableVMM
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler


@dataclass
class OnlineAuditRecord:
    """One incremental audit pass."""

    time: float
    entries_audited: int
    new_entries: int
    verdict: Verdict
    result: AuditResult


class OnlineAuditor:
    """Periodically audits a running machine.

    Each pass re-audits the whole log-so-far, so long sessions benefit from
    the parallel engine: give the auditor an ``engine``
    (:class:`~repro.audit.engine.AuditScheduler` with ``workers > 1``) and
    every pass is chunked over its worker pool.  The cost accounting below
    is unchanged either way: a passing result is the same at every worker
    count.

    Before each pass the auditor collects what ``sources`` hold about the
    target (Section 4.6): its peers, the parties the target sent
    authenticators to.  The target is a live machine: the pass length is its
    ``log``'s.
    """

    def __init__(self, auditor: Auditor, target: AccountableVMM,
                 scheduler: Scheduler, sources: Iterable[AccountableVMM],
                 interval: float = 30.0) -> None:
        self.auditor = auditor
        self.target = target
        self.sources = list(sources)
        self.scheduler = scheduler
        self.interval = interval
        self.records: List[OnlineAuditRecord] = []
        self.detection_time: Optional[float] = None
        self.audit_cpu_seconds: float = 0.0
        self._audited_entries = 0
        self._audited_active_seconds = 0.0
        self._process: Optional[Process] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self, delay: Optional[float] = None) -> None:
        """Begin periodic auditing (first pass after ``delay`` seconds)."""
        self._process = Process(self.scheduler, self.interval, on_tick=self.run_once,
                                name=f"online-audit:{self.target.identity}")
        self._process.start(delay=self.interval if delay is None else delay)

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()

    @property
    def fault_detected(self) -> bool:
        return self.detection_time is not None

    @property
    def lag_entries(self) -> int:
        """How many log entries the audit is currently behind."""
        return max(0, len(self.target.log) - self._audited_entries)

    # -- auditing -------------------------------------------------------------------

    def run_once(self) -> Optional[OnlineAuditRecord]:
        """Audit the target's log as it stands right now."""
        log_length = len(self.target.log)
        new_entries = log_length - self._audited_entries
        if new_entries <= 0:
            return None
        # The auditor collects any authenticators it has not seen yet.
        for source in self.sources:
            self.auditor.collect_from_peer(source, self.target.identity)

        result = self.auditor.audit(self.target)
        record = OnlineAuditRecord(
            time=self.scheduler.clock.now,
            entries_audited=log_length,
            new_entries=new_entries,
            verdict=result.verdict,
            result=result,
        )
        self.records.append(record)
        self._audited_entries = log_length

        # Replay work for the *new* part of the log is what this pass actually
        # costs; the already-audited prefix is charged only once.
        total_active = result.cost.semantic_seconds
        incremental = max(0.0, total_active - self._audited_active_seconds)
        self._audited_active_seconds = max(self._audited_active_seconds, total_active)
        self.audit_cpu_seconds += incremental + result.cost.syntactic_seconds

        if result.verdict is not Verdict.PASS and self.detection_time is None:
            self.detection_time = self.scheduler.clock.now
        return record
