"""The audit engine: every audit runs on this one loop.

Section 6.6 puts the price tag on accountability: auditing a machine means
downloading its log, verifying it against the authenticators, and replaying
it.  Its remedy is that audits parallelise: other machines' logs are
independent, and with periodic snapshots so are the chunks of one log
(Sections 3.5 and 6.12).  :class:`AuditScheduler` drives both axes:

1. each target's log — or a range of its snapshot-delimited segments, a
   spot check's k-chunk — is cut at snapshot boundaries into chunks, off
   the records every target lists, live or archived
   (:func:`repro.audit.stream.iter_stream_chunks`);
2. every chunk becomes a self-contained, picklable
   :class:`~repro.audit.kernel.ChunkJob`; what it needs from its predecessor
   — the verified snapshot state at the boundary and the RECVs in flight
   across it — the parent threads along while it plans;
3. the jobs run the audit kernel, :func:`~repro.audit.kernel.run_chunk`, on
   a ``concurrent.futures`` executor;
4. their outcomes are folded in log order as they complete
   (:func:`~repro.audit.kernel.fold_outcomes`).

Planning runs ahead of the fold by a fixed window — two jobs per worker on
a pool, so decoding chunk *k+1* overlaps chunk *k* in a worker; one on the
``"inline"`` executor, which runs a job inside ``submit`` — and a folded job
is dropped at once, so what the parent holds is bounded by the window, not
by the log, at every worker count (``docs/streaming-audit.md``).  The pools
are process-wide and warm (:data:`_POOLS`, one per worker count, until
:func:`shutdown_worker_pools`, also registered ``atexit``).

A machine stops being planned at its first failing chunk in log order: it is
the verdict and its job the evidence (:meth:`Auditor.evidence_for
<repro.audit.auditor.Auditor.evidence_for>`).  A log whose chunk boundary
cannot be planned is re-planned by the same loop as one chunk from its
replay start, unless a chunk before that point failed.  No timing enters
either rule.  Nor does the worker count enter the cost: a machine's
:class:`~repro.audit.verdict.AuditResult` carries no signature figures; a
pass costs one download of the range from its replay start, replay priced
on its active seconds, at every worker count; a conviction costs the chunks
up to the fault.  Per-chunk costs, each signature priced, stay on
:attr:`MachineAuditReport.chunk_outcomes`, and the fleet's ``total_cost``
and *modelled* serial-vs-parallel wall-clock (:mod:`repro.metrics.parallel`)
are built from them — hardware-independent, like every other number this
reproduction reports.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
from collections import deque
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from typing import (Callable, Deque, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.audit.auditor import Auditor
from repro.audit.kernel import (BoundaryContext, ChunkJob, ChunkOutcome,
                                chunk_job, fetch_verified_snapshot_entry,
                                fold_outcomes, last_snapshot_entry, run_chunk)
from repro.audit.semantic import modelled_replay_seconds
from repro.audit.stream import iter_stream_chunks
from repro.audit.verdict import AuditCost, AuditResult, Verdict
from repro.avmm.monitor import AccountableVMM
from repro.crypto.signatures import get_scheme
from repro.errors import (AuditError, CryptoError, HashChainError,
                          LogFormatError, MissingSnapshotError, SegmentError,
                          SnapshotError)
from repro.log.entries import LogEntry
from repro.log.hashchain import ChainCheckpoint
from repro.log.segments import LogSegment
from repro.metrics.parallel import ParallelSchedule, schedule

__all__ = [
    "AuditAssignment",
    "AuditScheduler",
    "ChunkJob",
    "ChunkOutcome",
    "FleetAuditReport",
    "MachineAuditReport",
    "pool_starts_total",
    "run_chunk",
    "scheme_verify_seconds",
    "shutdown_worker_pools",
]


#: what, raised while a log is planned, re-plans it as one chunk: no
#: verifiable snapshot at a chunk boundary, entries that do not parse or chain
_REPLAN = (MissingSnapshotError, SnapshotError, SegmentError,
           HashChainError, LogFormatError)


def _run_pickled_chunk(pickled_job: bytes) -> ChunkOutcome:
    """:func:`run_chunk` on a job its own parent process pickled."""
    return run_chunk(pickle.loads(pickled_job))


# ---------------------------------------------------------------------------
# Execution: warm executors, and one call's jobs on them
# ---------------------------------------------------------------------------

class _WorkerPools:
    """The process's worker pools, one per worker count, started on demand.

    Every :class:`AuditScheduler` and every call shares them, so worker
    start-up is paid once per process, not once per audit.  A child created
    by ``fork`` starts with none: the parent's executor objects are copied
    into it but their management threads are not.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pools: Dict[int, ProcessPoolExecutor] = {}
        #: pools started so far in this process
        self.starts = 0

    def get(self, workers: int) -> ProcessPoolExecutor:
        """The pool of ``workers`` processes, started if need be."""
        with self._lock:
            pool = self._pools.get(workers)
            if pool is not None:
                return pool
            return self._start(workers)

    def replace(self, workers: int, broken: Executor) -> ProcessPoolExecutor:
        """The pool to use now that ``broken`` has lost a worker (another
        caller may already have started it)."""
        with self._lock:
            current = self._pools.get(workers)
            if current is not None and current is not broken:
                return current
            if current is broken:
                # Its manager thread reaps the surviving workers; waiting
                # for it also settles every future the pool still held.
                broken.shutdown(wait=True)
            return self._start(workers)

    def _start(self, workers: int) -> ProcessPoolExecutor:
        """The one place a pool is constructed."""
        pool = self._pools[workers] = ProcessPoolExecutor(max_workers=workers)
        self.starts += 1
        return pool

    def shutdown(self) -> None:
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.shutdown(wait=True)

    def forget(self) -> None:
        """Drop every executor without touching it (after ``fork``, in the child)."""
        self._lock = threading.Lock()
        self._pools = {}
        self.starts = 0


_POOLS = _WorkerPools()
os.register_at_fork(after_in_child=_POOLS.forget)


def shutdown_worker_pools() -> None:
    """Stop the engine's worker processes and wait for them.

    Idempotent; the next parallel audit starts fresh ones.  Registered
    ``atexit``, so no worker outlives the interpreter either way.  Jobs
    already submitted finish first; call it between audits, not during one.
    """
    _POOLS.shutdown()


atexit.register(shutdown_worker_pools)


def pool_starts_total() -> int:
    """How many worker pools this process has started (1 when they stay warm)."""
    return _POOLS.starts


@dataclass
class _Submitted:
    """A job on the executor whose outcome has not been taken back yet.

    On a pool it is held pickled, as it was submitted: the parent holds no
    decoded chunk while a worker runs it, and unpickles one only for
    evidence (:meth:`unpacked`).
    """

    owner: object
    job: Union[ChunkJob, bytes]
    #: entries in the chunk
    entries: int
    future: Optional[Future] = None

    def unpacked(self) -> ChunkJob:
        return pickle.loads(self.job) if isinstance(self.job, bytes) else self.job


class _ChunkRun:
    """One call's chunk jobs: submitted as they are planned, their outcomes
    taken back in submission order."""

    def __init__(self, requested: str, workers: int) -> None:
        self.workers = workers
        self.kind = "inline" if workers <= 1 or requested == "inline" else "process"
        #: submitted jobs not taken back yet, oldest first
        self.pending: Deque[_Submitted] = deque()
        self._pool: Optional[Executor] = None
        self._rebuilt = False

    @property
    def bound(self) -> int:
        """How many submitted jobs may wait to be taken back: two per worker
        on a pool, so the workers never run dry while the parent decodes;
        one inline, where a job has run by the time it is submitted."""
        return 1 if self.kind == "inline" else 2 * self.workers

    def submit(self, job: ChunkJob, owner: object) -> None:
        if self._pool is None and self.kind == "process":
            self._pool = _POOLS.get(self.workers)
        # Pickled here rather than by the pool's feeder thread, which would
        # be walking these entries' ``__dict__`` while the parent, already
        # threading the next chunk's context, adds lazily decoded
        # ``content`` to them.
        submitted = _Submitted(owner, job if self.kind == "inline"
                               else pickle.dumps(job), len(job.segment.entries))
        submitted.future = self._rebuilt_once(lambda: self._submit(submitted))
        self.pending.append(submitted)

    def take(self) -> Tuple[_Submitted, ChunkOutcome]:
        """The oldest submitted job and its outcome, waiting for it."""
        outcome = self._rebuilt_once(lambda: self.pending[0].future.result())
        return self.pending.popleft(), outcome

    def drop(self, owner: object) -> List[_Submitted]:
        """Cancel ``owner``'s jobs at the head of the queue; returns them.
        They follow a failing chunk: what they return or raise is no audit's."""
        dropped = []
        while self.pending and self.pending[0].owner is owner:
            dropped.append(self.pending.popleft())
            dropped[-1].future.cancel()
        return dropped

    def _submit(self, submitted: _Submitted) -> Future:
        if self.kind == "process":
            return self._pool.submit(_run_pickled_chunk, submitted.job)
        future: Future = Future()   # inline: the job runs here and now
        try:
            future.set_result(run_chunk(submitted.job))
        except Exception as exc:  # noqa: BLE001 - re-raised by result(), as a pool would
            future.set_exception(exc)
        return future

    def _rebuilt_once(self, attempt: Callable[[], object]):
        """``attempt()``, tried again on a rebuilt pool if a worker died.

        Chunk jobs are pure functions of their arguments, so running one
        twice is harmless.  Once per call: a second break is the caller's.
        """
        try:
            return attempt()
        except BrokenProcessPool:
            if self._rebuilt:
                raise
            self._rebuild()
            return attempt()

    def _rebuild(self) -> None:
        """Restart the pool and re-submit the jobs it lost."""
        self._rebuilt = True
        self._pool = _POOLS.replace(self.workers, self._pool)
        for submitted in self.pending:
            if isinstance(submitted.future.exception(), BrokenProcessPool):
                submitted.future = self._submit(submitted)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class MachineAuditReport:
    """One machine's audit, with the engine's bookkeeping."""

    machine: str
    result: AuditResult
    #: the chunks folded, in log order, up to and including a failing one;
    #: their costs price each signature verified
    chunk_outcomes: List[ChunkOutcome] = field(default_factory=list)
    #: entries in those chunks, and in the largest of them (the memory bound)
    entries: int = 0
    peak_chunk_entries: int = 0
    #: why the log could not be planned in chunks and was re-planned as one
    #: (None = its chunks as planned are the audit, pass or fail)
    unchunkable_reason: Optional[str] = None

    @property
    def chunk_count(self) -> int:
        return len(self.chunk_outcomes)


@dataclass
class FleetAuditReport:
    """Outcome of auditing a fleet of machines on the engine."""

    results: Dict[str, AuditResult] = field(default_factory=dict)
    machine_reports: Dict[str, MachineAuditReport] = field(default_factory=dict)
    workers: int = 1
    executor_used: str = "inline"
    chunk_count: int = 0
    #: modelled cost schedule (hardware-independent, from the chunk costs)
    modelled: Optional[ParallelSchedule] = None
    total_cost: AuditCost = field(default_factory=AuditCost)

    @property
    def all_passed(self) -> bool:
        return all(result.verdict is Verdict.PASS for result in self.results.values())


@dataclass
class AuditAssignment:
    """One unit of fleet work: this auditor audits this machine — its whole
    log, or the snapshot-delimited segments ``[start, until)`` of it."""

    auditor: Auditor
    target: AccountableVMM
    start: Optional[int] = None
    until: Optional[int] = None


class _MachineAudit:
    """One machine's audit in progress (parent side; never pickled)."""

    def __init__(self, assignment: AuditAssignment,
                 budget: Optional[int]) -> None:
        self.assignment = assignment
        self.auditor, self.target = assignment.auditor, assignment.target
        self.machine = self.target.identity
        #: the target's segment records, listed once, before any chunk runs:
        #: a target with nothing to list (an archive with no segments)
        #: raises, an operational error rather than a verdict
        self.records = self.target.segment_records()
        #: at most this many chunks (None: one per served sealing snapshot)
        self.budget = budget
        #: the range's ``(chunk, checkpoint before it, whether it ends the
        #: log)``, then the segments after it, for evidence to extend into
        self.chunks: Iterator[Tuple[LogSegment, ChainCheckpoint, bool]] = iter(())
        self.following: Iterator[LogSegment] = iter(())
        #: filled in chunk by chunk; its result is the fold's
        self.report = MachineAuditReport(self.machine, result=None)
        #: transfer bytes of the snapshot the range's replay starts from
        self.start_bytes = 0
        #: folded (planning stops)
        self.done = False

    def note(self, submitted: _Submitted, outcome: ChunkOutcome
             ) -> Tuple[_Submitted, ChunkOutcome]:
        """Book a chunk on its way into the fold; returns the fold's pair."""
        report = self.report
        report.chunk_outcomes.append(outcome)
        report.entries += submitted.entries
        report.peak_chunk_entries = max(report.peak_chunk_entries,
                                        submitted.entries)
        return submitted, outcome


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class AuditScheduler:
    """The audit engine: chunked audits of many machines over an executor.

    With one worker (the default) the jobs run inline: a live log, or a
    range of any log, is one chunk, and an archived log is cut at every
    archived sealing snapshot, so it is audited one chunk at a time.
    Otherwise each log or range is cut into ``chunks_per_machine`` chunks
    (one per worker by default) that run concurrently.  ``executor`` is
    ``"process"`` (a pool of ``workers`` processes, the default) or
    ``"inline"`` (the same chunks, run one by one in this process); with one
    worker it is always inline.  A job is pickled when it is submitted to
    the pool, so one that does not pickle fails there.  A scheduler owns no
    workers: the pool comes from the process-wide registry, so every
    instance with the same worker count shares one warm pool (see
    :func:`shutdown_worker_pools`).
    """

    def __init__(self, workers: int = 1, executor: str = "process",
                 chunks_per_machine: Optional[int] = None) -> None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        if executor not in ("process", "inline"):
            raise ValueError(f"unknown executor kind {executor!r}")
        self.workers = workers
        self.executor = executor
        #: chunks per machine; None = the rule above
        self.chunks_per_machine = chunks_per_machine

    # -- public API ---------------------------------------------------------

    def audit_fleet(self, assignments: Sequence[AuditAssignment]) -> FleetAuditReport:
        """Audit every assignment, the machines' chunks sharing one executor.

        Each target may appear at most once — the report is keyed by machine
        identity, so several auditors auditing the same machine must run as
        separate fleet calls.
        """
        targets = [assignment.target.identity for assignment in assignments]
        duplicates = sorted({name for name in targets if targets.count(name) > 1})
        if duplicates:
            raise ValueError(
                f"fleet contains duplicate audit targets: {duplicates}; "
                f"run one fleet audit per auditor instead")
        audits = []
        for assignment in assignments:
            whole = assignment.start is None and assignment.until is None
            audits.append(_MachineAudit(assignment, self.chunks_per_machine or (
                assignment.target.audit_chunks if whole and self.workers == 1
                else self.workers)))
        run = _ChunkRun(self.executor, self.workers)
        planner = chain.from_iterable(self._plan(audit, run) for audit in audits)
        reports = [self._fold(audit, run, planner) for audit in audits]

        fleet = FleetAuditReport(workers=self.workers, executor_used=run.kind)
        chunk_costs: List[AuditCost] = []
        machine_costs: List[AuditCost] = []
        for report in reports:
            fleet.machine_reports[report.machine] = report
            fleet.results[report.machine] = report.result
            fleet.chunk_count += report.chunk_count
            costs = [outcome.cost for outcome in report.chunk_outcomes]
            chunk_costs += costs
            machine_costs.append(AuditCost.total(costs))
        fleet.total_cost = AuditCost.total(machine_costs)
        fleet.modelled = schedule(
            [cost.total_seconds for cost in chunk_costs], self.workers)
        return fleet

    # -- planning -----------------------------------------------------------

    @staticmethod
    def _cut(audit: _MachineAudit) -> Optional[LogSegment]:
        """Cut ``audit``'s range into its chunk budget — its ``chunks`` and
        ``following`` — and return the segment before the range (None: the
        range starts where the log's replay does).  Every target is read the
        same way, a run of its segment records per chunk.  A bound outside
        the segments, or an empty range, is a :class:`SegmentError`.
        """
        target, records = audit.target, audit.records
        start, until = _bounds(audit.assignment.start, audit.assignment.until,
                               len(records))
        audit.chunks = ((chunk.segment, chunk.start_checkpoint, chunk.ends_log)
                        for chunk in iter_stream_chunks(
                            target, records[start:until], audit.budget,
                            until == len(records)))
        audit.following = (target.read_segments([record])
                           for record in records[until:])
        return target.read_segments([records[start - 1]]) if start else None

    def _plan(self, audit: _MachineAudit, run: _ChunkRun) -> Iterator[ChunkJob]:
        """Plan one machine, submitting each chunk job to ``run`` and then
        yielding it: the fold pulls the plan, so planning stops at a failing
        chunk and decoding chunk *k+1* overlaps chunk *k* in a worker.

        The parent threads what every chunk needs from its predecessor: the
        snapshot sealing it, verified, and its boundary context (the RECVs
        still in flight at its end, with the log suffix that anchors them).
        A range's first chunk takes them from the segment before the range.
        """
        target = audit.target
        make_job = job_factory(audit.auditor, audit.machine)
        preceding = self._cut(audit)
        context = BoundaryContext()
        if preceding is None:
            state, snapshot_bytes = target.replay_start()
        else:
            state, snapshot_bytes = fetch_verified_snapshot_entry(
                target, last_snapshot_entry(preceding))
            context = context.after(preceding)
        audit.start_bytes = snapshot_bytes
        boundary: Optional[LogEntry] = None
        try:
            for index, (segment, checkpoint, ends_log) in enumerate(audit.chunks):
                if index:
                    state, snapshot_bytes = fetch_verified_snapshot_entry(
                        target, boundary)
                if segment.machine != audit.machine:
                    # A segment claiming another identity would sidestep
                    # every authenticator check (none would apply) and could
                    # replay cleanly; refusing it is an operational error,
                    # not a verdict.
                    raise AuditError(
                        f"segment claims to be from {segment.machine!r}, "
                        f"but the audit target is {audit.machine!r}")
                context.ends_log = ends_log
                job = make_job(segment, chunk_index=index,
                               checkpoint=checkpoint, initial_state=state,
                               snapshot_bytes=snapshot_bytes, context=context)
                run.submit(job, audit)
                yield job
                # a chunk failed, or no chunk follows: nothing more to plan
                if audit.done or ends_log or audit.budget == 1:
                    return
                # after the job is pickled: this decodes content lazily
                context = context.after(segment)
                boundary = last_snapshot_entry(segment)
                del job, segment   # the fold holds a chunk while it needs it
        except _REPLAN as exc:
            if audit.budget == 1:   # one chunk has no boundary to plan
                raise
            # The target could not produce consistent chunks or a verifiable
            # snapshot at a chunk boundary, or its entries do not parse: if
            # every chunk before this point passes, the range is re-planned
            # as one chunk from its start.
            audit.report.unchunkable_reason = str(exc)

    # -- folding ------------------------------------------------------------

    @staticmethod
    def _taken(audit: _MachineAudit, run: _ChunkRun, planner: Iterator[ChunkJob]
               ) -> Iterator[Tuple[_Submitted, ChunkOutcome]]:
        """``audit``'s jobs with their outcomes, in log order, as they
        complete; planning — of this machine, then of the next — runs ahead
        of them by at most ``run.bound`` jobs."""
        while True:
            while len(run.pending) < run.bound \
                    and next(planner, None) is not None:
                pass
            if not run.pending or run.pending[0].owner is not audit:
                return
            yield audit.note(*run.take())

    def _fold(self, audit: _MachineAudit, run: _ChunkRun,
              planner: Iterator[ChunkJob]) -> MachineAuditReport:
        while True:
            result, failed = fold_outcomes(audit.machine, audit.auditor.identity,
                                           self._taken(audit, run, planner))
            audit.done = True
            reason = audit.report.unchunkable_reason
            if reason is None or audit.budget == 1:
                break
            if failed is not None:   # before the boundary it could not plan
                audit.report.unchunkable_reason = None
                break
            # re-planned as one chunk, ahead of the next machine's queued jobs
            audit = _MachineAudit(audit.assignment, 1)
            audit.report.unchunkable_reason = reason
            for _ in self._plan(audit, run):
                run.pending.rotate(1)
        if failed is not None:
            # a conviction costs the chunks up to the fault
            result.cost = replace(result.cost, signature_seconds=0.0,
                                  signatures_verified=0)
            result.evidence = audit.auditor.evidence_for(
                failed.unpacked(), result, chain(
                    (dropped.unpacked().segment for dropped in run.drop(audit)),
                    (segment for segment, _, _ in audit.chunks),
                    audit.following))
        else:
            # one download of the range from its replay start, replay priced
            # on the range's activity rather than chunk by chunk
            result.cost = AuditCost.for_download(
                result.cost.log_bytes_downloaded, audit.start_bytes)
            result.cost.semantic_seconds = modelled_replay_seconds(
                result.replay_report.active_seconds)
        audit.report.result = result
        return audit.report


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _bounds(start: Optional[int], until: Optional[int], count: int
            ) -> Tuple[int, int]:
    """``[start, until)`` of ``count`` segments, a missing bound filled in; a
    range outside them, or an empty one, is a :class:`SegmentError`."""
    if start is None and until is None:
        return 0, count
    first = 0 if start is None else start
    last = count if until is None else until
    if not 0 <= first < last <= count:
        raise SegmentError(
            f"chunk [{first}, {last}) outside the {count} available segments")
    return first, last


def job_factory(auditor: Auditor, machine: str) -> Callable[..., ChunkJob]:
    """:func:`~repro.audit.kernel.chunk_job` for the chunks of one machine's
    log, with what they share bound once: the machine's authenticators, a
    picklable view of the keys, the image, and the modelled price of a
    signature verification (the engine prices signatures)."""
    return partial(
        chunk_job,
        authenticators=auditor.authenticators_for(machine),
        key_view=auditor.keystore.static_view(),
        reference_image=auditor.reference_image,
        verify_seconds=scheme_verify_seconds(auditor.keystore, machine))


def scheme_verify_seconds(keystore, machine: str) -> float:
    """Modelled cost of one signature verification under the target's scheme."""
    try:
        scheme_name = keystore.verify_key_for(machine).scheme_name
        return get_scheme(scheme_name).costs().verify_seconds
    except CryptoError:  # no certificate for the machine, or an unknown scheme
        return 0.0
