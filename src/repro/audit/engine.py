"""The audit engine: every whole-machine audit runs on this one loop.

Section 6.6 puts the price tag on accountability: auditing a machine means
downloading its log, verifying it against the authenticators, and replaying
it.  Its remedy is that audits parallelise: other machines' logs are
independent, and with periodic snapshots so are the chunks of one log
(Sections 3.5 and 6.12).  :class:`AuditScheduler` drives both axes:

1. each target's log is cut at snapshot boundaries into chunks
   (:func:`repro.log.segments.partition_segments` for a live log,
   :func:`repro.audit.stream.iter_stream_chunks` for an archived one);
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
are process-wide and warm (:data:`_POOLS`, one per ``(kind, workers)``,
until :func:`shutdown_worker_pools`, also registered ``atexit``).

A machine stops being planned at its first failing chunk in log order: it is
the verdict and its job the evidence (:meth:`Auditor.evidence_for
<repro.audit.auditor.Auditor.evidence_for>`).  A log that cannot be chunked
is handed to the serial front-end (:meth:`Auditor.audit_whole_log
<repro.audit.auditor.Auditor.audit_whole_log>`) unless a chunk before that
point failed.  No timing enters either rule.  Nor does the worker count
enter the cost: a machine's :class:`~repro.audit.verdict.AuditResult`
carries no signature figures, as the serial front-end's does not; a pass
costs the whole log's serial figure (one download from its replay start,
replay priced on its active seconds) and so equals ``audit_whole_log``'s;
a conviction costs the chunks up to the fault.  Per-chunk costs, each
signature priced, stay on :attr:`MachineAuditReport.chunk_outcomes`, and the
fleet's ``total_cost`` and *modelled* serial-vs-parallel wall-clock
(:mod:`repro.metrics.parallel`) are built from them — hardware-independent,
like every other number this reproduction reports.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
from collections import deque
from concurrent.futures import (Executor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from typing import (Callable, Deque, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from repro.audit.auditor import Auditor
from repro.audit.kernel import (BoundaryContext, ChunkJob, ChunkOutcome,
                                chunk_job, fetch_verified_snapshot_entry,
                                fold_outcomes, last_snapshot_entry, replay_start,
                                run_chunk)
from repro.audit.semantic import modelled_replay_seconds
from repro.audit.stream import iter_stream_chunks
from repro.audit.verdict import AuditCost, AuditResult, Verdict
from repro.avmm.monitor import AccountableVMM
from repro.crypto.signatures import get_scheme
from repro.errors import (CryptoError, HashChainError, LogFormatError,
                          MissingSnapshotError, SegmentError, SnapshotError,
                          StoreError)
from repro.log.entries import LogEntry
from repro.log.hashchain import ChainCheckpoint
from repro.log.segments import LogSegment, partition_segments
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


#: what, raised while a log is planned, hands it to the serial front-end: no
#: verifiable snapshot at a chunk boundary, entries that do not parse or chain
_HAND_OVER = (MissingSnapshotError, SnapshotError, SegmentError,
              HashChainError, LogFormatError)


def _run_pickled_chunk(pickled_job: bytes) -> ChunkOutcome:
    """:func:`run_chunk` on a job its own parent process pickled."""
    return run_chunk(pickle.loads(pickled_job))


# ---------------------------------------------------------------------------
# Execution: warm executors, and one call's jobs on them
# ---------------------------------------------------------------------------

class _InlineExecutor(Executor):
    """Runs the job inside ``submit``: the pooled code path, no concurrency."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - re-raised by result(), as a pool would
            future.set_exception(exc)
        return future


class _WorkerPools:
    """The process's executors, one per ``(kind, workers)``, started on demand.

    Every :class:`AuditScheduler` and every call shares them, so worker
    start-up is paid once per process, not once per audit.  A child created
    by ``fork`` starts with none: the parent's executor objects are copied
    into it but their management threads are not.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pools: Dict[Tuple[str, int], Executor] = {}
        self._inline = _InlineExecutor()
        #: executors started so far in this process
        self.starts = 0

    def get(self, kind: str, workers: int) -> Executor:
        """The executor for ``(kind, workers)``, started if need be."""
        if kind == "inline":
            return self._inline
        with self._lock:
            pool = self._pools.get((kind, workers))
            if pool is not None:
                return pool
            return self._start(kind, workers)

    def replace(self, kind: str, workers: int, broken: Executor) -> Executor:
        """The executor to use now that ``broken`` has lost a worker
        (another caller may already have started it)."""
        with self._lock:
            current = self._pools.get((kind, workers))
            if current is not None and current is not broken:
                return current
            if current is broken:
                # Its manager thread reaps the surviving workers; waiting
                # for it also settles every future the pool still held.
                broken.shutdown(wait=True)
            return self._start(kind, workers)

    def _start(self, kind: str, workers: int) -> Executor:
        """The one place an executor is constructed."""
        pool = (ProcessPoolExecutor(max_workers=workers) if kind == "process"
                else ThreadPoolExecutor(max_workers=workers))
        self._pools[(kind, workers)] = pool
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
    """Stop the engine's worker processes and threads and wait for them.

    Idempotent; the next parallel audit starts fresh ones.  Registered
    ``atexit``, so no worker outlives the interpreter either way.  Jobs
    already submitted finish first; call it between audits, not during one.
    """
    _POOLS.shutdown()


atexit.register(shutdown_worker_pools)


def pool_starts_total() -> int:
    """How many worker pools this process has started (1 when they stay warm)."""
    return _POOLS.starts


def _executor_kind(requested: str, workers: int, first_job: ChunkJob) -> str:
    """Where a call's jobs run; decided once, when its first job is ready."""
    if workers <= 1 or requested == "inline":
        return "inline"
    if requested != "auto":
        return requested
    # auto: processes give real parallelism, but only when jobs pickle.  Log
    # entries, authenticators and snapshot states always do; the image (its
    # guest factory) and the key view are what a caller can get wrong.
    try:
        pickle.dumps((first_job.reference_image, first_job.key_view))
    except (pickle.PicklingError, TypeError, AttributeError):
        return "thread"
    return "process"


@dataclass
class _Submitted:
    """A job on the executor whose outcome has not been taken back yet."""

    owner: object
    job: ChunkJob
    future: Future


class _ChunkRun:
    """One call's chunk jobs: submitted as they are planned, their outcomes
    taken back in submission order."""

    def __init__(self, requested: str, workers: int) -> None:
        self.requested = requested
        self.workers = workers
        #: "inline" until a first job decides otherwise
        self.kind = "inline"
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

    def submit(self, job: ChunkJob, owner: object = None) -> None:
        if self._pool is None:
            self.kind = _executor_kind(self.requested, self.workers, job)
            self._pool = _POOLS.get(self.kind, self.workers)
        future = self._rebuilt_once(lambda: self._submit(job))
        self.pending.append(_Submitted(owner, job, future))

    def take(self) -> Tuple[_Submitted, ChunkOutcome]:
        """The oldest submitted job and its outcome, waiting for it."""
        outcome = self._rebuilt_once(lambda: self.pending[0].future.result())
        return self.pending.popleft(), outcome

    def drop(self, owner: object) -> List[ChunkJob]:
        """Cancel ``owner``'s jobs at the head of the queue; returns them.
        They follow a failing chunk: what they return or raise is no audit's."""
        dropped = []
        while self.pending and self.pending[0].owner is owner:
            submitted = self.pending.popleft()
            submitted.future.cancel()
            dropped.append(submitted.job)
        return dropped

    def _submit(self, job: ChunkJob) -> Future:
        if self.kind == "process":
            # Pickled here rather than by the pool's feeder thread, which
            # would be walking these entries' ``__dict__`` while the parent,
            # already threading the next chunk's context, adds lazily
            # decoded ``content`` to them.
            return self._pool.submit(_run_pickled_chunk, pickle.dumps(job))
        return self._pool.submit(run_chunk, job)

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
        self._pool = _POOLS.replace(self.kind, self.workers, self._pool)
        for submitted in self.pending:
            if isinstance(submitted.future.exception(), BrokenProcessPool):
                submitted.future = self._submit(submitted.job)


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
    #: why the log could not be chunked and was audited by the serial
    #: front-end instead (None = its chunks are the audit, pass or fail)
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

    def summary(self) -> str:
        verdicts = ", ".join(f"{machine}={result.verdict.value}"
                             for machine, result in sorted(self.results.items()))
        return (f"fleet audit: {len(self.results)} machines, "
                f"{self.chunk_count} chunks on {self.workers} workers "
                f"({self.executor_used}); {verdicts}")


@dataclass
class AuditAssignment:
    """One unit of fleet work: this auditor audits this machine."""

    auditor: Auditor
    target: AccountableVMM


class _MachineAudit:
    """One machine's audit in progress (parent side; never pickled)."""

    def __init__(self, auditor: Auditor, target,
                 chunks: Iterator[Tuple[LogSegment, ChainCheckpoint, bool]]
                 ) -> None:
        self.auditor = auditor
        self.target = target
        self.machine = target.identity
        #: the log as ``(chunk, checkpoint before it, whether it ends the
        #: log)``; what planning has not reached is what evidence extends into
        self.chunks = chunks
        #: filled in chunk by chunk; its result is the fold's
        self.report = MachineAuditReport(self.machine, result=None)
        #: the one-second buckets holding an entry: the log's active seconds
        self.active: Set[int] = set()
        #: transfer bytes of the snapshot the log's replay starts from
        self.start_bytes = 0
        #: folded (planning stops)
        self.done = False

    def note(self, submitted: _Submitted,
             outcome: ChunkOutcome) -> Tuple[ChunkJob, ChunkOutcome]:
        """Book a chunk on its way into the fold; returns the fold's pair."""
        job = submitted.job
        entries = job.segment.entries
        report = self.report
        report.chunk_outcomes.append(outcome)
        report.entries += len(entries)
        report.peak_chunk_entries = max(report.peak_chunk_entries, len(entries))
        self.active.update(int(entry.timestamp) for entry in entries)
        return job, outcome


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class AuditScheduler:
    """The audit engine: chunked audits of many machines over an executor.

    With one worker (the default) the jobs run inline: a live log is one
    chunk — the serial audit — and an archived one is cut at every archived
    sealing snapshot, so it is audited one chunk at a time.  Otherwise each
    log is cut into ``chunks_per_machine`` chunks (one per worker by
    default) that run concurrently.  ``executor`` may be ``"auto"`` (process
    pool when the jobs pickle, else threads), ``"process"``, ``"thread"`` or
    ``"inline"``.  A scheduler owns no workers: the executor comes from the
    process-wide registry, so every instance with the same ``(kind,
    workers)`` shares one warm pool (see :func:`shutdown_worker_pools`).
    """

    def __init__(self, workers: int = 1, executor: str = "auto",
                 chunks_per_machine: Optional[int] = None) -> None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        if executor not in ("auto", "process", "thread", "inline"):
            raise ValueError(f"unknown executor kind {executor!r}")
        self.workers = workers
        self.executor = executor
        #: chunks per machine; None = the rule above
        self.chunks_per_machine = chunks_per_machine

    # -- public API ---------------------------------------------------------

    def audit_machine(self, auditor: Auditor, target: AccountableVMM) -> AuditResult:
        """Audit one machine on the engine; returns the merged result."""
        report = self.audit_fleet([AuditAssignment(auditor, target)])
        return report.results[target.identity]

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
        for assignment in assignments:
            target = assignment.target
            if getattr(target, "supports_streaming", False) \
                    and not target.archive.segment_records(target.identity):
                # an operational error, not a verdict
                raise StoreError(f"no archived segments for {target.identity!r}")
        run = _ChunkRun(self.executor, self.workers)
        audits = [_MachineAudit(assignment.auditor, assignment.target,
                                self._chunks(assignment.target))
                  for assignment in assignments]
        planner = chain.from_iterable(self._plan(audit, run) for audit in audits)
        reports = [self._fold(audit, run, planner) for audit in audits]

        fleet = FleetAuditReport(workers=self.workers, executor_used=run.kind)
        chunk_costs: List[AuditCost] = []
        whole_logs: List[AuditCost] = []
        machine_costs: List[AuditCost] = []
        for report in reports:
            result = report.result
            fleet.machine_reports[report.machine] = report
            fleet.results[report.machine] = result
            fleet.chunk_count += report.chunk_count
            if report.unchunkable_reason is None:
                costs = [outcome.cost for outcome in report.chunk_outcomes]
                chunk_costs += costs
            else:
                # The serial front-end ran in the parent for this machine; it
                # is one unsplittable work item, and leaving it out would make
                # the modelled speedup look better than the audit really was.
                costs = [result.cost]
                whole_logs += costs
            machine_costs.append(AuditCost.total(costs))
        fleet.total_cost = AuditCost.total(machine_costs)
        fleet.modelled = schedule(
            [cost.total_seconds for cost in chunk_costs + whole_logs],
            self.workers)
        return fleet

    def run_jobs(self, jobs: Sequence[ChunkJob]) -> List[ChunkOutcome]:
        """Execute prepared chunk jobs on the pool (used by the spot checker)."""
        run = _ChunkRun(self.executor, self.workers)
        for job in jobs:
            run.submit(job)
        return [run.take()[1] for _ in jobs]

    # -- planning -----------------------------------------------------------

    def _chunks(self, target
                ) -> Iterator[Tuple[LogSegment, ChainCheckpoint, bool]]:
        """The target's log as ``(chunk, checkpoint before it, whether it
        ends the log)`` triples.

        An archive-backed target is read one chunk at a time, straight off
        its segment files; a live one hands over its snapshot-delimited
        segments, which are tiled into the chunk budget.  A chunk starts
        where its predecessor ends, not where it says it does, so a chain
        broken at a boundary fails the chunk after it.
        """
        archived = getattr(target, "supports_streaming", False)
        # None: the finest chunking, one archived sealing snapshot per chunk
        budget = self.chunks_per_machine or (
            None if archived and self.workers == 1 else self.workers)
        if archived:
            for chunk in iter_stream_chunks(target, max_chunks=budget):
                yield chunk.segment, chunk.start_checkpoint, chunk.ends_log
            return
        segments = [segment for segment in target.get_snapshot_segments()
                    if segment.entries]
        chunks = partition_segments(segments, budget)
        checkpoint = chunks[0].start_checkpoint() if chunks else None
        for chunk in chunks:
            yield chunk, checkpoint, chunk is chunks[-1]
            checkpoint = chunk.end_checkpoint()

    def _plan(self, audit: _MachineAudit, run: _ChunkRun) -> Iterator[ChunkJob]:
        """Plan one machine, submitting each chunk job to ``run`` and then
        yielding it: the fold pulls the plan, so planning stops at a failing
        chunk and decoding chunk *k+1* overlaps chunk *k* in a worker.

        The parent threads what every chunk needs from its predecessor: the
        snapshot sealing it, verified, and its boundary context (the RECVs
        still in flight at its end, with the log suffix that anchors them).
        """
        auditor, target = audit.auditor, audit.target
        make_job = job_factory(auditor, audit.machine)
        state, snapshot_bytes = replay_start(target)
        audit.start_bytes = snapshot_bytes
        context = BoundaryContext()
        boundary: Optional[LogEntry] = None
        try:
            for index, (segment, checkpoint, ends_log) in enumerate(audit.chunks):
                if index:
                    state, snapshot_bytes = fetch_verified_snapshot_entry(
                        target, boundary)
                context.ends_log = ends_log
                job = make_job(segment, chunk_index=index,
                               checkpoint=checkpoint, initial_state=state,
                               snapshot_bytes=snapshot_bytes, context=context)
                run.submit(job, owner=audit)
                yield job
                if audit.done:   # a chunk failed: nothing after it is planned
                    return
                # after the job is pickled: this decodes content lazily
                context = context.after(segment)
                boundary = last_snapshot_entry(segment)
                del job, segment   # the fold holds a chunk while it needs it
        except _HAND_OVER as exc:
            # The target could not produce consistent chunks or a verifiable
            # snapshot at a chunk boundary, or its entries do not parse: if
            # every chunk before this point passes, its log is one chunk,
            # replayed from the start, which is the serial front-end's.
            audit.report.unchunkable_reason = str(exc)

    # -- folding ------------------------------------------------------------

    @staticmethod
    def _taken(audit: _MachineAudit, run: _ChunkRun, planner: Iterator[ChunkJob]
               ) -> Iterator[Tuple[ChunkJob, ChunkOutcome]]:
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
        auditor, report = audit.auditor, audit.report
        result, failed = fold_outcomes(audit.machine, auditor.identity,
                                       self._taken(audit, run, planner))
        audit.done = True
        if failed is not None:
            # a conviction costs the chunks up to the fault
            report.unchunkable_reason = None
            result.cost = replace(result.cost, signature_seconds=0.0,
                                  signatures_verified=0)
            result.evidence = auditor.evidence_for(failed, result, chain(
                (job.segment for job in run.drop(audit)),
                (segment for segment, _, _ in audit.chunks)))
        elif report.unchunkable_reason is not None:
            report.chunk_outcomes = []
            result = auditor.audit_whole_log(audit.target)
        else:
            # The serial front-end's pass: one download of the whole log from
            # its replay start, replay priced on the whole log's activity
            # rather than chunk by chunk, no signature figures.
            replayed = result.replay_report
            replayed.active_seconds = float(len(audit.active))
            result.cost = AuditCost.for_download(
                result.cost.log_bytes_downloaded, audit.start_bytes,
                auditor.cost_params)
            result.cost.semantic_seconds = modelled_replay_seconds(
                replayed.active_seconds, auditor.cost_params)
        report.result = result
        return report


# ---------------------------------------------------------------------------
# Helpers shared with the spot checker
# ---------------------------------------------------------------------------

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
        cost_params=auditor.cost_params,
        verify_seconds=scheme_verify_seconds(auditor.keystore, machine))


def scheme_verify_seconds(keystore, machine: str) -> float:
    """Modelled cost of one signature verification under the target's scheme."""
    try:
        scheme_name = keystore.verify_key_for(machine).scheme_name
        return get_scheme(scheme_name).costs().verify_seconds
    except CryptoError:  # no certificate for the machine, or an unknown scheme
        return 0.0
