"""The parallel, batched audit engine.

Section 6.6 puts the price tag on accountability: auditing a machine means
downloading its log, verifying it against the authenticators, and replaying
it — and the semantic check alone takes about as long as the recorded play
time.  The same section's remedy is that audits parallelise perfectly: other
machines' logs are independent, and with periodic snapshots the chunks of a
single log are independently verifiable and replayable too (Section 6.12).

:class:`AuditScheduler` exploits both axes.  It fans a fleet of audits out
over a ``concurrent.futures`` worker pool:

1. each target's log is split at snapshot boundaries into at most
   ``chunks_per_machine`` chunks (:func:`repro.log.segments.partition_segments`
   for a live log, :func:`repro.audit.stream.iter_stream_chunks` for an
   archived one);
2. every chunk becomes a self-contained, picklable
   :class:`~repro.audit.kernel.ChunkJob`; what a chunk needs from its
   predecessor — the verified snapshot state at the boundary and the RECVs
   in flight across it — the parent threads along while it plans;
3. workers run the audit kernel, :func:`~repro.audit.kernel.run_chunk`;
4. the scheduler folds the outcomes into one machine-level result
   (:func:`~repro.audit.kernel.fold_outcomes`).  Each chunk's syntactic
   check pairs the message stream with the MAC-layer stream given what its
   predecessor left in flight, so the chunks together pair the whole log.

Execution is one code path over one kind of object, a
``concurrent.futures`` executor: chunk jobs are submitted the moment the plan
produces them (decoding chunk *k+1* overlaps chunk *k* in a worker) and
outcomes are gathered in plan order.
The executors are process-wide and warm: :data:`_POOLS` hands out one per
``(kind, workers)``, started on first use and kept until
:func:`shutdown_worker_pools` (also registered ``atexit``), so only the first
parallel audit of a process pays for starting workers.  ``"inline"`` is the
same path over an executor that runs the job inside ``submit``.

A conviction is parallel too: the first failing chunk in log order is the
verdict and its job the evidence (:meth:`Auditor.evidence_for
<repro.audit.auditor.Auditor.evidence_for>`), so both are identical across
worker counts without a second, serial pass.  Only a log that cannot be
chunked at all (no verifiable boundary snapshot, entries that do not parse)
is handed over to the serial front-end.

Costs are threaded through :class:`~repro.audit.verdict.AuditCost` so the
Figure 8/9 experiments keep reporting paper-faithful numbers, and the fleet
report carries the *modelled* serial-vs-parallel wall-clock
(:mod:`repro.metrics.parallel`) alongside the measured one, because the
modelled number — like every other number this reproduction reports — must
not depend on the hardware the simulation runs on.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
from concurrent.futures import (Executor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.audit.auditor import Auditor
from repro.audit.kernel import (BoundaryContext, ChunkJob, ChunkOutcome,
                                chunk_job, fetch_verified_snapshot_entry,
                                fold_outcomes, last_snapshot_entry, replay_start,
                                run_chunk)
from repro.audit.stream import iter_stream_chunks
from repro.audit.verdict import AuditCost, AuditResult, Verdict
from repro.avmm.monitor import AccountableVMM
from repro.crypto.signatures import get_scheme
from repro.errors import (CryptoError, HashChainError, LogFormatError,
                          MissingSnapshotError, SegmentError)
from repro.log.entries import LogEntry
from repro.log.hashchain import ChainCheckpoint
from repro.log.segments import LogSegment, partition_segments
from repro.metrics.parallel import ParallelSchedule, schedule
from repro.obs import Observability

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

    def get(self, kind: str, workers: int) -> Tuple[Executor, bool]:
        """The executor for ``(kind, workers)``, and whether this call started it."""
        if kind == "inline":
            return self._inline, False
        with self._lock:
            pool = self._pools.get((kind, workers))
            if pool is not None:
                return pool, False
            return self._start(kind, workers), True

    def replace(self, kind: str, workers: int,
                broken: Executor) -> Tuple[Executor, bool]:
        """The executor to use now that ``broken`` has lost a worker, and
        whether this call started it (another caller may already have)."""
        with self._lock:
            current = self._pools.get((kind, workers))
            if current is not None and current is not broken:
                return current, False
            if current is broken:
                # Its manager thread reaps the surviving workers; waiting
                # for it also settles every future the pool still held.
                broken.shutdown(wait=True)
            return self._start(kind, workers), True

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


class _ChunkRun:
    """One call's chunk jobs: submitted as they are planned, gathered in order."""

    def __init__(self, requested: str, workers: int) -> None:
        self.requested = requested
        self.workers = workers
        #: "inline" until a first job decides otherwise
        self.kind = "inline"
        self.jobs: List[ChunkJob] = []
        self.pool_starts = 0
        #: ``perf_counter`` marks: construction, and :meth:`gather`'s start
        #: and end
        self.started = time.perf_counter()
        self.wait_started = self.gathered = 0.0
        self._pool: Optional[Executor] = None
        self._futures: List[Future] = []
        self._rebuilt = False

    def submit(self, job: ChunkJob) -> None:
        if self._pool is None:
            self.kind = _executor_kind(self.requested, self.workers, job)
            self._pool, started = _POOLS.get(self.kind, self.workers)
            self.pool_starts += started
        try:
            future = self._submit(job)
        except BrokenProcessPool:
            if self._rebuilt:
                raise
            self._rebuild()
            future = self._submit(job)
        self.jobs.append(job)
        self._futures.append(future)

    def failed_since(self, start: int) -> bool:
        """Whether a job from position ``start`` on is known to have failed
        its chunk (inline, at once; on a pool, when a worker got that far)."""
        return any(future.done() and future.exception() is None
                   and not future.result().ok
                   for future in self._futures[start:])

    def discard_from(self, start: int) -> None:
        """Forget the jobs from position ``start`` on (their machine could
        not be planned to the end and is audited serially instead)."""
        for future in self._futures[start:]:
            future.cancel()
        del self.jobs[start:], self._futures[start:]

    def gather(self) -> List[ChunkOutcome]:
        """Every job's outcome, in submission order."""
        self.wait_started = time.perf_counter()
        try:
            return [future.result() for future in self._futures]
        except BrokenProcessPool:
            if self._rebuilt:
                raise
            self._rebuild()
            return [future.result() for future in self._futures]
        finally:
            self.gathered = time.perf_counter()

    def observe(self, observers: Iterable[Observability]) -> None:
        """Record the run on each distinct bundle (telemetry only)."""
        for obs in {id(obs): obs for obs in observers}.values():
            obs.metrics.counter("audit.engine.pool_starts_total").inc(
                self.pool_starts)
            obs.tracer.event(
                "audit.engine.submit", domain="wall", track="audit-engine",
                timestamp=self.started,
                duration=self.wait_started - self.started,
                jobs=len(self.jobs), executor=self.kind)
            obs.tracer.event(
                "audit.engine.wait", domain="wall", track="audit-engine",
                timestamp=self.wait_started,
                duration=self.gathered - self.wait_started)

    def _submit(self, job: ChunkJob) -> Future:
        if self.kind == "process":
            # Pickled here rather than by the pool's feeder thread, which
            # would be walking these entries' ``__dict__`` while the parent,
            # already threading the next chunk's context, adds lazily
            # decoded ``content`` to them.
            return self._pool.submit(_run_pickled_chunk, pickle.dumps(job))
        return self._pool.submit(run_chunk, job)

    def _rebuild(self) -> None:
        """A worker died: restart the pool and re-run what it lost.

        Chunk jobs are pure functions of their arguments, so running one
        twice is harmless.  Once per call: a second break is the caller's.
        """
        self._rebuilt = True
        self._pool, started = _POOLS.replace(self.kind, self.workers, self._pool)
        self.pool_starts += started
        self._futures = [
            self._submit(job)
            if isinstance(future.exception(), BrokenProcessPool) else future
            for job, future in zip(self.jobs, self._futures)]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class MachineAuditReport:
    """One machine's merged audit, with the engine's bookkeeping."""

    machine: str
    result: AuditResult
    chunk_count: int = 0
    chunk_outcomes: List[ChunkOutcome] = field(default_factory=list)
    #: why the log could not be chunked and was audited by the serial
    #: front-end instead (None = its chunks are the audit, pass or fail)
    unchunkable_reason: Optional[str] = None


@dataclass
class FleetAuditReport:
    """Outcome of auditing a fleet of machines on the engine."""

    results: Dict[str, AuditResult] = field(default_factory=dict)
    machine_reports: Dict[str, MachineAuditReport] = field(default_factory=dict)
    workers: int = 1
    executor_used: str = "inline"
    chunk_count: int = 0
    #: measured wall-clock of this engine run (hardware-dependent)
    wall_seconds: float = 0.0
    #: modelled cost schedule (hardware-independent, from AuditCost totals)
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


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------

class AuditScheduler:
    """Schedules chunked audits of many machines over a worker pool.

    ``workers=1`` (the default) keeps everything inline and single-chunk, so
    it reproduces the serial :class:`Auditor` byte for byte; higher worker
    counts split each log at snapshot boundaries and execute chunks
    concurrently.  ``executor`` may be ``"auto"`` (process pool when the jobs
    pickle, else threads), ``"process"``, ``"thread"`` or ``"inline"``.  A
    scheduler owns no workers: the executor comes from the process-wide
    registry, so every instance with the same ``(kind, workers)`` shares one
    warm pool (see :func:`shutdown_worker_pools`).
    """

    def __init__(self, workers: int = 1, executor: str = "auto",
                 chunks_per_machine: Optional[int] = None) -> None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        if executor not in ("auto", "process", "thread", "inline"):
            raise ValueError(f"unknown executor kind {executor!r}")
        self.workers = workers
        self.executor = executor
        #: chunks per machine; None = one chunk per worker, 1 when serial
        self.chunks_per_machine = chunks_per_machine

    # -- public API ---------------------------------------------------------

    def audit_machine(self, auditor: Auditor, target: AccountableVMM) -> AuditResult:
        """Audit one machine on the engine; returns the merged result."""
        report = self.audit_fleet([AuditAssignment(auditor, target)])
        return report.results[target.identity]

    def audit_fleet(self, assignments: Sequence[AuditAssignment]) -> FleetAuditReport:
        """Audit every assignment, fanning chunks out over the worker pool.

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
        run = _ChunkRun(self.executor, self.workers)
        started = run.started
        plans: List[_MachinePlan] = []
        for assignment in assignments:
            plan = self._plan(assignment, run)
            plan.auditor.obs.progress.machine_started(
                plan.machine, total_chunks=len(plan.jobs))
            plans.append(plan)
        outcome_list = run.gather()
        run.observe(plan.auditor.obs for plan in plans)

        report = FleetAuditReport(
            workers=self.workers, executor_used=run.kind,
            chunk_count=len(run.jobs))
        cursor = 0
        work_items = [outcome.cost.total_seconds for outcome in outcome_list]
        for plan in plans:
            machine_outcomes = outcome_list[cursor:cursor + len(plan.jobs)]
            cursor += len(plan.jobs)
            machine_report = self._merge(plan, machine_outcomes)
            report.machine_reports[plan.machine] = machine_report
            report.results[plan.machine] = machine_report.result
            if plan.unchunkable_reason is not None:
                # The serial front-end ran in the parent for this machine; it
                # is one unsplittable work item, and leaving it out would make
                # the modelled speedup look better than the audit really was.
                work_items.append(machine_report.result.cost.total_seconds)
        report.wall_seconds = time.perf_counter() - started
        for plan in plans:
            result = report.results[plan.machine]
            if result.wall_seconds == 0.0:
                # Chunks of many machines interleave on one pool, so wall
                # time cannot be attributed per machine; the fleet wall is
                # the shared measurement.  (A log audited by the serial
                # front-end carries its own audit_segment timing.)
                result.wall_seconds = report.wall_seconds
            obs = plan.auditor.obs
            obs.progress.machine_done(plan.machine, result.verdict.value,
                                      result.wall_seconds)
            obs.tracer.event(
                "audit.engine.machine", domain="wall", track=plan.machine,
                timestamp=started, duration=report.wall_seconds,
                chunks=len(plan.jobs), executor=report.executor_used,
                verdict=result.verdict.value)
        report.total_cost = AuditCost.total(
            result.cost for result in report.results.values())
        report.modelled = schedule(work_items, self.workers)
        return report

    def run_jobs(self, jobs: Sequence[ChunkJob],
                 obs: Optional[Observability] = None) -> List[ChunkOutcome]:
        """Execute prepared chunk jobs on the pool (used by the spot checker)."""
        run = _ChunkRun(self.executor, self.workers)
        for job in jobs:
            run.submit(job)
        outcomes = run.gather()
        if obs is not None:
            run.observe([obs])
        return outcomes

    # -- planning -----------------------------------------------------------

    def _plan(self, assignment: AuditAssignment,
              run: _ChunkRun) -> "_MachinePlan":
        """Plan one machine, submitting each chunk job to ``run`` as soon as
        it exists: decoding chunk *k+1* here overlaps chunk *k* in a worker.

        The parent threads what every chunk needs from its predecessor: the
        snapshot sealing it, verified, and its boundary context (the RECVs
        still in flight at its end, with the log suffix that anchors them).
        """
        auditor = assignment.auditor
        target = assignment.target
        plan = _MachinePlan(machine=target.identity, auditor=auditor,
                            target=target)
        make_job = job_factory(auditor, target.identity)
        first_job = len(run.jobs)
        state, snapshot_bytes = replay_start(target)
        context = BoundaryContext()
        boundary: Optional[LogEntry] = None
        plan.unplanned = self._chunks(target)
        try:
            for segment, checkpoint, ends_log in plan.unplanned:
                if plan.jobs:
                    state, snapshot_bytes = fetch_verified_snapshot_entry(
                        target, boundary)
                context.ends_log = ends_log
                job = make_job(segment, chunk_index=len(plan.jobs),
                               checkpoint=checkpoint, initial_state=state,
                               snapshot_bytes=snapshot_bytes, context=context)
                plan.jobs.append(job)
                run.submit(job)
                if run.failed_since(first_job):
                    # a conviction costs the chunks up to the fault, no more
                    break
                # after the job is pickled: this decodes content lazily
                context = context.after(segment)
                boundary = last_snapshot_entry(segment)
        except (MissingSnapshotError, SegmentError, HashChainError,
                LogFormatError) as exc:
            # The target could not produce consistent segments or a
            # verifiable snapshot at a chunk boundary, or its entries do not
            # parse: its log is one chunk, replayed from the start, which is
            # the serial front-end's — rather than failing the fleet.
            run.discard_from(first_job)
            plan.jobs = []
            plan.unchunkable_reason = str(exc)
        return plan

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
        budget = self.chunks_per_machine or max(1, self.workers)
        if getattr(target, "supports_streaming", False):
            if not target.archive.segment_records(target.identity):
                raise SegmentError(f"no archived segments for {target.identity!r}")
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

    # -- merging ------------------------------------------------------------

    @staticmethod
    def _merge(plan: "_MachinePlan",
               outcomes: List[ChunkOutcome]) -> MachineAuditReport:
        auditor = plan.auditor
        if plan.unchunkable_reason is not None:
            result = auditor.audit_whole_log(plan.target)
        else:
            result, failed = fold_outcomes(plan.machine, auditor.identity,
                                           zip(plan.jobs, outcomes))
            if failed is not None:
                result.evidence = auditor.evidence_for(
                    failed, result, chain(
                        (job.segment
                         for job in plan.jobs[failed.chunk_index + 1:]),
                        (chunk[0] for chunk in plan.unplanned)))
        return MachineAuditReport(machine=plan.machine, result=result,
                                  chunk_count=len(outcomes),
                                  chunk_outcomes=outcomes,
                                  unchunkable_reason=plan.unchunkable_reason)


@dataclass
class _MachinePlan:
    """Prepared work for one machine (parent-side only; never pickled)."""

    machine: str
    auditor: Auditor
    target: AccountableVMM
    jobs: List[ChunkJob] = field(default_factory=list)
    #: set when chunk planning failed (e.g. unverifiable snapshot) and the
    #: whole log is audited by the serial front-end instead
    unchunkable_reason: Optional[str] = None
    #: the chunks planning stopped short of, a chunk having failed already
    unplanned: Iterator[Tuple[LogSegment, ChainCheckpoint, bool]] = iter(())


# ---------------------------------------------------------------------------
# Helpers shared with the spot checker
# ---------------------------------------------------------------------------

def job_factory(auditor: Auditor, machine: str) -> Callable[..., ChunkJob]:
    """:func:`~repro.audit.kernel.chunk_job` for the chunks of one machine's
    log, with what they share bound once: the machine's authenticators, a
    picklable view of the keys, the image, and the modelled price of a
    signature verification (the engine prices signature batches)."""
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
