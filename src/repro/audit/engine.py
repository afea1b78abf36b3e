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
   ``chunks_per_machine`` chunks (:func:`repro.log.segments.partition_segments`);
2. every chunk becomes a self-contained, picklable :class:`ChunkJob` holding
   the chunk segment, the matching authenticators, a
   :class:`~repro.crypto.keys.StaticKeyView` of the public keys, the
   reference image, and — for chunks that do not start the log — the
   verified snapshot state at the chunk boundary;
3. workers run :func:`run_chunk`: incremental hash-chain verification from
   the chunk's :class:`~repro.log.hashchain.ChainCheckpoint`, batched
   authenticator signature verification
   (:func:`~repro.log.authenticator.batch_verify_authenticators`), the
   per-entry syntactic checks, and deterministic replay of the chunk;
4. the scheduler merges the per-chunk outcomes into one machine-level
   :class:`~repro.audit.verdict.AuditResult` — the stream cross-checks that
   cannot be chunked (they pair entries across the whole log, but need no
   cryptography) run once centrally, and chunk boundaries are stitched by
   comparing checkpoints.

Execution is one code path over one kind of object, a
``concurrent.futures`` executor: chunk jobs are submitted the moment the plan
produces them, the parent runs its own share (the whole-log cross-reference
check) while they are outstanding, and outcomes are gathered in plan order.
The executors are process-wide and warm: :data:`_POOLS` hands out one per
``(kind, workers)``, started on first use and kept until
:func:`shutdown_worker_pools` (also registered ``atexit``), so only the first
parallel audit of a process pays for starting workers.  ``"inline"`` is the
same path over an executor that runs the job inside ``submit``.

When anything fails, the engine re-runs the plain serial audit of that
machine (:meth:`Auditor.audit_segment`) to produce the *canonical* evidence —
exactly what a ``workers=1`` audit would have produced — so verdicts and
evidence are bit-identical across worker counts; only the honest fast path is
parallel.  That mirrors standard batch-verification designs: an optimistic
batched screen, with a fallback that isolates the culprit.

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
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.audit.auditor import Auditor
from repro.audit.semantic import SemanticChecker
from repro.audit.syntactic import SyntacticChecker
from repro.audit.verdict import AuditCost, AuditPhase, AuditResult, Verdict
from repro.avmm.monitor import AccountableVMM
from repro.avmm.replayer import ReplayReport
from repro.crypto.keys import StaticKeyView
from repro.crypto.signatures import get_scheme
from repro.errors import (CryptoError, HashChainError, LogFormatError,
                          MissingSnapshotError, SegmentError)
from repro.log.authenticator import Authenticator, batch_verify_authenticators
from repro.log.entries import EntryType
from repro.log.hashchain import ChainCheckpoint, verify_chain_incremental
from repro.log.segments import LogSegment, concatenate_segments, partition_segments
from repro.metrics.parallel import ParallelSchedule, schedule
from repro.metrics.perfmodel import CostParameters
from repro.obs import Observability
from repro.vm.image import VMImage

__all__ = [
    "AuditAssignment",
    "AuditScheduler",
    "ChunkJob",
    "ChunkOutcome",
    "FleetAuditReport",
    "fetch_verified_snapshot",
    "MachineAuditReport",
    "pool_starts_total",
    "run_chunk",
    "scheme_verify_seconds",
    "shutdown_worker_pools",
]


# ---------------------------------------------------------------------------
# Work items
# ---------------------------------------------------------------------------

@dataclass
class ChunkJob:
    """Everything a worker needs to audit one chunk, with no live objects.

    Every field pickles, so a job can cross a process boundary.  The chunk's
    position in the log is carried by ``checkpoint`` (the chain state just
    before its first entry); ``initial_state`` is the verified snapshot at
    the chunk boundary, or ``None`` for the chunk that starts the log.
    """

    machine: str
    auditor: str
    chunk_index: int
    segment: LogSegment
    checkpoint: ChainCheckpoint
    authenticators: List[Authenticator]
    key_view: StaticKeyView
    reference_image: VMImage
    initial_state: Optional[Dict[str, Any]] = None
    snapshot_bytes: int = 0
    cost_params: CostParameters = field(default_factory=CostParameters)
    #: modelled cost of one signature verification under the target's scheme
    verify_seconds: float = 0.0
    #: run the stream cross-checks inside the worker too.  Off for the
    #: chunks of one machine-level audit (the parent runs them globally),
    #: on for spot-check chunks, which are audited in isolation.
    check_cross_references: bool = False


@dataclass
class ChunkOutcome:
    """What a worker reports back for one chunk."""

    machine: str
    chunk_index: int
    verdict: Verdict
    phase: AuditPhase
    reason: str = ""
    end_checkpoint: Optional[ChainCheckpoint] = None
    authenticators_checked: int = 0
    syntactic_problems: List[str] = field(default_factory=list)
    replay_report: Optional[ReplayReport] = None
    cost: AuditCost = field(default_factory=AuditCost)
    #: the process that ran the chunk (which worker; the parent when inline)
    worker_pid: int = field(default=0, compare=False)

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.PASS


def run_chunk(job: ChunkJob) -> ChunkOutcome:
    """Audit one chunk.  Runs inside a worker process (or inline).

    Performs the per-chunk share of the three audit steps of Section 4.5:
    tamper check (incremental hash chain + batched authenticator check),
    per-entry syntactic checks (stream cross-checks are the parent's job),
    and the semantic check (deterministic replay from the chunk's verified
    snapshot).  Stops at the first failing phase, like the serial auditor.
    """
    segment = job.segment
    cost = AuditCost.for_download(segment.size_bytes(), job.snapshot_bytes,
                                  job.cost_params)
    outcome = ChunkOutcome(machine=job.machine, chunk_index=job.chunk_index,
                           verdict=Verdict.PASS, phase=AuditPhase.COMPLETE,
                           cost=cost, worker_pid=os.getpid())

    # Step 1a: the chunk must extend its checkpoint by an unbroken chain.
    try:
        outcome.end_checkpoint = verify_chain_incremental(segment.entries,
                                                          job.checkpoint)
    except HashChainError as exc:
        outcome.verdict = Verdict.FAIL
        outcome.phase = AuditPhase.AUTHENTICATOR_CHECK
        outcome.reason = str(exc)
        return outcome

    # Step 1b: batched authenticator verification.  All signatures in the
    # batch come from the target machine, so one screening operation usually
    # settles the whole chunk.
    relevant = [auth for auth in job.authenticators
                if auth.machine == job.machine
                and segment.entries
                and segment.first_sequence <= auth.sequence <= segment.last_sequence]
    valid, invalid, stats = batch_verify_authenticators(relevant, job.key_view)
    cost.signatures_verified += stats.total
    cost.signature_screen_operations += stats.screen_operations
    cost.signature_seconds += job.verify_seconds * (
        stats.screen_operations + stats.single_verifications)
    if invalid:
        first_bad = relevant[invalid[0]]
        outcome.verdict = Verdict.FAIL
        outcome.phase = AuditPhase.AUTHENTICATOR_CHECK
        outcome.reason = (f"authenticator for sequence {first_bad.sequence} "
                          f"has an invalid signature")
        return outcome
    by_sequence = {entry.sequence: entry for entry in segment.entries}
    for auth in valid:
        entry = by_sequence.get(auth.sequence)
        if entry is None:
            continue
        if entry.chain_hash != auth.chain_hash:
            outcome.verdict = Verdict.FAIL
            outcome.phase = AuditPhase.AUTHENTICATOR_CHECK
            outcome.reason = (f"log entry {auth.sequence} does not match the "
                              f"authenticator issued by {job.machine!r} "
                              f"(log was tampered with or forked)")
            return outcome
        outcome.authenticators_checked += 1

    # Step 2: per-entry syntactic checks (format + sender signatures).  The
    # cross-references span chunk boundaries and are checked by the parent.
    syntactic = SyntacticChecker(
        job.key_view,
        check_cross_references=job.check_cross_references).check(segment)
    if not syntactic.ok:
        outcome.verdict = Verdict.FAIL
        outcome.phase = AuditPhase.SYNTACTIC_CHECK
        outcome.reason = "; ".join(syntactic.problems[:3])
        outcome.syntactic_problems = syntactic.problems
        return outcome

    # Step 3: semantic check — replay the chunk from its verified snapshot.
    checker = SemanticChecker(job.reference_image, job.cost_params)
    report = checker.check(segment, initial_state=job.initial_state)
    outcome.replay_report = report
    cost.semantic_seconds = checker.estimate_timing(report).replay_seconds
    if report.diverged:
        outcome.verdict = Verdict.FAIL
        outcome.phase = AuditPhase.SEMANTIC_CHECK
        outcome.reason = report.divergence.describe()
    return outcome


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


class _LastDone:
    """Done-callback noting when the latest job finished (``perf_counter``).

    Deliberately not a method of :class:`_ChunkRun`: a future that referred
    back to the run holding it would make a cycle, keeping every job's
    decoded log alive until the next garbage collection.
    """

    __slots__ = ("at",)

    def __init__(self) -> None:
        self.at = 0.0

    def __call__(self, _future: Future) -> None:
        self.at = max(self.at, time.perf_counter())


class _ChunkRun:
    """One call's chunk jobs: submitted as they are planned, gathered in order."""

    def __init__(self, requested: str, workers: int) -> None:
        self.requested = requested
        self.workers = workers
        #: "inline" until a first job decides otherwise
        self.kind = "inline"
        self.jobs: List[ChunkJob] = []
        self.pool_starts = 0
        #: ``perf_counter`` marks: construction, :meth:`all_submitted`, and
        #: :meth:`gather`'s start and end
        self.started = self.submitted = time.perf_counter()
        self.wait_started = self.gathered = 0.0
        self._last_done = _LastDone()
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

    def discard_from(self, start: int) -> None:
        """Forget the jobs from position ``start`` on (their machine could
        not be planned to the end and is audited serially instead)."""
        for future in self._futures[start:]:
            future.cancel()
        del self.jobs[start:], self._futures[start:]

    def all_submitted(self) -> None:
        """Planning is over; what the caller does until :meth:`gather` is
        its own work, overlapped with the jobs still outstanding."""
        self.submitted = time.perf_counter()

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

    @property
    def parent_overlap_seconds(self) -> float:
        """Seconds between :meth:`all_submitted` and :meth:`gather` during
        which a job was still outstanding."""
        return max(0.0, min(self.wait_started, self._last_done.at)
                   - self.submitted)

    def observe(self, observers: Iterable[Observability]) -> None:
        """Record the run on each distinct bundle (telemetry only)."""
        for obs in {id(obs): obs for obs in observers}.values():
            obs.metrics.counter("audit.engine.pool_starts_total").inc(
                self.pool_starts)
            obs.tracer.event(
                "audit.engine.submit", domain="wall", track="audit-engine",
                timestamp=self.started, duration=self.submitted - self.started,
                jobs=len(self.jobs), executor=self.kind)
            obs.tracer.event(
                "audit.engine.wait", domain="wall", track="audit-engine",
                timestamp=self.wait_started,
                duration=self.gathered - self.wait_started,
                parent_overlap_seconds=self.parent_overlap_seconds)

    def _submit(self, job: ChunkJob) -> Future:
        if self.kind == "process":
            # Pickled here rather than by the pool's feeder thread, which
            # would be walking these entries' ``__dict__`` while the parent,
            # already on to its cross-check, adds lazily decoded ``content``
            # to them.
            future = self._pool.submit(_run_pickled_chunk, pickle.dumps(job))
        else:
            future = self._pool.submit(run_chunk, job)
        future.add_done_callback(self._last_done)
        return future

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
    #: the serial auditor was re-run to produce canonical evidence
    confirmed_serially: bool = False


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
    #: measured seconds of the parent's own work (the cross-reference checks)
    #: that ran while chunk jobs were still outstanding; 0 when inline
    parent_overlap_seconds: float = 0.0
    #: modelled cost schedule (hardware-independent, from AuditCost totals)
    modelled: Optional[ParallelSchedule] = None
    total_cost: AuditCost = field(default_factory=AuditCost)

    @property
    def all_passed(self) -> bool:
        return all(result.verdict is Verdict.PASS for result in self.results.values())

    @property
    def modelled_speedup(self) -> float:
        return self.modelled.speedup if self.modelled is not None else 1.0

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
                 chunks_per_machine: Optional[int] = None,
                 confirm_failures_serially: bool = True) -> None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        if executor not in ("auto", "process", "thread", "inline"):
            raise ValueError(f"unknown executor kind {executor!r}")
        self.workers = workers
        self.executor = executor
        #: chunks per machine; None = one chunk per worker, 1 when serial
        self.chunks_per_machine = chunks_per_machine
        self.confirm_failures_serially = confirm_failures_serially

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
        run.all_submitted()
        # The parent's own share of each audit, done while the workers
        # verify and replay instead of after they have gone idle again.
        for plan in plans:
            if plan.serial_fallback_reason is None:
                plan.cross_reference_problem = self._cross_check(plan)
        outcome_list = run.gather()
        run.observe(plan.auditor.obs for plan in plans)

        report = FleetAuditReport(
            workers=self.workers, executor_used=run.kind,
            chunk_count=len(run.jobs),
            parent_overlap_seconds=run.parent_overlap_seconds)
        cursor = 0
        work_items = [outcome.cost.total_seconds for outcome in outcome_list]
        for plan in plans:
            machine_outcomes = outcome_list[cursor:cursor + len(plan.jobs)]
            cursor += len(plan.jobs)
            machine_report = self._merge(plan, machine_outcomes)
            report.machine_reports[plan.machine] = machine_report
            report.results[plan.machine] = machine_report.result
            if machine_report.confirmed_serially:
                # A serial (re-)audit ran in the parent for this machine; it
                # is one unsplittable work item, and leaving it out would make
                # the modelled speedup look better than the audit really was.
                work_items.append(machine_report.result.cost.total_seconds)
        report.wall_seconds = time.perf_counter() - started
        for plan in plans:
            result = report.results[plan.machine]
            if result.wall_seconds == 0.0:
                # Chunks of many machines interleave on one pool, so the
                # fast path cannot attribute wall time per machine; the
                # fleet wall is the shared measurement.  (Serial confirms
                # already carry their own audit_segment timing.)
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
        run.all_submitted()
        outcomes = run.gather()
        if obs is not None:
            run.observe([obs])
        return outcomes

    # -- planning -----------------------------------------------------------

    def _plan(self, assignment: AuditAssignment,
              run: _ChunkRun) -> "_MachinePlan":
        """Plan one machine, submitting each chunk job to ``run`` as soon as
        it exists."""
        auditor = assignment.auditor
        target = assignment.target
        machine = target.identity
        first_job = len(run.jobs)
        try:
            if getattr(target, "supports_streaming", False):
                return self._plan_streaming(assignment, run)
            return self._plan_chunks(assignment, run)
        except (MissingSnapshotError, SegmentError, HashChainError) as exc:
            # The target could not produce consistent segments or a
            # verifiable snapshot at a chunk boundary (or, for a streamed
            # archive, its stored chain does not verify).  The serial audit
            # does not depend on stored snapshots (it replays from the
            # start), so fall back to it for this machine rather than
            # failing the fleet.
            run.discard_from(first_job)
            plan = _MachinePlan(machine=machine, auditor=auditor, target=target,
                                jobs=[], full_segment=target.get_log_segment(),
                                serial_fallback_reason=str(exc))
            plan.initial_state, plan.snapshot_bytes = \
                self._replay_start(target)
            return plan

    @staticmethod
    def _replay_start(target) -> Tuple[Optional[Dict[str, Any]], int]:
        """Replay start state for the whole log (GC boundary, if truncated)."""
        if getattr(target, "is_truncated", None) is not None \
                and target.is_truncated():
            return target.initial_state()
        return None, 0

    def _plan_streaming(self, assignment: AuditAssignment,
                        run: _ChunkRun) -> "_MachinePlan":
        """Build chunk jobs from an archive-backed target's entry stream.

        One pass over the archived segment files produces the jobs directly:
        no whole-log materialization, no second copy via
        ``get_snapshot_segments`` — the parent holds exactly the chunks the
        workers will verify (concatenated, by reference, for the parent's
        cross-reference check and the canonical serial re-audit).  Each job
        is submitted before the next chunk is read, so decoding chunk *k+1*
        here overlaps chunk *k* in a worker.  Truncated archives are handled
        by anchoring the first chunk at the retention boundary's verified
        snapshot.
        """
        from repro.audit.stream import (
            fetch_verified_snapshot_entry,
            iter_stream_chunks,
        )
        auditor = assignment.auditor
        target = assignment.target
        machine = target.identity
        authenticators = [auth for auth in auditor.authenticators_for(machine)
                          if auth.machine == machine]
        key_view = auditor.keystore.static_view()
        verify_seconds = scheme_verify_seconds(auditor.keystore, machine)
        chunk_target = self.chunks_per_machine or max(1, self.workers)
        start_state, start_bytes = self._replay_start(target)

        jobs: List[ChunkJob] = []
        previous_snapshot_entry = None
        # verify_chain=False: the workers prove each chunk extends its
        # checkpoint (run_chunk step 1a), so verifying here too would run
        # the whole chain serially in the parent on top of that.
        for chunk in iter_stream_chunks(target, max_chunks=chunk_target,
                                        verify_chain=False):
            if chunk.index == 0:
                initial_state, snapshot_bytes = start_state, start_bytes
            else:
                if previous_snapshot_entry is None:
                    raise MissingSnapshotError(
                        "the segment preceding the chunk does not end with "
                        "a snapshot")
                initial_state, snapshot_bytes = fetch_verified_snapshot_entry(
                    target, previous_snapshot_entry)
            segment = chunk.segment
            job = ChunkJob(
                machine=machine,
                auditor=auditor.identity,
                chunk_index=chunk.index,
                segment=segment,
                checkpoint=chunk.start_checkpoint,
                authenticators=[auth for auth in authenticators
                                if segment.entries
                                and segment.first_sequence <= auth.sequence
                                <= segment.last_sequence],
                key_view=key_view,
                reference_image=auditor.reference_image,
                initial_state=initial_state,
                snapshot_bytes=snapshot_bytes,
                cost_params=auditor.cost_params,
                verify_seconds=verify_seconds,
            )
            jobs.append(job)
            run.submit(job)
            snapshot_entries = segment.entries_of_type(EntryType.SNAPSHOT)
            previous_snapshot_entry = (snapshot_entries[-1]
                                       if snapshot_entries else None)
        if not jobs:
            raise SegmentError(f"no archived segments for {machine!r}")
        return _MachinePlan(machine=machine, auditor=auditor, target=target,
                            jobs=jobs, full_segment=None,
                            initial_state=start_state,
                            snapshot_bytes=start_bytes)

    def _plan_chunks(self, assignment: AuditAssignment,
                     run: _ChunkRun) -> "_MachinePlan":
        auditor = assignment.auditor
        target = assignment.target
        machine = target.identity
        authenticators = [auth for auth in auditor.authenticators_for(machine)
                          if auth.machine == machine]
        key_view = auditor.keystore.static_view()
        verify_seconds = scheme_verify_seconds(auditor.keystore, machine)

        segments = target.get_snapshot_segments()
        segments = [segment for segment in segments if segment.entries]
        if not segments:
            full = target.get_log_segment()
            segments = [full] if full.entries else []
        chunk_target = self.chunks_per_machine or max(1, self.workers)
        chunks = partition_segments(segments, chunk_target) if segments else []

        jobs: List[ChunkJob] = []
        full_segment = (concatenate_segments(chunks) if chunks
                        else target.get_log_segment())
        for index, chunk in enumerate(chunks):
            initial_state: Optional[Dict[str, Any]] = None
            snapshot_bytes = 0
            if index > 0:
                initial_state, snapshot_bytes = fetch_verified_snapshot(
                    target, chunks[index - 1])
            job = ChunkJob(
                machine=machine,
                auditor=auditor.identity,
                chunk_index=index,
                segment=chunk,
                checkpoint=chunk.start_checkpoint(),
                # ship only the chunk's share of the authenticators: job
                # pickling cost then scales with chunk size, not log size
                authenticators=[auth for auth in authenticators
                                if chunk.first_sequence <= auth.sequence
                                <= chunk.last_sequence],
                key_view=key_view,
                reference_image=auditor.reference_image,
                initial_state=initial_state,
                snapshot_bytes=snapshot_bytes,
                cost_params=auditor.cost_params,
                verify_seconds=verify_seconds,
            )
            jobs.append(job)
            run.submit(job)
        return _MachinePlan(machine=machine, auditor=auditor, target=target,
                            jobs=jobs, full_segment=full_segment)

    # -- merging ------------------------------------------------------------

    def _merge(self, plan: "_MachinePlan",
               outcomes: List[ChunkOutcome]) -> MachineAuditReport:
        auditor = plan.auditor
        machine = plan.machine

        if plan.serial_fallback_reason is not None:
            result = self._confirm_serially(plan)
            return MachineAuditReport(machine=machine, result=result,
                                      confirmed_serially=True)

        failed = next((outcome for outcome in outcomes if not outcome.ok), None)
        boundary_reason: Optional[str] = None
        if failed is None:
            boundary_reason = self._check_boundaries(plan, outcomes)

        if failed is not None or boundary_reason is not None:
            # Slow path: re-run the serial audit so evidence is canonical and
            # identical to what workers=1 would produce.
            if self.confirm_failures_serially:
                result = self._confirm_serially(plan)
            else:
                result = self._synthesise_failure(plan, failed, boundary_reason)
            return MachineAuditReport(machine=machine, result=result,
                                      chunk_count=len(outcomes),
                                      chunk_outcomes=outcomes,
                                      confirmed_serially=self.confirm_failures_serially)

        # Fast path: all chunks passed; stitch counters and costs together.
        cost = AuditCost.total(outcome.cost for outcome in outcomes)
        replay = _merge_replay_reports(machine,
                                       [outcome.replay_report for outcome in outcomes])
        result = AuditResult(
            machine=machine, auditor=auditor.identity,
            verdict=Verdict.PASS, phase=AuditPhase.COMPLETE,
            authenticators_checked=sum(outcome.authenticators_checked
                                       for outcome in outcomes),
            replay_report=replay, cost=cost)
        return MachineAuditReport(machine=machine, result=result,
                                  chunk_count=len(outcomes),
                                  chunk_outcomes=outcomes)

    def _confirm_serially(self, plan: "_MachinePlan") -> AuditResult:
        """The canonical serial audit (anchored at the GC boundary if any)."""
        return plan.auditor.audit_segment(plan.machine, plan.materialized(),
                                          initial_state=plan.initial_state,
                                          snapshot_bytes=plan.snapshot_bytes)

    @staticmethod
    def _cross_check(plan: "_MachinePlan") -> Optional[str]:
        """The whole-segment cross-checker, with its exact serial semantics.

        The parent's own share of an audit: it needs the whole log and no
        cryptography.  It runs before the chunk outcomes are in, on entries
        no worker has vouched for yet, so content that does not parse is a
        problem to report here, not an exception (a worker's format sweep
        reports the same entry, and the serial re-audit decides).
        (Streamed plans concatenate entry references lazily — the parent
        already holds every chunk, so this adds no data copies.)
        """
        try:
            cross = SyntacticChecker(check_entry_format=False).check(
                plan.materialized())
        except LogFormatError as exc:
            return str(exc)
        return "; ".join(cross.problems[:3]) if not cross.ok else None

    @staticmethod
    def _check_boundaries(plan: "_MachinePlan",
                          outcomes: List[ChunkOutcome]) -> Optional[str]:
        """Chunk stitching: checkpoints must tile, cross-references must hold."""
        for previous, current in zip(outcomes, outcomes[1:]):
            expected = plan.jobs[current.chunk_index].checkpoint
            if previous.end_checkpoint != expected:
                return (f"chunk {current.chunk_index} does not extend chunk "
                        f"{previous.chunk_index} (checkpoint mismatch)")
        return plan.cross_reference_problem

    def _synthesise_failure(self, plan: "_MachinePlan",
                            failed: Optional[ChunkOutcome],
                            boundary_reason: Optional[str]) -> AuditResult:
        """Failure result without the serial confirmation pass (opt-in)."""
        from repro.audit.evidence import Evidence
        auditor = plan.auditor
        phase = failed.phase if failed is not None else AuditPhase.SYNTACTIC_CHECK
        reason = failed.reason if failed is not None else (boundary_reason or "")
        evidence = Evidence(machine=plan.machine, accuser=auditor.identity,
                            reason=reason, segment=plan.materialized(),
                            authenticators=auditor.authenticators_for(plan.machine),
                            reference_image_hash=auditor.reference_image.image_hash(),
                            initial_state=plan.initial_state)
        return AuditResult(machine=plan.machine, auditor=auditor.identity,
                           verdict=Verdict.FAIL, phase=phase, reason=reason,
                           evidence=evidence)

@dataclass
class _MachinePlan:
    """Prepared work for one machine (parent-side only; never pickled)."""

    machine: str
    auditor: Auditor
    target: AccountableVMM
    jobs: List[ChunkJob]
    #: the whole log, or ``None`` for streamed plans, which concatenate it
    #: from the chunk jobs on first use
    full_segment: Optional[LogSegment]
    #: set when chunk planning failed (e.g. unverifiable snapshot) and the
    #: whole machine must be audited serially instead
    serial_fallback_reason: Optional[str] = None
    #: replay start for the whole log (the GC boundary snapshot, if any)
    initial_state: Optional[Dict[str, Any]] = None
    snapshot_bytes: int = 0
    #: what the parent's whole-log cross-reference check found, if anything
    cross_reference_problem: Optional[str] = None

    def materialized(self) -> LogSegment:
        """The whole log as one segment (concatenated on first use)."""
        if self.full_segment is None:
            self.full_segment = concatenate_segments(
                [job.segment for job in self.jobs])
        return self.full_segment


# ---------------------------------------------------------------------------
# Helpers shared with the spot checker
# ---------------------------------------------------------------------------

def fetch_verified_snapshot(target: AccountableVMM,
                             preceding_segment: LogSegment) -> Tuple[Dict[str, Any], int]:
    """Download and authenticate the snapshot at a chunk boundary.

    The preceding chunk ends with the SNAPSHOT entry whose hash-tree root
    must match the downloaded snapshot (Section 4.5, "Verifying the
    snapshot").  Returns ``(state, transfer_bytes)``.
    """
    from repro.audit.stream import fetch_verified_snapshot_entry
    snapshot_entries = preceding_segment.entries_of_type(EntryType.SNAPSHOT)
    if not snapshot_entries:
        raise MissingSnapshotError(
            "the segment preceding the chunk does not end with a snapshot")
    return fetch_verified_snapshot_entry(target, snapshot_entries[-1])


def scheme_verify_seconds(keystore, machine: str) -> float:
    """Modelled cost of one signature verification under the target's scheme."""
    try:
        scheme_name = keystore.verify_key_for(machine).scheme_name
        return get_scheme(scheme_name).costs().verify_seconds
    except CryptoError:  # no certificate for the machine, or an unknown scheme
        return 0.0


def _merge_replay_reports(machine: str,
                          reports: Sequence[Optional[ReplayReport]]) -> ReplayReport:
    """Stitch per-chunk replay reports into one machine-level report.

    Work counters sum across chunks.  Instruction counters are *absolute*
    (each chunk's VM restores its counter from the boundary snapshot), so
    the last chunk's value is the whole-log count — summing would double-
    count every restored prefix.  ``active_seconds`` still sums per-chunk
    bucket counts, which can exceed the whole-log count by up to one bucket
    per boundary; the serial streaming pipeline computes it globally.
    """
    merged = ReplayReport(machine=machine)
    for report in reports:
        if report is None:
            continue
        merged.entries_replayed += report.entries_replayed
        merged.events_injected += report.events_injected
        merged.clock_reads_served += report.clock_reads_served
        merged.outputs_checked += report.outputs_checked
        merged.snapshots_checked += report.snapshots_checked
        merged.instructions_executed = report.instructions_executed
        merged.active_seconds += report.active_seconds
    return merged
