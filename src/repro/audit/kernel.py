"""The audit kernel: the three audit steps of Section 4.5, written once.

An audit checks a log segment against the authenticators the machine issued
(tamper check), checks that it is well-formed (syntactic check) and replays it
from a verified state (semantic check).  Sections 3.5 and 6.12 add that any
snapshot-delimited chunk of a log can be audited that way on its own.
:func:`run_chunk` is that procedure for one chunk; every audit front-end is a
way of cutting a log into chunks, running them through it and folding the
outcomes back together (:func:`fold_outcomes`).  The serial auditor runs the
whole segment as one chunk; the audit engine maps it over an executor — inline
at one worker, which is how an archive is audited one chunk at a time — and
folds the outcomes in log order; the spot checker runs it on sampled chunks; a
third party verifying :class:`~repro.audit.evidence.Evidence` runs it under
its own keys and reference image.

A chunk is not quite self-contained: the monitor logs a RECV when a packet
arrives and injects the packet into the AVM about a millisecond later, so a
snapshot can fall between the two.  What is in flight at a chunk's edges is
the :class:`BoundaryContext` every job carries.

This module imports none of the front-ends; they all import it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.audit.semantic import SemanticChecker, modelled_replay_seconds
from repro.audit.syntactic import SyntacticChecker
from repro.audit.verdict import AuditCost, AuditPhase, AuditResult, Verdict
from repro.avmm.replayer import ReplayReport
from repro.errors import HashChainError, MissingSnapshotError
from repro.log.authenticator import Authenticator, batch_verify_authenticators
from repro.log.entries import EntryType, LogEntry
from repro.log.hashchain import ChainCheckpoint, verify_chain_incremental
from repro.log.segments import LogSegment
from repro.metrics.perfmodel import CostParameters
from repro.vm.image import VMImage

__all__ = [
    "BoundaryContext",
    "ChunkJob",
    "ChunkOutcome",
    "chunk_job",
    "fetch_verified_snapshot_entry",
    "fold_outcomes",
    "last_snapshot_entry",
    "replay_start",
    "run_chunk",
]


@dataclass
class BoundaryContext:
    """What is in flight at the two edges of a chunk.

    ``in_flight`` holds the RECV entries logged before the chunk's first
    entry whose packet had not entered the AVM by then.  The chunk's replay
    takes their payloads, and its cross-reference check takes them as the
    RECVs of the injections that open the chunk — and reports one that the
    chunk never injects.  ``ends_log`` describes the far edge: while the log
    goes on, a RECV the chunk itself logs but does not inject is in flight
    for the next chunk's audit; when the chunk ends the log it is the
    auditee's to explain.  ``anchor`` is the log suffix that ends where the
    chunk starts, from the oldest in-flight RECV through the boundary
    SNAPSHOT entry: what ties the chunk's start state and ``in_flight`` to
    its hash chain for a third party (:class:`~repro.audit.evidence.Evidence`).

    The default is a whole log audited as one chunk.
    """

    in_flight: List[LogEntry] = field(default_factory=list)
    ends_log: bool = True
    anchor: List[LogEntry] = field(default_factory=list)

    def after(self, segment: LogSegment) -> "BoundaryContext":
        """The context of the chunk that follows ``segment``, a chunk that
        started with this one: the RECVs still in flight at its end and the
        entries from the oldest of them on (``ends_log`` is the caller's)."""
        window = {str(entry.content.get("message_id")): entry
                  for entry in self.in_flight}
        recv, maclayer = EntryType.RECV, EntryType.MACLAYER
        for entry in segment.entries:
            if entry.entry_type is recv:
                window[str(entry.content.get("message_id"))] = entry
            elif entry.entry_type is maclayer \
                    and entry.content.get("direction") == "in":
                window.pop(str(entry.content.get("message_id")), None)
        oldest = min((entry.sequence for entry in window.values()),
                     default=segment.last_sequence)
        tail = [entry for entry in self.anchor if entry.sequence >= oldest]
        tail += segment.entries[max(0, oldest - segment.first_sequence):]
        return BoundaryContext(list(window.values()), anchor=tail)


# ---------------------------------------------------------------------------
# Work items
# ---------------------------------------------------------------------------

@dataclass
class ChunkJob:
    """Everything needed to audit one chunk, with no live objects.

    Every field pickles (given a picklable ``key_view``), so a job can cross
    a process boundary.  The chunk's position in the log is carried by
    ``checkpoint`` (the chain state just before its first entry);
    ``initial_state`` is the verified snapshot at the chunk boundary, or
    ``None`` for the chunk that starts the log.
    """

    segment: LogSegment
    checkpoint: ChainCheckpoint
    authenticators: List[Authenticator]
    #: a :class:`~repro.crypto.keys.KeyStore`, or its picklable static view
    key_view: Any
    reference_image: VMImage
    chunk_index: int = 0
    initial_state: Optional[Dict[str, Any]] = None
    snapshot_bytes: int = 0
    cost_params: CostParameters = field(default_factory=CostParameters)
    #: modelled cost of one signature verification under the target's scheme
    #: (0.0 on the front-ends that do not price signatures)
    verify_seconds: float = 0.0
    context: BoundaryContext = field(default_factory=BoundaryContext)


@dataclass
class ChunkOutcome:
    """What :func:`run_chunk` reports for one chunk."""

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

    def as_result(self, auditor: str) -> AuditResult:
        """The outcome as the result of an audit of just this chunk."""
        return AuditResult(
            machine=self.machine, auditor=auditor, verdict=self.verdict,
            phase=self.phase, reason=self.reason,
            authenticators_checked=self.authenticators_checked,
            syntactic_problems=self.syntactic_problems,
            replay_report=self.replay_report, cost=self.cost)


def chunk_job(segment: LogSegment, authenticators: Iterable[Authenticator],
              key_view: Any, reference_image: VMImage, *,
              checkpoint: Optional[ChainCheckpoint] = None,
              context: Optional[BoundaryContext] = None,
              **fields: Any) -> ChunkJob:
    """The one place a :class:`ChunkJob` is built (``fields`` are its
    remaining fields, by name).

    ``checkpoint`` defaults to the one the segment itself claims (its
    ``start_hash``); a front-end that knows the chain state from elsewhere —
    the archive manifest, the previous chunk — passes that instead.  Only the
    chunk's share of ``authenticators`` goes into the job, so what a job
    pickles to scales with the chunk, not the log.
    """
    covered = range(0)
    if segment.entries:
        covered = range(segment.first_sequence, segment.last_sequence + 1)
    elif checkpoint is None:  # an empty log: nothing to extend it
        checkpoint = ChainCheckpoint(0, segment.start_hash)
    return ChunkJob(
        segment=segment, checkpoint=checkpoint or segment.start_checkpoint(),
        authenticators=[auth for auth in authenticators
                        if auth.machine == segment.machine
                        and auth.sequence in covered],
        key_view=key_view, reference_image=reference_image,
        context=context or BoundaryContext(), **fields)


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------

def run_chunk(job: ChunkJob) -> ChunkOutcome:
    """Audit one chunk: tamper check, syntactic check, replay.

    Stops at the first failing phase and reports the first problem in it.
    Pure in its argument, so it runs as well in a worker process as inline.
    Raises :class:`~repro.errors.CertificateError` when authenticators cover
    the chunk and the keys hold no certificate for its machine.
    """
    segment = job.segment
    cost = AuditCost.for_download(segment.size_bytes(), job.snapshot_bytes,
                                  job.cost_params)
    outcome = ChunkOutcome(machine=segment.machine, chunk_index=job.chunk_index,
                           verdict=Verdict.PASS, phase=AuditPhase.COMPLETE,
                           cost=cost, worker_pid=os.getpid())

    def failed(phase: AuditPhase, reason: str) -> ChunkOutcome:
        outcome.verdict, outcome.phase, outcome.reason = \
            Verdict.FAIL, phase, reason
        return outcome

    # Step 1a: the chunk must extend its checkpoint by an unbroken chain.
    try:
        outcome.end_checkpoint = verify_chain_incremental(segment.entries,
                                                          job.checkpoint)
    except HashChainError as exc:
        return failed(AuditPhase.AUTHENTICATOR_CHECK, str(exc))

    # Step 1b: every valid authenticator that covers an entry of the chunk
    # must commit to that very entry; one that does not verify on its own
    # proves nothing about the machine and is ignored.
    by_sequence = {entry.sequence: entry for entry in segment.entries}
    covering = [auth for auth in job.authenticators
                if auth.sequence in by_sequence]
    valid = batch_verify_authenticators(covering, job.key_view,
                                        segment.machine)
    cost.signatures_verified += len(covering)
    cost.signature_seconds += job.verify_seconds * len(covering)
    for auth in valid:
        if by_sequence[auth.sequence].chain_hash != auth.chain_hash:
            return failed(AuditPhase.AUTHENTICATOR_CHECK,
                          f"log entry {auth.sequence} does not match the "
                          f"authenticator issued by {segment.machine!r} "
                          f"(log was tampered with or forked)")
    outcome.authenticators_checked = len(valid)

    # Step 2: syntactic check — per-entry format and sender commitments, and
    # the message stream against the MAC-layer stream, given what was in
    # flight when the chunk started.  Chunks that tile a log, each starting
    # with what its predecessor left in flight, pair the whole log.
    syntactic = SyntacticChecker(job.key_view).check(segment, job.context)
    if not syntactic.ok:
        outcome.syntactic_problems = syntactic.problems
        return failed(AuditPhase.SYNTACTIC_CHECK,
                      "; ".join(syntactic.problems[:3]))

    # Step 3: semantic check — replay the chunk from its boundary state.
    report = SemanticChecker(job.reference_image).check(
        segment, initial_state=job.initial_state,
        in_flight=job.context.in_flight)
    outcome.replay_report = report
    cost.semantic_seconds = modelled_replay_seconds(report.active_seconds,
                                                    job.cost_params)
    if report.diverged:
        return failed(AuditPhase.SEMANTIC_CHECK, report.divergence.describe())
    return outcome


def fold_outcomes(machine: str, auditor: str,
                  audited: Iterable[Tuple[ChunkJob, ChunkOutcome]]
                  ) -> Tuple[AuditResult, Optional[ChunkJob]]:
    """Fold one machine's chunk outcomes, in log order, into its result.

    ``audited`` pairs each job with its outcome; each job's checkpoint is
    where its predecessor's chunk ends.  Returns ``(PASS result, None)``,
    or at the first failing chunk ``(that chunk's result, its job)``: the
    failing chunk is the conviction, and its job is what the evidence is
    built from.  ``audited`` is not consumed past it, so a front-end that
    produces the pairs lazily stops auditing there (and, the fold holding no
    job between turns, keeps one chunk alive at a time).  Work counters and
    modelled costs sum across chunks (a conviction has cost the chunks up to
    the fault).
    Instruction counters are *absolute* (each chunk's VM restores its counter
    from the boundary snapshot), so the last chunk's value is the whole-log
    count.  ``active_seconds`` sums per-chunk bucket counts, which can exceed
    the whole-log count by up to one bucket per boundary.
    """
    result = AuditResult(machine=machine, auditor=auditor,
                         verdict=Verdict.PASS, phase=AuditPhase.COMPLETE,
                         replay_report=ReplayReport(machine=machine))
    merged = result.replay_report
    for job, outcome in audited:
        result.cost.add(outcome.cost)
        if not outcome.ok:
            failed = outcome.as_result(auditor)
            failed.cost = result.cost
            return failed, job
        result.authenticators_checked += outcome.authenticators_checked
        report = outcome.replay_report
        merged.entries_replayed += report.entries_replayed
        merged.events_injected += report.events_injected
        merged.clock_reads_served += report.clock_reads_served
        merged.upstream_calls_served += report.upstream_calls_served
        merged.outputs_checked += report.outputs_checked
        merged.snapshots_checked += report.snapshots_checked
        merged.instructions_executed = report.instructions_executed
        merged.active_seconds += report.active_seconds
        del job    # not held while a lazy producer decodes the next chunk
    return result, None


# ---------------------------------------------------------------------------
# Boundary snapshots
# ---------------------------------------------------------------------------

def replay_start(target) -> Tuple[Optional[Dict[str, Any]], int]:
    """Where the replay of ``target``'s whole log starts: ``(state,
    transfer_bytes)`` of the GC boundary snapshot when an archive has
    discarded a prefix of the log, else ``(None, 0)`` — the reference image."""
    if getattr(target, "is_truncated", None) is not None \
            and target.is_truncated():
        return target.initial_state()
    return None, 0


def last_snapshot_entry(segment: LogSegment) -> Optional[LogEntry]:
    """The SNAPSHOT entry that seals ``segment`` (its last one), if any."""
    return next((entry for entry in reversed(segment.entries)
                 if entry.entry_type is EntryType.SNAPSHOT), None)


def fetch_verified_snapshot_entry(target, snapshot_entry: Optional[LogEntry]
                                  ) -> Tuple[Dict[str, Any], int]:
    """Download and authenticate the snapshot a SNAPSHOT entry commits to.

    ``snapshot_entry`` is the one sealing the segment that precedes a chunk
    (:func:`last_snapshot_entry`).  The entry's recorded hash-tree root must
    match the downloaded snapshot (Section 4.5, "Verifying the snapshot").
    Returns ``(state, transfer_bytes)``; raises :class:`MissingSnapshotError`
    when there is no such entry or the snapshot cannot be authenticated.
    """
    if snapshot_entry is None:
        raise MissingSnapshotError(
            "the segment preceding the chunk does not end with a snapshot")
    try:
        snapshot_id = int(snapshot_entry.content["snapshot_id"])
        expected_root = str(snapshot_entry.content["state_root"])
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise MissingSnapshotError(
            f"SNAPSHOT entry {snapshot_entry.sequence} names no snapshot: "
            f"{type(exc).__name__}: {exc}") from exc
    snapshot = target.snapshots.get(snapshot_id)
    if snapshot.state_root.hex() != expected_root:
        raise MissingSnapshotError(
            f"snapshot {snapshot_id} does not match the root recorded in the log")
    if not snapshot.verify_root():
        raise MissingSnapshotError(
            f"snapshot {snapshot_id} failed hash-tree verification")
    transfer_bytes = target.snapshots.transfer_cost_bytes(snapshot_id)
    return snapshot.state, transfer_bytes
