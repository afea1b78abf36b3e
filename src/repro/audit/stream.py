"""The streaming, bounded-memory audit pipeline.

The paper's accountability guarantee is only deployable at fleet scale if
auditing a machine's log does not require holding that log in memory.  The
materializing path (``LogArchive.materialized_log`` →
:meth:`Auditor.audit_segment <repro.audit.auditor.Auditor.audit_segment>`)
inflates every archived entry
into one giant in-memory :class:`~repro.log.segments.LogSegment` before any
check runs, so peak auditor memory grows with log *length*.  This module
replaces it with a pull-based pipeline whose peak memory is one *chunk* (a
run of snapshot-delimited archived segments) plus O(1) checkpoints:

1. **decode** — entries are inflated incrementally from the archive's
   compressed segment files (:meth:`LogArchive.stream_segment
   <repro.store.archive.LogArchive.stream_segment>`, built on the streaming
   idiom of :func:`repro.log.storage.iter_segment_entries`);
2. **chain verify** — each decoded segment extends a running
   :class:`~repro.log.hashchain.ChainCheckpoint` in one batch
   (:func:`~repro.log.hashchain.extend_checkpoint_batch`), so tamper
   evidence needs no look-back;
3. **commitment check** — authenticators are batch-verified in sliding
   windows (:func:`~repro.log.authenticator.batch_verify_authenticators`) as
   their chunk streams past;
4. **syntactic check** — per-entry checks run chunk by chunk; the stream
   cross-checks (SEND/RECV vs MAC-layer pairing) run in a bounded-memory
   incremental checker that evicts matched pairs;
5. **semantic check** — the replayer is fed chunk by chunk, each chunk
   starting from the snapshot verified at its boundary (Section 4.5,
   "Verifying the snapshot"), with still-in-flight RECV payloads carried
   across the boundary.

**Equivalence guarantee.**  A passing streamed audit produces an
:class:`~repro.audit.verdict.AuditResult` *structurally identical* — same
verdict, counters, replay report and modelled
:class:`~repro.audit.verdict.AuditCost` (raw bytes, snapshot bytes and
modelled seconds; nothing on this path runs a compressor) — to what the
serial materializing audit of the same archive produces.  Any detected fault
(or inability to stream, e.g. an unverifiable boundary snapshot) falls back
to the materializing serial audit so failure verdicts and evidence are
*canonical*: exactly the optimistic-fast-path/serial-confirm design of the
parallel engine (:mod:`repro.audit.engine`).  ``tests/test_stream_equivalence
.py`` enforces the guarantee differentially across the adversary matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.audit.evidence import Evidence
from repro.audit.semantic import SemanticChecker
from repro.audit.syntactic import SyntacticChecker
from repro.audit.verdict import AuditCost, AuditPhase, AuditResult, Verdict
from repro.avmm.replayer import ReplayReport
from repro.errors import (
    HashChainError,
    MissingSnapshotError,
    ReproError,
    StoreError,
)
from repro.log.entries import EntryType, LogEntry
from repro.log.hashchain import (
    ChainCheckpoint,
    extend_checkpoint,
    extend_checkpoint_batch,
)
from repro.log.segments import LogSegment
from repro.log.authenticator import batch_verify_authenticators
from repro.obs import Observability, ensure_obs

__all__ = [
    "ArchiveEntryStream",
    "StreamChunk",
    "StreamStats",
    "StreamAuditReport",
    "StreamingCrossChecker",
    "StreamingAuditPipeline",
    "fetch_verified_snapshot_entry",
    "iter_stream_chunks",
    "stream_audit",
]

#: authenticators batch-verified per screening window
DEFAULT_SIGNATURE_WINDOW = 256


# ---------------------------------------------------------------------------
# Stage 1+2: verified entry / chunk streams over an archive
# ---------------------------------------------------------------------------

def _records_from(archive, machine: str, start: Optional[ChainCheckpoint]):
    """Segment records after ``start``, with the checkpoint to resume from.

    ``start`` must sit on a segment boundary (the stream can only prove
    continuity from a checkpoint it can anchor to a record edge); ``None``
    starts at the archive's retention checkpoint (or genesis).
    """
    records = archive.segment_records(machine)
    checkpoint = archive.start_checkpoint(machine)
    if start is None or start == checkpoint:
        return records, checkpoint
    remaining = [record for record in records
                 if record.first_sequence > start.sequence]
    if not remaining:
        # Either the whole log was already consumed (resume at the head is
        # a legitimate empty suffix) or the checkpoint points mid-segment /
        # past the end — silently yielding nothing would let unaudited
        # entries pass as "fully streamed".
        head = records[-1].end_checkpoint() if records \
            else archive.start_checkpoint(machine)
        if start.sequence != head.sequence:
            raise StoreError(
                f"cannot resume the stream of {machine!r} at sequence "
                f"{start.sequence}: not a segment boundary")
        if start.chain_hash != head.chain_hash:
            raise HashChainError(
                f"resume checkpoint for {machine!r} at sequence "
                f"{start.sequence} does not match the archived chain")
        return [], start
    if remaining[0].first_sequence != start.sequence + 1:
        raise StoreError(
            f"cannot resume the stream of {machine!r} at sequence "
            f"{start.sequence}: not a segment boundary")
    if remaining[0].start_hash != start.chain_hash:
        raise HashChainError(
            f"resume checkpoint for {machine!r} at sequence {start.sequence} "
            f"does not match the archived chain")
    return remaining, start


class ArchiveEntryStream:
    """A resumable, chain-verified, pull-based entry stream.

    Iterating yields every retained entry of ``machine`` in order, decoding
    the archive's segment files incrementally and proving after each entry
    that it extends :attr:`checkpoint` — which therefore always holds the
    chain state after the last yielded entry.  Interrupt the iteration at any
    segment boundary, persist the checkpoint, and construct a new stream with
    ``start=checkpoint``: the entries and checkpoints that follow are
    identical to an uninterrupted pass (property-tested in
    ``tests/test_stream_properties.py``).
    """

    def __init__(self, archive, machine: str,
                 start: Optional[ChainCheckpoint] = None) -> None:
        self._archive = archive
        self.machine = machine
        self._records, self.checkpoint = _records_from(archive, machine, start)
        #: records fully streamed so far (resume anchor granularity)
        self.segments_done = 0

    def __iter__(self) -> Iterator[LogEntry]:
        for record in self._records:
            for entry in self._archive.stream_segment(record):
                self.checkpoint = extend_checkpoint(self.checkpoint, entry)
                yield entry
            self.segments_done += 1


@dataclass
class StreamChunk:
    """One audit-sized chunk of the stream (a run of archived segments)."""

    index: int
    segment: LogSegment
    start_checkpoint: ChainCheckpoint
    end_checkpoint: ChainCheckpoint
    #: snapshot id sealing the chunk's last segment (None for the tail)
    sealed_by_snapshot: Optional[int] = None


def _chunk_record_counts(archive, machine: str, records,
                         max_chunks: Optional[int]) -> List[int]:
    """Group segment records into chunks that end at replayable boundaries.

    A chunk may only end after a segment sealed by a snapshot that is
    actually archived — otherwise the next chunk would have no verified
    replay start.  Unsealed segments (the shipped log tail) are absorbed
    into the following group, or form the final one.  With ``max_chunks``,
    adjacent groups are merged as evenly as possible.
    """
    snapshot_ids = set(archive.snapshot_store(machine).snapshot_ids())
    groups: List[int] = []
    current = 0
    for record in records:
        current += 1
        if record.sealed_by_snapshot is not None \
                and record.sealed_by_snapshot in snapshot_ids:
            groups.append(current)
            current = 0
    if current:
        groups.append(current)
    if max_chunks is not None and len(groups) > max_chunks:
        base, extra = divmod(len(groups), max_chunks)
        merged: List[int] = []
        cursor = 0
        for position in range(max_chunks):
            size = base + (1 if position < extra else 0)
            merged.append(sum(groups[cursor:cursor + size]))
            cursor += size
        groups = merged
    return groups


def iter_stream_chunks(target, max_chunks: Optional[int] = None,
                       start: Optional[ChainCheckpoint] = None,
                       verify_chain: bool = True) -> Iterator[StreamChunk]:
    """Stream an archive-backed target's log as replayable chunks.

    Each yielded :class:`StreamChunk` holds one chunk's entries (already
    chain-verified against the previous chunk's end checkpoint); previous
    chunks can be dropped by the consumer, so a pipeline iterating this holds
    O(chunk) entries.  ``max_chunks=None`` yields the finest chunking (one
    chunk per snapshot-sealed segment run); the parallel engine passes its
    chunk budget instead.

    ``verify_chain=False`` skips the per-entry chain verification and takes
    the checkpoints from the manifest records (whose tiling was proven at
    archive recovery, and whose first/last sequence and end hash
    :meth:`~repro.store.archive.LogArchive.stream_segment` still checks
    against the decoded entries).  The engine uses this when planning chunk
    jobs — its workers re-verify every chunk's chain from the checkpoint
    anyway, so verifying during planning would double the hash work and
    serialize half of it.
    """
    archive = target.archive
    machine = target.identity
    records, checkpoint = _records_from(archive, machine, start)
    counts = _chunk_record_counts(archive, machine, records, max_chunks)
    cursor = 0
    for index, count in enumerate(counts):
        chunk_records = records[cursor:cursor + count]
        cursor += count
        start_checkpoint = checkpoint
        entries: List[LogEntry] = []
        for record in chunk_records:
            record_entries = list(archive.stream_segment(record))
            if verify_chain:
                checkpoint = extend_checkpoint_batch(checkpoint,
                                                     record_entries)
            else:
                checkpoint = record.end_checkpoint()
            entries.extend(record_entries)
        yield StreamChunk(
            index=index,
            segment=LogSegment(machine=machine, entries=entries,
                               start_hash=start_checkpoint.chain_hash),
            start_checkpoint=start_checkpoint,
            end_checkpoint=checkpoint,
            sealed_by_snapshot=chunk_records[-1].sealed_by_snapshot,
        )


def fetch_verified_snapshot_entry(target, snapshot_entry: LogEntry
                                  ) -> Tuple[Dict[str, Any], int]:
    """Download and authenticate the snapshot a SNAPSHOT entry commits to.

    The entry's recorded hash-tree root must match the downloaded snapshot
    (Section 4.5, "Verifying the snapshot").  Returns
    ``(state, transfer_bytes)``; raises :class:`MissingSnapshotError` when
    the snapshot cannot be authenticated.
    """
    snapshot_id = int(snapshot_entry.content["snapshot_id"])
    expected_root = str(snapshot_entry.content["state_root"])
    snapshot = target.snapshots.get(snapshot_id)
    if snapshot.state_root.hex() != expected_root:
        raise MissingSnapshotError(
            f"snapshot {snapshot_id} does not match the root recorded in the log")
    if not snapshot.verify_root():
        raise MissingSnapshotError(
            f"snapshot {snapshot_id} failed hash-tree verification")
    transfer_bytes = target.snapshots.transfer_cost_bytes(snapshot_id)
    return snapshot.state, transfer_bytes


# ---------------------------------------------------------------------------
# Stage 4: bounded-memory stream cross-checks
# ---------------------------------------------------------------------------

class StreamingCrossChecker:
    """Incremental version of the syntactic stream cross-checks.

    :meth:`SyntacticChecker._cross_reference
    <repro.audit.syntactic.SyntacticChecker>` pairs the SEND/RECV stream
    with the MAC-layer stream over the *whole* segment, which needs the whole
    segment.  This checker feeds on one entry at a time and evicts a pair as
    soon as it matches, so on an honest log its state is the in-flight
    message window, not the log.  It detects a **superset** of the problems
    the whole-segment checker reports (out-of-order pairings an honest
    recorder never produces are flagged too); the pipeline treats any
    problem as "fall back to the materializing audit", whose whole-segment
    checker then decides canonically — so being stricter can never flip a
    verdict, only cost the memory win on an already-suspicious log.
    """

    def __init__(self) -> None:
        self.problems: List[str] = []
        self._sends: Dict[str, LogEntry] = {}
        self._recvs: Dict[str, LogEntry] = {}
        self._unmatched_mac_in: Dict[str, LogEntry] = {}
        self._unmatched_mac_out: Dict[str, LogEntry] = {}
        #: 8-byte digests of every SEND message id seen.  Eviction forgets a
        #: matched pair, so without this a *duplicate-id* forged SEND after
        #: the pair matched would escape the check the whole-segment checker
        #: performs (it compares the MAC-out against the LAST send per id).
        #: Any repeated SEND id is flagged instead — an honest recorder
        #: never reuses one, and a flag merely routes through the canonical
        #: fallback.  Cost: O(#sends) times ~50 B, two orders of magnitude
        #: below the entries themselves; all other state is O(in-flight).
        self._seen_send_ids: Set[int] = set()

    @property
    def ok(self) -> bool:
        return not self.problems

    @staticmethod
    def _id_digest(message_id: str) -> int:
        from repro.crypto import hashing
        return int.from_bytes(
            hashing.hash_bytes(message_id.encode("utf-8"))[:8], "big")

    def feed(self, entry: LogEntry) -> None:
        content = entry.content
        if entry.entry_type is EntryType.SEND:
            message_id = str(content.get("message_id"))
            digest = self._id_digest(message_id)
            if digest in self._seen_send_ids:
                self.problems.append(
                    f"message id {message_id} appears in more than one SEND "
                    f"entry (sequence {entry.sequence})")
            self._seen_send_ids.add(digest)
            waiting = self._unmatched_mac_out.pop(message_id, None)
            if waiting is not None:
                self._match_out(message_id, waiting, entry)
            else:
                self._sends[message_id] = entry
        elif entry.entry_type is EntryType.RECV:
            message_id = str(content.get("message_id"))
            if self._unmatched_mac_in.pop(message_id, None) is None:
                self._recvs[message_id] = entry
        elif entry.entry_type is EntryType.MACLAYER:
            message_id = str(content.get("message_id"))
            if content.get("direction") == "in":
                if self._recvs.pop(message_id, None) is None:
                    self._unmatched_mac_in[message_id] = entry
            else:
                send = self._sends.pop(message_id, None)
                if send is not None:
                    self._match_out(message_id, entry, send)
                else:
                    self._unmatched_mac_out[message_id] = entry

    def _match_out(self, message_id: str, mac_entry: LogEntry,
                   send_entry: LogEntry) -> None:
        if mac_entry.content.get("payload_hash") \
                != send_entry.content.get("payload_hash"):
            self.problems.append(
                f"message {message_id}: SEND entry and MAC-layer entry "
                f"disagree about the payload")

    def finish(self, last_sequence: int) -> None:
        """Flush end-of-stream checks (mirrors the whole-segment checker)."""
        for message_id, entry in self._unmatched_mac_in.items():
            self.problems.append(
                f"packet {message_id} entered the AVM (sequence "
                f"{entry.sequence}) but has no RECV entry")
        for message_id, entry in self._unmatched_mac_out.items():
            self.problems.append(
                f"packet {message_id} left the AVM (sequence "
                f"{entry.sequence}) but has no SEND entry")
        for message_id, entry in self._recvs.items():
            if entry.sequence < last_sequence - 5:
                self.problems.append(
                    f"message {message_id} was received (sequence "
                    f"{entry.sequence}) but never entered the AVM")


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

@dataclass
class StreamStats:
    """Streaming-specific bookkeeping (not part of the canonical result)."""

    chunks: int = 0
    segments: int = 0
    entries: int = 0
    #: largest number of entries resident at once (the memory bound)
    peak_chunk_entries: int = 0
    signature_windows: int = 0
    signature_screen_operations: int = 0
    #: why the pipeline handed over to the materializing audit (None = it
    #: streamed to the end)
    fallback_reason: Optional[str] = None


@dataclass
class StreamAuditReport:
    """A streamed audit's canonical result plus the pipeline's bookkeeping."""

    result: AuditResult
    stats: StreamStats = field(default_factory=StreamStats)

    @property
    def used_fallback(self) -> bool:
        return self.stats.fallback_reason is not None

    @property
    def ok(self) -> bool:
        return self.result.ok


class StreamingAuditPipeline:
    """Audits an archive-backed target in O(chunk) memory.

    ``confirm_failures_serially`` (default) re-runs the materializing serial
    audit whenever the stream detects anything — fault or operational
    inability to continue — so verdicts and evidence are canonical.  With it
    off, failures are synthesised from the streamed state: the verdict is
    the same, but the evidence covers only the failing chunk (bounded
    memory even under accusation).
    """

    def __init__(self, auditor, target,
                 max_chunks: Optional[int] = None,
                 signature_window: int = DEFAULT_SIGNATURE_WINDOW,
                 confirm_failures_serially: bool = True,
                 obs: Optional[Observability] = None) -> None:
        if signature_window < 1:
            raise ValueError(
                f"signature window must be >= 1, got {signature_window}")
        self.auditor = auditor
        self.target = target
        self.max_chunks = max_chunks
        self.signature_window = signature_window
        self.confirm_failures_serially = confirm_failures_serially
        #: telemetry sink — defaults to the auditor's bundle, so an
        #: observed auditor observes its streamed audits too
        self.obs = ensure_obs(obs if obs is not None
                              else getattr(auditor, "obs", None))

    # -- public API ----------------------------------------------------------

    def run(self) -> StreamAuditReport:
        machine = self.target.identity
        if not self.target.archive.segment_records(machine):
            # Mirror the materializing path byte for byte: an empty archive
            # is an operational error, not a verdict.
            raise StoreError(f"no archived segments for {machine!r}")
        stats = StreamStats()
        obs = self.obs
        obs.progress.machine_started(machine)
        with obs.tracer.timed("audit.stream", track=machine,
                              machine=machine) as timer:
            try:
                result = self._stream(stats)
            except _StreamFallback as handover:
                stats.fallback_reason = handover.reason
                result = self._fallback(handover)
        # The pipeline's wall clock covers the whole streamed audit,
        # including any serial-confirm fallback (whose own audit_segment
        # timing it supersedes).
        result.wall_seconds = timer.seconds
        obs.progress.machine_done(machine, result.verdict.value, timer.seconds)
        return StreamAuditReport(result=result, stats=stats)

    # -- the streaming fast path ---------------------------------------------

    def _stream(self, stats: StreamStats) -> AuditResult:
        auditor = self.auditor
        target = self.target
        machine = target.identity

        truncated = target.is_truncated()
        initial_state, snapshot_bytes = (target.initial_state() if truncated
                                         else (None, 0))
        authenticators = [auth for auth in auditor.authenticators_for(machine)
                          if auth.machine == machine]
        syntactic = SyntacticChecker(auditor.keystore,
                                     check_cross_references=False)
        semantic = SemanticChecker(auditor.reference_image, auditor.cost_params)
        cross = StreamingCrossChecker()
        start = target.start_checkpoint()
        raw_bytes = 0

        # Telemetry (observers only — nothing below reads these back).
        obs = self.obs
        observed = obs.enabled
        verify_hist = obs.metrics.histogram("audit.chunk.verify_seconds")
        signature_hist = obs.metrics.histogram("audit.chunk.signature_seconds")
        replay_hist = obs.metrics.histogram("audit.chunk.replay_seconds")
        chunks_counter = obs.metrics.counter("audit.chunks_total")
        entries_counter = obs.metrics.counter("audit.entries_streamed_total")

        merged = ReplayReport(machine=machine)
        active_buckets: Set[int] = set()
        authenticators_checked = 0
        #: RECV payloads not yet consumed by a MAC-layer injection — carried
        #: across chunk boundaries so chunked replay resolves the same
        #: references the whole-log replay would
        carried_payloads: Dict[str, bytes] = {}
        previous_snapshot_entry: Optional[LogEntry] = None
        last_sequence = start.sequence

        chunks = iter_stream_chunks(target, max_chunks=self.max_chunks)
        while True:
            decode_started = time.perf_counter() if observed else 0.0
            try:
                chunk = next(chunks)
            except StopIteration:
                break
            except HashChainError as exc:
                # Same failure class the serial tamper check reports; the
                # fallback produces the canonical evidence for it.
                raise _StreamFallback(
                    AuditPhase.AUTHENTICATOR_CHECK, str(exc), None, None)
            if observed:
                # Decode + incremental chain verification happen inside the
                # chunk iterator's next().
                verify_hist.observe(time.perf_counter() - decode_started)

            segment = chunk.segment
            stats.chunks += 1
            stats.entries += len(segment.entries)
            stats.peak_chunk_entries = max(stats.peak_chunk_entries,
                                           len(segment.entries))
            chunks_counter.inc()
            entries_counter.inc(len(segment.entries))
            chunk_started = time.perf_counter() if observed else 0.0
            last_sequence = chunk.end_checkpoint.sequence
            raw_bytes += segment.size_bytes()
            for entry in segment.entries:
                active_buckets.add(int(entry.timestamp))
                cross.feed(entry)

            # Commitment check: windowed batch signature verification plus
            # the chain-hash comparison against the streamed entries.
            signature_started = time.perf_counter() if observed else 0.0
            authenticators_checked += self._check_authenticators(
                segment, authenticators, stats)
            if observed:
                signature_hist.observe(
                    time.perf_counter() - signature_started)

            # Per-entry syntactic checks (stream cross-checks run above).
            report = syntactic.check(segment)
            if not report.ok:
                raise _StreamFallback(AuditPhase.SYNTACTIC_CHECK,
                                      "; ".join(report.problems[:3]),
                                      chunk, None)

            # Semantic check: replay this chunk from its verified boundary.
            if chunk.index == 0:
                chunk_state = initial_state
            else:
                if previous_snapshot_entry is None:
                    # Manifest marked the boundary sealed but no SNAPSHOT
                    # entry streamed past: cannot anchor this chunk — the
                    # materializing audit (which replays from the start)
                    # decides canonically.
                    raise _StreamFallback(
                        None, "the segment preceding the chunk does not "
                              "end with a snapshot", chunk, None)
                try:
                    chunk_state, _ = fetch_verified_snapshot_entry(
                        target, previous_snapshot_entry)
                except ReproError as exc:
                    raise _StreamFallback(None, str(exc), chunk, None)
            replay_started = time.perf_counter() if observed else 0.0
            replay = semantic.check(segment, initial_state=chunk_state,
                                    carried_payloads=dict(carried_payloads))
            if observed:
                replay_hist.observe(time.perf_counter() - replay_started)
            self._merge_replay(merged, replay)
            if replay.diverged:
                raise _StreamFallback(AuditPhase.SEMANTIC_CHECK,
                                      replay.divergence.describe(),
                                      chunk, chunk_state)

            for entry in segment.entries:
                if entry.entry_type is EntryType.RECV:
                    payload = entry.content.get("payload")
                    if payload is not None:
                        carried_payloads[str(entry.content["message_id"])] = \
                            bytes.fromhex(payload)
                elif entry.entry_type is EntryType.MACLAYER \
                        and entry.content.get("direction") == "in":
                    carried_payloads.pop(str(entry.content["message_id"]), None)
            snapshot_entries = segment.entries_of_type(EntryType.SNAPSHOT)
            previous_snapshot_entry = (snapshot_entries[-1]
                                       if snapshot_entries else None)
            if observed:
                obs.tracer.event(
                    "audit.chunk", domain="wall", track=machine,
                    timestamp=chunk_started,
                    duration=time.perf_counter() - chunk_started,
                    chunk=chunk.index, entries=len(segment.entries),
                    checkpoint_seq=chunk.end_checkpoint.sequence)
            obs.progress.chunk_done(machine, entries=len(segment.entries),
                                    checkpoint_seq=chunk.end_checkpoint.sequence)

        cross.finish(last_sequence)
        if not cross.ok:
            raise _StreamFallback(AuditPhase.SYNTACTIC_CHECK,
                                  "; ".join(cross.problems[:3]), None, None)

        # Assemble the serial-identical PASS result.
        cost = AuditCost.for_download(raw_bytes, snapshot_bytes,
                                      auditor.cost_params)
        merged.entries_replayed = stats.entries
        merged.active_seconds = float(len(active_buckets))
        cost.semantic_seconds = semantic.estimate_timing(merged).replay_seconds
        return AuditResult(machine=machine, auditor=auditor.identity,
                           verdict=Verdict.PASS, phase=AuditPhase.COMPLETE,
                           authenticators_checked=authenticators_checked,
                           replay_report=merged, cost=cost)

    def _check_authenticators(self, segment: LogSegment, authenticators,
                              stats: StreamStats) -> int:
        """Windowed batch verification of the chunk's authenticators."""
        if not segment.entries:
            return 0
        first, last = segment.first_sequence, segment.last_sequence
        relevant = [auth for auth in authenticators
                    if first <= auth.sequence <= last]
        by_sequence = {entry.sequence: entry for entry in segment.entries}
        checked = 0
        for cursor in range(0, len(relevant), self.signature_window):
            window = relevant[cursor:cursor + self.signature_window]
            valid, invalid, batch_stats = batch_verify_authenticators(
                window, self.auditor.keystore)
            stats.signature_windows += 1
            stats.signature_screen_operations += batch_stats.screen_operations
            if invalid:
                bad = window[invalid[0]]
                raise _StreamFallback(
                    AuditPhase.AUTHENTICATOR_CHECK,
                    f"authenticator for sequence {bad.sequence} has an "
                    f"invalid signature", None, None)
            for auth in valid:
                entry = by_sequence.get(auth.sequence)
                if entry is None:
                    continue
                if entry.chain_hash != auth.chain_hash:
                    raise _StreamFallback(
                        AuditPhase.AUTHENTICATOR_CHECK,
                        f"log entry {auth.sequence} does not match the "
                        f"authenticator issued by {segment.machine!r} "
                        f"(log was tampered with or forked)", None, None)
                checked += 1
        return checked

    @staticmethod
    def _merge_replay(merged: ReplayReport, chunk_report: ReplayReport) -> None:
        merged.events_injected += chunk_report.events_injected
        merged.clock_reads_served += chunk_report.clock_reads_served
        merged.outputs_checked += chunk_report.outputs_checked
        merged.snapshots_checked += chunk_report.snapshots_checked
        # Execution counters are absolute (restored from each boundary
        # snapshot), so the last chunk's count IS the whole-log count.
        merged.instructions_executed = chunk_report.instructions_executed

    # -- the materializing slow path -----------------------------------------

    def _fallback(self, handover: "_StreamFallback") -> AuditResult:
        """Produce the canonical result once streaming detected something."""
        auditor = self.auditor
        target = self.target
        machine = target.identity
        if self.confirm_failures_serially:
            if target.is_truncated():
                state, snapshot_bytes = target.initial_state()
            else:
                state, snapshot_bytes = None, 0
            return auditor.audit_segment(machine, target.get_log_segment(),
                                         initial_state=state,
                                         snapshot_bytes=snapshot_bytes)
        phase = handover.phase or AuditPhase.SEMANTIC_CHECK
        # Bounded evidence: the failing chunk (or, for a chain break
        # detected while decoding, no segment at all — the authenticators
        # alone carry the accusation, as for an unanswered challenge).
        evidence = Evidence(
            machine=machine, accuser=auditor.identity, reason=handover.reason,
            segment=handover.chunk.segment if handover.chunk else None,
            authenticators=auditor.authenticators_for(machine),
            reference_image_hash=auditor.reference_image.image_hash(),
            initial_state=handover.chunk_state)
        return AuditResult(machine=machine, auditor=auditor.identity,
                           verdict=Verdict.FAIL, phase=phase,
                           reason=handover.reason, evidence=evidence)


class _StreamFallback(Exception):
    """Internal: the stream detected something; hand over to the slow path."""

    def __init__(self, phase: Optional[AuditPhase], reason: str,
                 chunk: Optional[StreamChunk],
                 chunk_state: Optional[Dict[str, Any]]) -> None:
        super().__init__(reason)
        self.phase = phase
        self.reason = reason
        self.chunk = chunk
        self.chunk_state = chunk_state


def stream_audit(auditor, target,
                 max_chunks: Optional[int] = None,
                 signature_window: int = DEFAULT_SIGNATURE_WINDOW,
                 confirm_failures_serially: bool = True) -> StreamAuditReport:
    """Audit an archive-backed target on the streaming pipeline."""
    return StreamingAuditPipeline(
        auditor, target, max_chunks=max_chunks,
        signature_window=signature_window,
        confirm_failures_serially=confirm_failures_serially).run()
