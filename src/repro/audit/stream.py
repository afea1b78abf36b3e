"""The streaming, bounded-memory audit pipeline.

The paper's accountability guarantee is only deployable at fleet scale if
auditing a machine's log does not require holding that log in memory — and
that has to hold for the machine that gets convicted as much as for the
honest one.  The materializing path (``LogArchive.materialized_log`` →
:meth:`Auditor.audit_segment <repro.audit.auditor.Auditor.audit_segment>`)
inflates every archived entry into one giant in-memory
:class:`~repro.log.segments.LogSegment` before any check runs, so peak
auditor memory grows with log *length*.  This module is the front-end whose
peak memory is one *chunk* (a run of snapshot-delimited archived segments)
plus O(1) checkpoints:

1. **decode** — :func:`iter_stream_chunks` inflates the archive's segment
   files one chunk at a time (:meth:`LogArchive.stream_segment
   <repro.store.archive.LogArchive.stream_segment>`);
2. **audit** — each chunk goes through the audit kernel
   (:func:`repro.audit.kernel.run_chunk`): chain from the chunk's checkpoint,
   batched authenticator check, syntactic check (the message stream paired
   with the MAC-layer stream, given the RECVs in flight at its start),
   replay from the snapshot verified at its boundary (Section 4.5,
   "Verifying the snapshot");
3. **fold** — the outcomes are folded as they come
   (:func:`repro.audit.kernel.fold_outcomes`); the first chunk that fails
   is the conviction and its evidence
   (:meth:`Auditor.evidence_for <repro.audit.auditor.Auditor.evidence_for>`),
   and nothing after it is decoded.

**Equivalence guarantee.**  A passing streamed audit produces an
:class:`~repro.audit.verdict.AuditResult` *structurally identical* — same
verdict, counters, replay report and modelled
:class:`~repro.audit.verdict.AuditCost` (raw bytes, snapshot bytes and
modelled seconds; nothing on this path runs a compressor) — to what the
serial materializing audit of the same archive produces.  A failing one
reaches the same verdict, phase and first problem, with the failing chunk
instead of the whole log as evidence.  Only a log that cannot be chunked
(an unverifiable boundary snapshot) is handed over to that serial audit.
``tests/test_stream_equivalence.py`` enforces the guarantee differentially
across the adversary matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Tuple

from repro.audit.kernel import (
    BoundaryContext,
    ChunkJob,
    ChunkOutcome,
    chunk_job,
    fetch_verified_snapshot_entry,
    fold_outcomes,
    last_snapshot_entry,
    replay_start,
    run_chunk,
)
from repro.audit.semantic import modelled_replay_seconds
from repro.audit.verdict import AuditCost, AuditResult
from repro.errors import HashChainError, ReproError, StoreError
from repro.log.entries import LogEntry
from repro.log.hashchain import ChainCheckpoint, extend_checkpoint
from repro.log.segments import LogSegment
from repro.obs import ensure_obs

__all__ = [
    "ArchiveEntryStream",
    "StreamChunk",
    "StreamStats",
    "StreamAuditReport",
    "StreamingAuditPipeline",
    "fetch_verified_snapshot_entry",
    "iter_stream_chunks",
    "stream_audit",
]


# ---------------------------------------------------------------------------
# Entry and chunk streams over an archive
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

    def __iter__(self) -> Iterator[LogEntry]:
        for record in self._records:
            for entry in self._archive.stream_segment(record):
                self.checkpoint = extend_checkpoint(self.checkpoint, entry)
                yield entry


@dataclass
class StreamChunk:
    """One audit-sized chunk of the stream (a run of archived segments)."""

    index: int
    segment: LogSegment
    start_checkpoint: ChainCheckpoint
    end_checkpoint: ChainCheckpoint
    #: nothing is archived after this chunk
    ends_log: bool = True


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
                       start: Optional[ChainCheckpoint] = None
                       ) -> Iterator[StreamChunk]:
    """Stream an archive-backed target's log as replayable chunks.

    Each yielded :class:`StreamChunk` holds one chunk's decoded entries;
    previous chunks can be dropped by the consumer, so a pipeline iterating
    this holds O(chunk) entries.  ``max_chunks=None`` yields the finest
    chunking (one chunk per snapshot-sealed segment run); the parallel engine
    passes its chunk budget instead.

    The checkpoints come from the manifest records (whose tiling was proven
    at archive recovery, and whose first/last sequence and end hash
    :meth:`~repro.store.archive.LogArchive.stream_segment` checks against the
    decoded entries).  Nothing here steps the hash chain: the audit kernel
    proves that each chunk extends its start checkpoint, and the fold that
    each chunk starts where its predecessor ended — once per entry, whoever
    consumes the chunks.
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
        checkpoint = chunk_records[-1].end_checkpoint()
        yield StreamChunk(
            index=index,
            segment=LogSegment(
                machine=machine, start_hash=start_checkpoint.chain_hash,
                entries=[entry for record in chunk_records
                         for entry in archive.stream_segment(record)]),
            start_checkpoint=start_checkpoint,
            end_checkpoint=checkpoint, ends_log=index == len(counts) - 1)


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

@dataclass
class StreamStats:
    """Streaming-specific bookkeeping (not part of the canonical result)."""

    chunks: int = 0
    entries: int = 0
    #: largest number of entries resident at once (the memory bound)
    peak_chunk_entries: int = 0
    #: why the log could not be chunked and went to the materializing audit
    #: instead (None = it streamed, to the end or to the chunk that failed)
    unchunkable_reason: Optional[str] = None


@dataclass
class StreamAuditReport:
    """A streamed audit's result plus the pipeline's bookkeeping."""

    result: AuditResult
    stats: StreamStats = field(default_factory=StreamStats)


class _Unchunkable(Exception):
    """Internal: a chunk boundary has no verifiable snapshot to replay from."""


class StreamingAuditPipeline:
    """Audits an archive-backed target in O(chunk) memory, pass or fail."""

    def __init__(self, auditor, target,
                 max_chunks: Optional[int] = None) -> None:
        self.auditor = auditor
        self.target = target
        self.max_chunks = max_chunks
        #: telemetry sink: the auditor's bundle, so an observed auditor
        #: observes its streamed audits too
        self.obs = ensure_obs(getattr(auditor, "obs", None))

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
            except _Unchunkable as handover:
                # Not a detection: without a verified state at the boundary
                # the log is one chunk, which is the serial front-end.
                stats.unchunkable_reason = str(handover)
                result = self.auditor.audit_whole_log(self.target)
        result.wall_seconds = timer.seconds
        obs.progress.machine_done(machine, result.verdict.value, timer.seconds)
        return StreamAuditReport(result=result, stats=stats)

    # -- the stream ----------------------------------------------------------

    def _stream(self, stats: StreamStats) -> AuditResult:
        auditor = self.auditor
        target = self.target
        start = replay_start(target)
        active_buckets: Set[int] = set()
        chunks = iter_stream_chunks(target, max_chunks=self.max_chunks)

        result, failed = fold_outcomes(
            target.identity, auditor.identity,
            self._audited_chunks(chunks, stats, active_buckets, start))
        if failed is not None:
            result.evidence = auditor.evidence_for(
                failed, result, (chunk.segment for chunk in chunks))
            return result

        # The serial-identical PASS result: one download of the whole log
        # from its replay start, activity counted over the whole log rather
        # than chunk by chunk, no signature figures.
        merged = result.replay_report
        merged.active_seconds = float(len(active_buckets))
        result.cost = AuditCost.for_download(
            result.cost.log_bytes_downloaded, start[1], auditor.cost_params)
        result.cost.semantic_seconds = modelled_replay_seconds(
            merged.active_seconds, auditor.cost_params)
        return result

    def _audited_chunks(self, chunks: Iterator[StreamChunk],
                        stats: StreamStats, active_buckets: Set[int], start
                        ) -> Iterator[Tuple[ChunkJob, ChunkOutcome]]:
        """Run ``chunks`` through the kernel as they are decoded.

        Every entry also feeds ``active_buckets``, the one thing a passing
        audit needs over the whole log.  Yields each chunk's job with its
        outcome; only one chunk is alive at a time, the consumer folding
        each pair before the next is decoded.
        """
        auditor = self.auditor
        target = self.target
        machine = target.identity
        authenticators = auditor.authenticators_for(machine)

        obs = self.obs
        decode_hist = obs.metrics.histogram("audit.chunk.decode_seconds")
        audit_hist = obs.metrics.histogram("audit.chunk.audit_seconds")
        chunks_counter = obs.metrics.counter("audit.chunks_total")
        entries_counter = obs.metrics.counter("audit.entries_streamed_total")

        state, snapshot_bytes = start    # where the first chunk replays from
        context = BoundaryContext()
        boundary: Optional[LogEntry] = None
        decode_started = time.perf_counter()
        for chunk in chunks:
            chunk_started = time.perf_counter()
            decode_hist.observe(chunk_started - decode_started)
            segment = chunk.segment
            stats.chunks += 1
            stats.entries += len(segment.entries)
            stats.peak_chunk_entries = max(stats.peak_chunk_entries,
                                           len(segment.entries))
            chunks_counter.inc()
            entries_counter.inc(len(segment.entries))
            active_buckets.update(int(entry.timestamp)
                                  for entry in segment.entries)

            if chunk.index:
                try:
                    state, snapshot_bytes = fetch_verified_snapshot_entry(
                        target, boundary)
                except ReproError as exc:
                    raise _Unchunkable(str(exc))
            context.ends_log = chunk.ends_log
            job = chunk_job(segment, authenticators, auditor.keystore,
                            auditor.reference_image, chunk_index=chunk.index,
                            checkpoint=chunk.start_checkpoint,
                            initial_state=state, snapshot_bytes=snapshot_bytes,
                            cost_params=auditor.cost_params, context=context)
            outcome = run_chunk(job)
            audit_hist.observe(time.perf_counter() - chunk_started)
            yield job, outcome

            context = context.after(segment)
            boundary = last_snapshot_entry(segment)
            obs.tracer.event(
                "audit.chunk", domain="wall", track=machine,
                timestamp=chunk_started,
                duration=time.perf_counter() - chunk_started,
                chunk=chunk.index, entries=len(segment.entries),
                checkpoint_seq=chunk.end_checkpoint.sequence)
            obs.progress.chunk_done(machine, entries=len(segment.entries),
                                    checkpoint_seq=chunk.end_checkpoint.sequence)
            decode_started = time.perf_counter()


def stream_audit(auditor, target,
                 max_chunks: Optional[int] = None) -> StreamAuditReport:
    """Audit an archive-backed target on the streaming pipeline."""
    return StreamingAuditPipeline(auditor, target, max_chunks=max_chunks).run()
