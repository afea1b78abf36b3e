"""An archived log as a stream of entries and of audit-sized chunks.

The paper's accountability guarantee is only deployable at fleet scale if
auditing a machine's log does not require holding that log in memory.  The
materializing path (``LogArchive.materialized_log``) inflates every archived
entry into one in-memory :class:`~repro.log.segments.LogSegment`, so its peak
memory grows with log *length*.  This module reads the archive's segment
files incrementally instead (:meth:`LogArchive.stream_segment
<repro.store.archive.LogArchive.stream_segment>`):

:func:`iter_stream_chunks` yields the retained entries a chunk at a time —
a run of archived segments that ends at an archived sealing snapshot, so the
next chunk has a verified replay start — resumable at any chunk boundary.

The audit engine (:class:`repro.audit.engine.AuditScheduler`) plans its chunk
jobs off :func:`iter_stream_chunks`, which is how an archived log is audited
in O(chunk) memory, pass or fail (``docs/streaming-audit.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import HashChainError, StoreError
from repro.log.hashchain import ChainCheckpoint
from repro.log.segments import LogSegment

__all__ = [
    "StreamChunk",
    "iter_stream_chunks",
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


@dataclass
class StreamChunk:
    """One audit-sized chunk of the stream (a run of archived segments)."""

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
    previous chunks can be dropped, so a consumer iterating
    this holds O(chunk) entries.  ``max_chunks=None`` yields the finest
    chunking (one chunk per snapshot-sealed segment run), otherwise adjacent
    runs are merged into at most ``max_chunks`` chunks.

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
            segment=LogSegment(
                machine=machine, start_hash=start_checkpoint.chain_hash,
                entries=[entry for record in chunk_records
                         for entry in archive.stream_segment(record)]),
            start_checkpoint=start_checkpoint,
            end_checkpoint=checkpoint, ends_log=index == len(counts) - 1)
