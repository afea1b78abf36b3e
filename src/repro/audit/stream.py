"""A log as a stream of audit-sized chunks, whatever holds it.

The paper's accountability guarantee is only deployable at fleet scale if
auditing a machine's log does not require holding that log in memory.  A
target — a live machine or its archive (:mod:`repro.service.target`) —
lists its log's snapshot-delimited segments as records and reads a run of
them on demand, so a chunk is read when it is planned and dropped when it
is folded.

:func:`iter_stream_chunks` yields a run of records a chunk at a time, each
chunk a run of segments that ends at a snapshot the target serves, so the
next chunk has a verified replay start.  It is how the audit engine
(:class:`repro.audit.engine.AuditScheduler`) plans every audit, the whole
log or a range of it: an archived log in O(chunk) memory, pass or fail
(``docs/streaming-audit.md``); a live log, held in memory anyway, one
slice per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Container, Iterator, List, Optional, Sequence

from repro.log.hashchain import ChainCheckpoint
from repro.log.segments import LogSegment

__all__ = [
    "StreamChunk",
    "chunk_runs",
    "iter_stream_chunks",
]


@dataclass
class StreamChunk:
    """One audit-sized chunk of the stream (a run of segments)."""

    segment: LogSegment
    start_checkpoint: ChainCheckpoint
    end_checkpoint: ChainCheckpoint
    #: nothing is logged after this chunk
    ends_log: bool = True


def chunk_runs(records: Sequence[Any], snapshots: Container,
               max_chunks: Optional[int]) -> List[List[Any]]:
    """Group segment records into chunks that end at replayable boundaries.

    A chunk may only end after a segment sealed by a snapshot in
    ``snapshots`` — otherwise the next chunk would have no verified replay
    start.  Unsealed segments (the log's tail, or one whose snapshot the
    target does not serve) are absorbed into the following run, or form the
    final one.  With ``max_chunks``, adjacent runs are merged as evenly as
    possible, the first ones a run longer.
    """
    runs: List[List[Any]] = []
    current: List[Any] = []
    for record in records:
        current.append(record)
        if record.sealed_by_snapshot in snapshots:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    if max_chunks is not None and len(runs) > max_chunks:
        base, extra = divmod(len(runs), max_chunks)
        merged = iter(runs)
        runs = [[record for run in islice(merged, base + (index < extra))
                 for record in run] for index in range(max_chunks)]
    return runs


def iter_stream_chunks(target, records: Sequence[Any],
                       max_chunks: Optional[int], ends_log: bool
                       ) -> Iterator[StreamChunk]:
    """Stream ``records``, a run of ``target``'s segment records, as
    replayable chunks.

    Each yielded :class:`StreamChunk` holds one chunk's entries, read when
    it is yielded (:meth:`read_segments`); previous chunks can be dropped,
    so a consumer iterating this holds O(chunk) entries.  ``max_chunks=None``
    yields the finest chunking (one chunk per snapshot-sealed segment run),
    otherwise runs are merged into at most ``max_chunks`` chunks.
    ``ends_log``: nothing follows ``records`` in the log.

    The checkpoints come from the records: a chunk starts where its
    predecessor ends (a run is read from its first record's start hash).
    Nothing here steps the hash chain: the audit kernel proves that each
    chunk extends its start checkpoint — once per entry, whoever consumes
    the chunks.
    """
    runs = chunk_runs(records, target.snapshots, max_chunks)
    for index, run in enumerate(runs):
        segment = target.read_segments(run)
        yield StreamChunk(
            segment=segment, start_checkpoint=segment.start_checkpoint(),
            end_checkpoint=run[-1].end_checkpoint(),
            ends_log=ends_log and index == len(runs) - 1)
