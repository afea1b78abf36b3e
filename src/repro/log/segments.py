"""Log segments and chunks.

A :class:`LogSegment` is the unit an auditor downloads: a contiguous run of
entries plus the chain hash immediately before the first entry.  A *chunk*
is consecutive snapshot-delimited segments audited together; the
authenticator check, the syntactic check and replay of one are
:func:`repro.audit.kernel.run_chunk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import SegmentError
from repro.log.entries import ENTRY_OVERHEAD_BYTES, LogEntry
from repro.log.hashchain import ChainCheckpoint


@dataclass
class LogSegment:
    """A contiguous run of log entries from one machine."""

    machine: str
    entries: List[LogEntry]
    start_hash: bytes

    # -- basic queries ------------------------------------------------------

    @property
    def first_sequence(self) -> int:
        if not self.entries:
            raise SegmentError("empty segment has no first sequence")
        return self.entries[0].sequence

    @property
    def last_sequence(self) -> int:
        if not self.entries:
            raise SegmentError("empty segment has no last sequence")
        return self.entries[-1].sequence

    @property
    def end_hash(self) -> bytes:
        """Chain hash after the last entry (``start_hash`` if empty)."""
        return self.entries[-1].chain_hash if self.entries else self.start_hash

    def start_checkpoint(self) -> ChainCheckpoint:
        """Chain state immediately before this segment's first entry."""
        if not self.entries:
            raise SegmentError("empty segment has no checkpoints")
        return ChainCheckpoint(sequence=self.first_sequence - 1,
                               chain_hash=self.start_hash)

    def end_checkpoint(self) -> ChainCheckpoint:
        """Chain state immediately after this segment's last entry."""
        if not self.entries:
            raise SegmentError("empty segment has no checkpoints")
        return ChainCheckpoint(sequence=self.last_sequence,
                               chain_hash=self.end_hash)

    def size_bytes(self) -> int:
        """``sum(entry.size_bytes() for entry in self.entries)``."""
        entries = self.entries
        return sum(map(len, map(LogEntry.encoded_content, entries))) \
            + ENTRY_OVERHEAD_BYTES * len(entries)

    # -- serialisation ------------------------------------------------------

def concatenate_segments(segments: Sequence[LogSegment]) -> LogSegment:
    """Join consecutive segments into one (used to build chunks).

    The segments must belong to the same machine and be contiguous: each
    segment's ``start_hash`` must equal the previous segment's ``end_hash``.
    """
    if not segments:
        raise SegmentError("cannot concatenate zero segments")
    machine = segments[0].machine
    entries: List[LogEntry] = []
    expected_hash = segments[0].start_hash
    for segment in segments:
        if segment.machine != machine:
            raise SegmentError("cannot concatenate segments from different machines")
        if segment.start_hash != expected_hash:
            raise SegmentError("segments are not contiguous (start hash mismatch)")
        entries.extend(segment.entries)
        expected_hash = segment.end_hash
    return LogSegment(machine=machine, entries=entries,
                      start_hash=segments[0].start_hash)


def partition_segments(segments: Sequence[LogSegment],
                       max_chunks: int) -> List[LogSegment]:
    """Group consecutive segments into at most ``max_chunks`` contiguous chunks.

    This is the audit engine's work division: the snapshot-delimited segments
    of one log are tiled into chunks
    of near-equal segment count, each of which can be verified — and, because
    chunk boundaries sit on snapshots, replayed — independently.  Returns
    fewer chunks when there are fewer segments than ``max_chunks``.
    """
    if max_chunks < 1:
        raise SegmentError(f"chunk count must be >= 1, got {max_chunks}")
    if not segments:
        return []
    count = min(max_chunks, len(segments))
    base, extra = divmod(len(segments), count)
    chunks: List[LogSegment] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        group = segments[start:start + size]
        chunks.append(group[0] if size == 1 else concatenate_segments(group))
        start += size
    return chunks

