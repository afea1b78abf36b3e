"""Log segments and chunks.

A :class:`LogSegment` is the unit an auditor downloads: a contiguous run of
entries plus the chain hash immediately before the first entry.
:func:`split_at_snapshots` cuts a log into its snapshot-delimited segments.
A *chunk* is consecutive snapshot-delimited segments audited together
(:func:`repro.audit.stream.iter_stream_chunks`); the authenticator check,
the syntactic check and replay of one are :func:`repro.audit.kernel.run_chunk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import SegmentError
from repro.log.entries import ENTRY_OVERHEAD_BYTES, EntryType, LogEntry
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

    @property
    def sealed_by_snapshot(self) -> Optional[int]:
        """The id of the snapshot whose SNAPSHOT entry ends this segment
        (None: it ends with another entry, or one that names no snapshot)."""
        last = self.entries[-1] if self.entries else None
        if last is None or last.entry_type is not EntryType.SNAPSHOT:
            return None
        snapshot_id = last.content.get("snapshot_id")
        return snapshot_id if isinstance(snapshot_id, int) else None


def split_at_snapshots(segment: LogSegment) -> Iterator[LogSegment]:
    """The snapshot-delimited segments of ``segment`` (Section 6.12).

    Each ends at a SNAPSHOT entry, but for a last one holding what follows
    the last SNAPSHOT entry: the shipping granularity of Section 4.2,
    derived from the entries alone.  A segment starts where its predecessor
    ends — at the chain hash of the SNAPSHOT entry before it — not where its
    first entry claims to, so a chain broken at a boundary fails the segment
    after it (the first starts where ``segment`` does).
    """
    entries = segment.entries
    start = 0
    start_hash = segment.start_hash
    for index, entry in enumerate(entries):
        if entry.entry_type is EntryType.SNAPSHOT:
            yield LogSegment(machine=segment.machine,
                             entries=entries[start:index + 1],
                             start_hash=start_hash)
            start = index + 1
            start_hash = entry.chain_hash
    if start < len(entries):
        yield LogSegment(machine=segment.machine, entries=entries[start:],
                         start_hash=start_hash)
