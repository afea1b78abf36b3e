"""Log segments and k-chunks.

A :class:`LogSegment` is the unit an auditor downloads: a contiguous run of
entries plus the chain hash immediately before the first entry.  A *k-chunk*
(Section 6.12) is ``k`` consecutive snapshot-delimited segments audited
together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import AuthenticatorMismatchError, SegmentError
from repro.log.authenticator import Authenticator, batch_verify_authenticators
from repro.log.entries import EntryType, LogEntry
from repro.log.hashchain import ChainCheckpoint, verify_chain


@dataclass
class LogSegment:
    """A contiguous run of log entries from one machine."""

    machine: str
    entries: List[LogEntry]
    start_hash: bytes

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

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

    def entries_of_type(self, entry_type: EntryType) -> List[LogEntry]:
        return [e for e in self.entries if e.entry_type is entry_type]

    def size_bytes(self) -> int:
        return sum(entry.size_bytes() for entry in self.entries)

    # -- verification -------------------------------------------------------

    def verify_hash_chain(self) -> None:
        """Raise :class:`HashChainError` if the segment's chain is broken."""
        verify_chain(self.entries, expected_start_hash=self.start_hash)

    def verify_against_authenticators(self, authenticators: Iterable[Authenticator],
                                      keystore) -> int:
        """Check the segment against previously issued authenticators.

        Every authenticator whose sequence number falls inside the segment
        must carry a valid signature and match the corresponding entry's
        chain hash exactly; otherwise the machine has tampered with (or
        forked) its log.  Signatures are verified as one batch
        (:func:`~repro.log.authenticator.batch_verify_authenticators`); the
        error raised is still the first problem in list order.  Returns the
        number of authenticators checked.  Raises
        :class:`AuthenticatorMismatchError` on any mismatch and
        :class:`HashChainError` if the chain itself is broken.
        """
        self.verify_hash_chain()
        covering = self._covering(authenticators)
        _, invalid, _ = batch_verify_authenticators(
            [auth for auth, _ in covering], keystore)
        forged = set(invalid)
        for index, (auth, entry) in enumerate(covering):
            if index in forged:
                raise AuthenticatorMismatchError(
                    f"authenticator for sequence {auth.sequence} has an invalid signature")
            self._require_match(auth, entry)
        return len(covering)

    def _covering(self, authenticators: Iterable[Authenticator]
                  ) -> List[Tuple[Authenticator, LogEntry]]:
        """This machine's authenticators that cover an entry of the segment,
        each with that entry, in list order."""
        by_sequence: Dict[int, LogEntry] = {e.sequence: e for e in self.entries}
        return [(auth, by_sequence[auth.sequence]) for auth in authenticators
                if auth.machine == self.machine and auth.sequence in by_sequence]

    def _require_match(self, auth: Authenticator, entry: LogEntry) -> None:
        if entry.chain_hash != auth.chain_hash:
            raise AuthenticatorMismatchError(
                f"log entry {auth.sequence} does not match the authenticator "
                f"issued by {self.machine!r} (log was tampered with or forked)")

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "machine": self.machine,
            "start_hash": self.start_hash.hex(),
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @staticmethod
    def from_dict(data: Dict) -> "LogSegment":
        return LogSegment(
            machine=str(data["machine"]),
            start_hash=bytes.fromhex(data["start_hash"]),
            entries=[LogEntry.from_dict(e) for e in data["entries"]],
        )


def concatenate_segments(segments: Sequence[LogSegment]) -> LogSegment:
    """Join consecutive segments into one (used to build k-chunks).

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
    of one log are tiled (no overlap, unlike :func:`make_chunks`) into chunks
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
        chunks.append(concatenate_segments(segments[start:start + size]))
        start += size
    return chunks


def make_chunks(segments: Sequence[LogSegment], k: int,
                skip_initial: bool = False) -> List[LogSegment]:
    """Build every k-chunk of consecutive segments (sliding window, stride 1).

    ``skip_initial`` drops chunks that start at the very beginning of the log,
    matching the paper's exclusion of atypical start-of-log chunks in the
    Figure 9 experiment.
    """
    if k < 1:
        raise SegmentError(f"chunk size must be >= 1, got {k}")
    chunks: List[LogSegment] = []
    start = 1 if skip_initial else 0
    for i in range(start, len(segments) - k + 1):
        chunks.append(concatenate_segments(segments[i:i + k]))
    return chunks
