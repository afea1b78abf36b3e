"""Spot checking (Sections 3.5 and 6.12).

Instead of auditing the whole log, the auditor picks *k-chunks* — ``k``
consecutive snapshot-delimited segments — downloads the snapshot at the start
of the chunk, verifies it against the hash-tree root recorded in the log, and
replays just the chunk.  The cost is roughly proportional to the chunk size
plus a fixed per-chunk cost for transferring the memory and disk snapshots and
for decompression (Figure 9).

A chunk goes through the same audit kernel as a whole log, under a
:class:`~repro.audit.kernel.BoundaryContext` seeded from the segment that
precedes it — downloaded anyway, for the SNAPSHOT entry that authenticates
the chunk's start state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.audit.auditor import Auditor
from repro.audit.kernel import (BoundaryContext, fetch_verified_snapshot_entry,
                                last_snapshot_entry)
from repro.audit.verdict import AuditResult
from repro.avmm.monitor import AccountableVMM
from repro.errors import SegmentError
from repro.log.codec import modelled_compressed_log_bytes
from repro.log.segments import LogSegment, concatenate_segments


@dataclass
class SpotCheckResult:
    """Outcome and cost of auditing one k-chunk."""

    chunk_start_index: int
    k: int
    result: AuditResult
    log_bytes: int
    compressed_log_bytes: int
    snapshot_bytes: int
    replay_seconds: float

    @property
    def total_bytes_transferred(self) -> int:
        return self.compressed_log_bytes + self.snapshot_bytes

    @property
    def total_seconds(self) -> float:
        return self.result.cost.decompression_seconds \
            + self.result.cost.syntactic_seconds + self.replay_seconds

    @property
    def ok(self) -> bool:
        return self.result.ok


class _SegmentSource:
    """Lazy access to a target's snapshot-delimited segments.

    Live targets materialize their segment list once (as before).  An
    archive-backed target (``supports_streaming``) is served record by
    record from disk instead, with a small sliding cache sized to the chunk
    being checked — so a spot check of one k-chunk decompresses k+1
    segments, not the whole log.
    """

    def __init__(self, target: AccountableVMM, k: int,
                 segments: Optional[List[LogSegment]] = None) -> None:
        self._records = None
        self._archive = None
        self._cache: Dict[int, LogSegment] = {}
        self._cache_limit = max(2, k + 1)
        if segments is not None:
            self._segments: Optional[List[LogSegment]] = list(segments)
        elif getattr(target, "supports_streaming", False):
            self._segments = None
            self._archive = target.archive
            self._records = target.archive.segment_records(target.identity)
        else:
            self._segments = target.get_snapshot_segments()

    def __len__(self) -> int:
        if self._segments is not None:
            return len(self._segments)
        return len(self._records)

    def get(self, index: int) -> LogSegment:
        if self._segments is not None:
            return self._segments[index]
        cached = self._cache.get(index)
        if cached is None:
            cached = self._archive.read_segment(self._records[index])
            if len(self._cache) >= self._cache_limit:
                self._cache.pop(min(self._cache))
            self._cache[index] = cached
        return cached

    def slice(self, start: int, stop: int) -> List[LogSegment]:
        return [self.get(index) for index in range(start, stop)]

    def following(self, start: int) -> Iterator[LogSegment]:
        """The segments from ``start`` on, read as they are asked for."""
        return (self.get(index) for index in range(start, len(self)))


class SpotChecker:
    """Audits k-chunks of a machine's log, one after another.

    Archive-backed targets are read lazily: each chunk's segments are
    decompressed on demand (:class:`_SegmentSource`), so checking a few
    chunks of a long archived log never materializes the log.
    """

    def __init__(self, auditor: Auditor) -> None:
        self.auditor = auditor

    # -- public API ------------------------------------------------------------------

    def check_chunk(self, target: AccountableVMM, start_index: int, k: int,
                    segments: Optional[Union[List[LogSegment],
                                             _SegmentSource]] = None
                    ) -> SpotCheckResult:
        """Audit the chunk of ``k`` consecutive segments starting at ``start_index``.

        ``start_index`` is an index into the list of snapshot-delimited
        segments (0 = the segment that starts at the beginning of the log).
        """
        if not isinstance(segments, _SegmentSource):
            segments = _SegmentSource(target, k=k, segments=segments)
        chunk, boundary = self._chunk_inputs(target, start_index, k, segments)
        result = self.auditor.audit_segment(
            target.identity, chunk, **boundary,
            following=segments.following(start_index + k))
        return self._priced(start_index, k, chunk, result)

    @staticmethod
    def _chunk_inputs(target: AccountableVMM, start_index: int, k: int,
                      segments: _SegmentSource):
        """The k-chunk at ``start_index`` and — as keyword arguments of
        :meth:`Auditor.audit_segment` — what holds at its boundary: the start
        state, checked against the SNAPSHOT entry that seals the preceding
        segment, and the context (what that segment left in flight, and
        whether anything follows the chunk)."""
        if start_index < 0 or start_index + k > len(segments):
            raise SegmentError(
                f"chunk [{start_index}, {start_index + k}) outside the "
                f"{len(segments)} available segments")
        chunk = concatenate_segments(segments.slice(start_index,
                                                    start_index + k))
        context = BoundaryContext()
        initial_state: Optional[Dict[str, Any]] = None
        snapshot_bytes = 0
        if start_index > 0:
            preceding = segments.get(start_index - 1)
            initial_state, snapshot_bytes = fetch_verified_snapshot_entry(
                target, last_snapshot_entry(preceding))
            context = context.after(preceding)
        context.ends_log = start_index + k == len(segments)
        return chunk, dict(initial_state=initial_state,
                           snapshot_bytes=snapshot_bytes, context=context)

    @staticmethod
    def _priced(start_index: int, k: int, chunk: LogSegment,
                result: AuditResult) -> SpotCheckResult:
        """The chunk's result with the Figure 9 quantities next to it."""
        return SpotCheckResult(
            chunk_start_index=start_index,
            k=k,
            result=result,
            log_bytes=chunk.size_bytes(),
            compressed_log_bytes=modelled_compressed_log_bytes(chunk),
            snapshot_bytes=result.cost.snapshot_bytes_downloaded,
            replay_seconds=result.cost.semantic_seconds,
        )

    def check_all_chunks(self, target: AccountableVMM, k: int,
                         skip_initial: bool = True) -> List[SpotCheckResult]:
        """Audit every possible k-chunk (Figure 9 sweeps k over the whole log).

        ``skip_initial`` excludes chunks that start at the very beginning of
        the log, as the paper does: they are atypical because no snapshot has
        to be transferred and there is little activity yet.  Results are
        returned in chunk order.
        """
        segments = _SegmentSource(target, k=k)
        start = 1 if skip_initial else 0
        return [self.check_chunk(target, index, k, segments=segments)
                for index in range(start, len(segments) - k + 1)]
