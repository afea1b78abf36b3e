"""Spot checking (Sections 3.5 and 6.12).

Instead of auditing the whole log, the auditor picks *k-chunks* — ``k``
consecutive snapshot-delimited segments — downloads the snapshot at the start
of the chunk, verifies it against the hash-tree root recorded in the log, and
replays just the chunk.  The cost is roughly proportional to the chunk size
plus a fixed per-chunk cost for transferring the memory and disk snapshots and
for decompression (Figure 9).

A k-chunk is audited as the range ``[i, i + k)`` of the log
(:meth:`Auditor.audit <repro.audit.auditor.Auditor.audit>`): the same plan
and kernel as a whole log, starting from the snapshot sealing the segment
before it.  This module adds the Figure 9 price of the chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.audit.auditor import Auditor
from repro.audit.verdict import AuditResult
from repro.avmm.monitor import AccountableVMM
from repro.log.codec import modelled_compressed_log_bytes


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


class SpotChecker:
    """Audits k-chunks of a machine's log, one after another.

    Each chunk is a ranged audit; an archive-backed target's chunk is read
    straight off its segment files, so checking a few chunks of a long
    archived log never materializes the log.
    """

    def __init__(self, auditor: Auditor) -> None:
        self.auditor = auditor

    # -- public API ------------------------------------------------------------------

    def check_chunk(self, target: AccountableVMM, start_index: int,
                    k: int) -> SpotCheckResult:
        """Audit the chunk of ``k`` consecutive segments starting at ``start_index``.

        ``start_index`` is an index into the list of snapshot-delimited
        segments (0 = the segment that starts at the beginning of the log).
        """
        return self._checked(target, start_index, k, target.segment_records())

    def check_all_chunks(self, target: AccountableVMM, k: int,
                         skip_initial: bool = True) -> List[SpotCheckResult]:
        """Audit every possible k-chunk (Figure 9 sweeps k over the whole log).

        ``skip_initial`` excludes chunks that start at the very beginning of
        the log, as the paper does: they are atypical because no snapshot has
        to be transferred and there is little activity yet.  Results are
        returned in chunk order.
        """
        records = target.segment_records()
        start = 1 if skip_initial else 0
        return [self._checked(target, index, k, records)
                for index in range(start, len(records) - k + 1)]

    def _checked(self, target: AccountableVMM, start_index: int, k: int,
                 records: Sequence) -> SpotCheckResult:
        """The range ``[start_index, start_index + k)`` audited, with its
        Figure 9 price next to it: the compressed size of the chunk, read
        as one run of ``records`` (the target's, listed once per sweep)."""
        until = start_index + k
        result = self.auditor.audit(target, start=start_index, until=until)
        chunk = target.read_segments(records[start_index:until])
        return SpotCheckResult(
            chunk_start_index=start_index,
            k=k,
            result=result,
            log_bytes=result.cost.log_bytes_downloaded,
            compressed_log_bytes=modelled_compressed_log_bytes(chunk),
            snapshot_bytes=result.cost.snapshot_bytes_downloaded,
            replay_seconds=result.cost.semantic_seconds,
        )
