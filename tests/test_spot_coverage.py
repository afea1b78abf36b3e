"""Spot checks over every chunk (Figure 9): they find a tamper in the one
chunk that holds it, and price each chunk the same whether it passes or not.

The scenario: a machine tampers with exactly one snapshot-delimited segment
after the fact; only the chunk that covers it can fail.
"""

import random

import pytest

from repro.adversary.tampering import TamperingVMM
from repro.audit.auditor import Auditor
from repro.audit.spot_check import SpotChecker
from repro.audit.verdict import Verdict

from scenario_tools import record_scenario


@pytest.fixture(scope="module")
def tampered_scenario():
    """A recorded kv pair where the server tampered inside one known segment."""
    ctx = record_scenario(workload="kv", fleet_size=2, seed=41)
    monitor = ctx.monitor
    segments = monitor.segment_records()
    assert len(segments) >= 4
    # Tamper with an entry in the *last* segment; recompute the chain so the
    # log stays internally consistent (only the authenticator check can see
    # it, and only when the tampered chunk is actually audited).  The final
    # segment's entries are committed via the ack authenticators peers hold.
    committed = set(ctx.peer_committed_sequences())
    target_index, victim = next(
        (index, entry.sequence)
        for index in range(len(segments) - 1, 0, -1)
        for entry in segments[index].entries
        if entry.sequence in committed)
    TamperingVMM(monitor, random.Random(7)).modify_entry(victim)
    return ctx, target_index


def _make_checker(ctx):
    auditor = Auditor("auditor", ctx.keystore,
                      ctx.reference_images[ctx.byzantine])
    for machine in ctx.honest_machines:
        auditor.collect_from_peer(ctx.monitors[machine], ctx.byzantine)
    return SpotChecker(auditor)


class TestEveryChunk:
    def test_full_coverage_finds_the_tamper(self, tampered_scenario):
        ctx, tampered_index = tampered_scenario
        checker = _make_checker(ctx)
        results = checker.check_all_chunks(ctx.monitor, k=1,
                                           skip_initial=False)
        failing = [r for r in results if not r.ok]
        assert failing
        assert any(r.chunk_start_index == tampered_index for r in failing)
        assert all(r.result.verdict is Verdict.FAIL for r in failing)


class TestReportedTransferFigures:
    """The Figure 9 quantities, pinned: the checker prices each chunk's
    compressed download itself (``modelled_compressed_log_bytes`` — *what
    the v1 writer stores*, so these move only when that writer or the
    recorded log does — PR 23 logs ``ACK sent`` entries when the carrier is
    signed, not at RECV time, and numbers fewer envelopes; CHANGES.md records
    each re-pin) plus the boundary snapshot."""

    @staticmethod
    def _figures(results):
        return [(r.compressed_log_bytes, r.total_bytes_transferred)
                for r in results]

    def test_honest_chunks(self):
        ctx = record_scenario(workload="kv", fleet_size=2, seed=43)
        checker = _make_checker(ctx)
        k1 = checker.check_all_chunks(ctx.monitor, k=1, skip_initial=False)
        assert all(r.ok for r in k1)
        assert self._figures(k1) == [
            (3177, 3177), (4020, 536875924), (3957, 536875867),
            (4011, 536875232), (229, 536872150)]
        k2 = checker.check_all_chunks(ctx.monitor, k=2, skip_initial=False)
        assert self._figures(k2) == [
            (7197, 7197), (7977, 536879881), (7968, 536879878), (4240, 536875461)]

    def test_a_failing_chunk_is_priced_like_a_passing_one(
            self, tampered_scenario):
        ctx, tampered_index = tampered_scenario
        results = _make_checker(ctx).check_all_chunks(
            ctx.monitor, k=1, skip_initial=False)
        assert [r.ok for r in results] == [
            index != tampered_index for index in range(len(results))]
        assert self._figures(results) == [
            (3181, 3181), (3983, 536875887), (3972, 536875882),
            (3993, 536875214), (224, 536872145)]
