"""A tamper at a snapshot boundary is a verdict on every range of the log.

A live log is split at its SNAPSHOT entries, and each segment starts where
its predecessor ends (``repro.log.segments.split_at_snapshots``).  A split
that took a segment's start from its first entry's *claimed* previous hash
cut a log whose entry after a boundary was removed, or whose boundary entry
was swapped with its successor, into segments that did not join: a ranged
audit or a spot-check sweep across that boundary raised ``SegmentError``
instead of convicting.  Here each of the five log tampers of
:class:`~repro.adversary.tampering.TamperingVMM` hits the second boundary of
one recorded kv log, and every range and every k-chunk sweep is audited.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.tampering import TamperingVMM
from repro.audit.auditor import Auditor
from repro.audit.spot_check import SpotChecker
from repro.audit.verdict import Verdict
from repro.log.entries import EntryType

from scenario_tools import record_scenario

#: the second snapshot boundary: the SNAPSHOT entry ending segment 1
BOUNDARY = 1

#: each log tamper, at the boundary entry ``b`` or next to it
TAMPERS = {
    "modify": lambda tamper, b: tamper.modify_entry(b),
    "remove": lambda tamper, b: tamper.remove_entry(b + 1),
    "swap": lambda tamper, b: tamper.swap_entries(b),
    "forge": lambda tamper, b: tamper.forge_entry(b),
    "fork": lambda tamper, b: tamper.fork_chain(b + 1),
}


@pytest.fixture(scope="module", params=sorted(TAMPERS))
def tampered(request):
    """The kv server of one recorded pair, tampered at its second boundary."""
    ctx = record_scenario()
    monitor = ctx.monitor
    boundary = monitor.segment_records()[BOUNDARY].last_sequence
    assert monitor.log.entry_at(boundary).entry_type is EntryType.SNAPSHOT
    TAMPERS[request.param](TamperingVMM(monitor, random.Random(7)), boundary)
    return ctx


def _auditor(ctx):
    auditor = Auditor("auditor", ctx.keystore,
                      ctx.reference_images[ctx.byzantine])
    for machine in ctx.honest_machines:
        auditor.collect_from_peer(ctx.monitors[machine], ctx.byzantine)
    return auditor


def test_every_range_is_a_verdict(tampered):
    """Every ``[start, until)`` returns a verdict, and one that spans the
    boundary convicts, as the whole log does."""
    monitor = tampered.monitor
    count = len(monitor.segment_records())
    auditor = _auditor(tampered)
    assert auditor.audit(monitor).verdict is Verdict.FAIL
    for start in range(count):
        for until in range(start + 1, count + 1):
            result = auditor.audit(monitor, start=start, until=until)
            assert result.verdict in (Verdict.PASS, Verdict.FAIL)
            if start <= BOUNDARY < BOUNDARY + 1 < until:
                assert result.verdict is Verdict.FAIL, (start, until)
                assert result.evidence.verify(
                    tampered.keystore,
                    tampered.reference_images[tampered.byzantine])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_k_chunk_sweep_is_a_verdict(tampered, k):
    results = SpotChecker(_auditor(tampered)).check_all_chunks(
        tampered.monitor, k, skip_initial=False)
    assert len(results) == len(tampered.monitor.segment_records()) - k + 1
    assert all(result.result.verdict in (Verdict.PASS, Verdict.FAIL)
               for result in results)
    assert not all(result.ok for result in results)
