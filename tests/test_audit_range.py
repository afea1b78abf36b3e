"""A spot check is a range of the one audit: ``Auditor.audit(target,
start=i, until=i + k)``.

``tests/data/range_pins.json`` holds, for every k-chunk of one honest and
one convicted kv cell of the adversary matrix, live and archived, what the
spot checker reported when it built its chunks itself, before the range
existed: verdict, phase, reason, a digest of the evidence and the Figure 9
figures.  The range must reproduce each one, and ``check_chunk`` must be the
range plus its price.  Bounds outside the segments, or an empty range, are a
:class:`SegmentError`; a log served under another machine's name is an
:class:`AuditError` on every path.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.adversary.catalog import make_adversary
from repro.adversary.matrix import CellSpec, ScenarioMatrix
from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.audit.spot_check import SpotChecker
from repro.errors import AuditError, SegmentError
from repro.log.segments import LogSegment
from repro.vm.snapshot import serialize_state

PINS = json.loads((Path(__file__).parent / "data" / "range_pins.json").read_text())


def _evidence_digest(evidence):
    """What identifies evidence: its chunk, authenticators, anchor, start
    state and claims (the digest the pins were taken with)."""
    if evidence is None:
        return None
    segment = evidence.segment
    parts = [evidence.machine, evidence.accuser, evidence.reason,
             evidence.reference_image_hash.hex(), evidence.ends_log,
             evidence.unanswered_challenge,
             [(a.machine, a.sequence, a.chain_hash.hex(), a.signature.hex())
              for a in evidence.authenticators],
             [(e.sequence, e.chain_hash.hex()) for e in evidence.anchor],
             segment.machine, segment.start_hash.hex(),
             [(e.sequence, e.chain_hash.hex()) for e in segment.entries]]
    if evidence.initial_state is not None:
        parts.append(hashlib.sha256(
            serialize_state(evidence.initial_state)).hexdigest())
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


@pytest.fixture(scope="module", params=sorted(PINS))
def cell(request):
    """One recorded cell, its archive drained: (key, matrix, adversary, ctx)."""
    adversary_name, workload, mode, size = request.param.split("|")
    matrix = ScenarioMatrix()
    spec = CellSpec(adversary_name, workload, mode, int(size),
                    next(s.seed for s in matrix.default_cells()
                         if (s.adversary, s.workload, s.mode, s.fleet_size)
                         == (adversary_name, workload, mode, int(size))))
    adversary = make_adversary(adversary_name, seed=spec.seed)
    with tempfile.TemporaryDirectory() as tmp:
        ctx, run = matrix._build(spec, adversary, tmp)
        adversary.install(ctx)
        run()
        matrix._drain_archive(ctx)
        adversary.corrupt(ctx)
        yield request.param, matrix, adversary, ctx


def _auditor(cell, machine, archived):
    _, matrix, adversary, ctx = cell
    auditor = matrix._make_auditor(ctx, machine, adversary)
    if archived:
        ctx.ingest.prepare_auditor(auditor, machine)
    return auditor


def _target(cell, machine, archived):
    ctx = cell[3]
    return ctx.ingest.target_for(machine) if archived else ctx.monitors[machine]


def test_every_k_chunk_is_the_pinned_spot_check(cell):
    key, ctx = cell[0], cell[3]
    pins = PINS[key]
    checked = convicted = 0
    for pin_key, pinned in sorted(pins.items()):
        machine, kind, start, k = pin_key.split()
        start, k, archived = int(start), int(k), kind == "archive"
        target = _target(cell, machine, archived)
        spot = SpotChecker(_auditor(cell, machine, archived)).check_chunk(
            target, start, k)
        result = spot.result
        assert [result.verdict.value, result.phase.value, result.reason,
                _evidence_digest(result.evidence), spot.log_bytes,
                spot.compressed_log_bytes, spot.snapshot_bytes,
                spot.replay_seconds, spot.total_seconds] == pinned, pin_key
        ranged = _auditor(cell, machine, archived).audit(
            target, start=start, until=start + k)
        assert ranged == result, pin_key
        checked += 1
        convicted += not result.ok
        if not result.ok:
            assert result.evidence.verify(ctx.keystore,
                                          ctx.reference_images[machine])
    # every k-chunk of both machines, live and archived
    assert checked == len(pins) == 60
    assert (convicted > 0) == key.startswith("cheating-guest")


@pytest.mark.parametrize("archived", [False, True], ids=["live", "archive"])
def test_a_bound_outside_the_segments_or_an_empty_range_is_refused(
        cell, archived):
    machine = sorted(cell[3].monitors)[0]
    target = _target(cell, machine, archived)
    auditor = _auditor(cell, machine, archived)
    count = len(target.segment_records())
    for start, until in ((-1, 1), (0, count + 1), (2, 2), (3, 1),
                         (count, None)):
        with pytest.raises(SegmentError, match="outside the"):
            auditor.audit(target, start=start, until=until)
    # a missing bound is the log's start or end
    assert auditor.audit(target, start=0, until=count) \
        == auditor.audit(target, until=count) \
        == auditor.audit(target, start=0)


class _Renamed:
    """A live target that serves its log under another machine's name."""

    def __init__(self, monitor) -> None:
        self._monitor = monitor

    def __getattr__(self, name):
        return getattr(self._monitor, name)

    @staticmethod
    def _renamed(segment):
        return LogSegment(machine="impostor", entries=segment.entries,
                          start_hash=segment.start_hash)

    def read_segments(self, records):
        return self._renamed(self._monitor.read_segments(records))


def test_a_log_served_under_another_name_is_refused(cell):
    """No authenticator of the audited machine applies to a segment that
    claims another identity, so it would pass the tamper check vacuously:
    the plan refuses it before any chunk runs, on one chunk, on a range and
    on a pool."""
    machine = sorted(cell[3].monitors)[0]
    target = _Renamed(cell[3].monitors[machine])
    auditor = _auditor(cell, machine, archived=False)
    with pytest.raises(AuditError, match="claims to be from 'impostor'"):
        auditor.audit(target)
    with pytest.raises(AuditError, match="claims to be from 'impostor'"):
        auditor.audit(target, start=1, until=2)
    with pytest.raises(AuditError, match="claims to be from 'impostor'"):
        SpotChecker(auditor).check_chunk(target, 1, 1)
    with pytest.raises(AuditError, match="claims to be from 'impostor'"):
        AuditScheduler(workers=2).audit_fleet([AuditAssignment(auditor, target)])
