"""Hostile values in fields the hash chain covers, and in timestamps it does
not: every audit front-end gives a verdict, never an exception.

*Malformed fields.*  A machine whose recorder writes one field of one entry
wrongly — a clock-read value that is not a number, a counter, a tick number,
a MAC-layer entry's source, an upstream call's body or data, a snapshot id —
still presents its own, consistently chained and signed log.  The replay
schedule is the one parser of those fields; each such entry is a divergence
that names it, on the serial front-end, on the engine over the live log and
on a v1 and a v3 archive, and a third party confirms the evidence.

*Non-finite timestamps.*  Timestamps are not chained, so anyone holding a
segment's bytes can set one.  Both readers refuse ``inf`` and ``nan``, so
the ingest door quarantines such a shipment; on a live log the format
sweep reports one.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from bench.harness import record
from bench.workloads import SERVER, WORKLOADS
from repro.adversary.catalog import make_adversary
from repro.adversary.matrix import CellSpec, ScenarioMatrix
from repro.audit.auditor import Auditor
from repro.audit.engine import AuditScheduler
from repro.audit.kernel import fetch_verified_snapshot_entry
from repro.audit.verdict import AuditPhase, Verdict
from repro.errors import LogFormatError, MissingSnapshotError
from repro.log.codec import decode_segment, encode_segment, get_codec
from repro.log.entries import EntryType, LogEntry
from repro.log.segments import LogSegment
from repro.log.tamper_evident import TamperEvidentLog
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive

from archive_tools import ship


def _kind(entry_type, kind):
    return lambda t, content: t is entry_type \
        and content.get("event_kind") == kind


def _mac_in(entry_type, content):
    return entry_type is EntryType.MACLAYER and content.get("direction") == "in"


def _snapshot(entry_type, content):
    return entry_type is EntryType.SNAPSHOT


def _set(key, value):
    return lambda content: {**content, key: value}


def _set_data(key, value):
    return lambda content: {**content, "data": {**content["data"], key: value}}


def _without(key):
    return lambda content: {k: v for k, v in content.items() if k != key}


#: (workload, machine, which entries, the rewrite of the third of them)
CASES = {
    "clock_value": ("game", "player1",
                    _kind(EntryType.TIMETRACKER, "clock_read"),
                    _set("value", "not-a-number")),
    "clock_counter": ("game", "player1",
                      _kind(EntryType.TIMETRACKER, "clock_read"),
                      _set("execution_counter", "seven")),
    "tick_number": ("game", "player1",
                    _kind(EntryType.TIMETRACKER, "timer_interrupt"),
                    _set("tick_number", None)),
    "maclayer_counter": ("game", "player1", _mac_in,
                         _set("execution_counter", [])),
    "maclayer_source": ("game", "player1", _mac_in, _without("source")),
    "upstream_body": ("web", SERVER, _kind(EntryType.NONDET, "upstream_call"),
                      _set_data("body", "not hex")),
    "upstream_data": ("web", SERVER, _kind(EntryType.NONDET, "upstream_call"),
                      _set("data", ["not", "an", "object"])),
    "snapshot_id": ("game", "player1", _snapshot,
                    _set("snapshot_id", "snap")),
}


class _Recording:
    """One deployment recorded with one machine's recorder writing one
    field wrongly, shipped to a v1 archive as it runs."""

    def __init__(self, case, root):
        workload, self.machine, matches, rewrite = CASES[case]
        self.root = root / "v1"
        self.sequence = None   # of the entry written wrongly
        real_append = TamperEvidentLog.append
        seen = 0

        def append(log, entry_type, content):
            nonlocal seen
            if log.machine == self.machine and not isinstance(content, bytes) \
                    and matches(entry_type, content):
                seen += 1
                if seen == 3:
                    entry = real_append(log, entry_type, rewrite(content))
                    self.sequence = entry.sequence
                    return entry
            return real_append(log, entry_type, content)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TamperEvidentLog, "append", append)
            if workload == "game":
                self._record_game()
            else:
                self._record_web()
        assert self.sequence is not None
        self.monitor = self.monitors[self.machine]

    def _record_game(self):
        matrix = ScenarioMatrix(duration=4.0, snapshot_interval=1.0)
        spec = CellSpec("honest", "game", "archive", 3, 5)
        ctx, run = matrix._build(spec, make_adversary("honest", 5),
                                 str(self.root))
        run()
        matrix._drain_archive(ctx)
        self.monitors, self.keystore = ctx.monitors, ctx.keystore
        self.images = ctx.reference_images

    def _record_web(self):
        workload = WORKLOADS["web_honest"](5, 0.2)
        deployment = workload.build(True, self.root)
        assert record(deployment)
        self.monitors, self.keystore = deployment.monitors, deployment.keystore
        self.images = deployment.reference_images

    def auditor(self):
        auditor = Auditor("auditor", self.keystore, self.images[self.machine])
        for peer, monitor in sorted(self.monitors.items()):
            if peer != self.machine:
                auditor.collect_from_peer(monitor, self.machine)
        return auditor

    def archive_target(self, auditor, root):
        service = AuditIngestService(LogArchive(root))
        assert not service.quarantine
        service.prepare_auditor(auditor, self.machine)
        return service.target_for(self.machine)


@pytest.fixture(scope="module", params=sorted(CASES))
def recording(request, tmp_path_factory):
    return _Recording(request.param, tmp_path_factory.mktemp(request.param))


def _audit_on(front_end, recording, tmp_path):
    auditor = recording.auditor()
    if front_end == "audit_segment":
        return auditor.audit_segment(recording.machine,
                                     recording.monitor.get_log_segment())
    if front_end == "engine_live":
        return AuditScheduler(workers=2, executor="thread").audit_machine(
            auditor, recording.monitor)
    root = recording.root
    if front_end == "archive_v3":
        root = tmp_path / "v3"
        LogArchive(recording.root).reencode_segments(root, format_version=3)
    return auditor.audit(recording.archive_target(auditor, root))


class TestMalformedFields:
    @pytest.mark.parametrize("front_end", ["audit_segment", "engine_live",
                                           "archive_v1", "archive_v3"])
    def test_a_verdict_naming_the_entry(self, recording, front_end, tmp_path):
        result = _audit_on(front_end, recording, tmp_path)
        assert result.verdict is Verdict.FAIL
        assert result.phase is AuditPhase.SEMANTIC_CHECK
        assert f"entry {recording.sequence} " in result.reason, result.reason
        assert result.evidence.verify(recording.keystore,
                                      recording.images[recording.machine])

    @pytest.mark.parametrize("snapshot_id", ["snap", None, math.inf])
    def test_an_unparseable_snapshot_id_names_no_snapshot(self, snapshot_id):
        entry = LogEntry(sequence=9, entry_type=EntryType.SNAPSHOT,
                         content={"snapshot_id": snapshot_id,
                                  "state_root": "00" * 32,
                                  "execution_counter": 1},
                         chain_hash=b"", previous_hash=b"")
        with pytest.raises(MissingSnapshotError, match="SNAPSHOT entry 9 "):
            fetch_verified_snapshot_entry(None, entry)


# -- non-finite timestamps ------------------------------------------------------------

@pytest.fixture(scope="module")
def game(tmp_path_factory):
    matrix = ScenarioMatrix(duration=3.0, snapshot_interval=1.0)
    ctx, run = matrix._build(CellSpec("honest", "game", "full", 3, 5),
                             make_adversary("honest", 5), None)
    run()
    return ctx


def _with_timestamp(segment, value, index=5):
    entries = list(segment.entries)
    entries[index] = replace(entries[index], timestamp=value)
    return LogSegment(segment.machine, entries, segment.start_hash)


_NON_FINITE = [math.inf, -math.inf, math.nan]


class TestNonFiniteTimestamps:
    @pytest.mark.parametrize("value", _NON_FINITE, ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("version", [1, 3])
    def test_both_readers_refuse_one(self, game, version, value):
        blob = encode_segment(_with_timestamp(
            game.monitors["player1"].get_log_segment(), value), version)
        with pytest.raises(LogFormatError, match="timestamp"):
            decode_segment(blob)
        decoder = get_codec(version).stream_decoder()
        with pytest.raises(LogFormatError, match="timestamp"):
            list(decoder.entries(iter([blob])))

    @pytest.mark.parametrize("value", _NON_FINITE, ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("version", [1, 3])
    def test_the_ingest_door_quarantines_the_shipment(self, game, version,
                                                      value, tmp_path):
        segment = _with_timestamp(
            game.monitors["player1"].get_log_segment(), value)
        archive = LogArchive(tmp_path / "archive", format_version=version)
        service = AuditIngestService(archive)
        ship(service, "player1", segment=encode_segment(segment, version))
        assert [q.machine for q in service.quarantine] == ["player1"]
        assert "timestamp" in service.quarantine[0].reason
        assert archive.segment_records("player1") == []

    @pytest.mark.parametrize("value", _NON_FINITE, ids=["inf", "-inf", "nan"])
    def test_a_live_audit_fails_at_the_syntactic_check(self, game, value):
        auditor = Auditor("auditor", game.keystore,
                          game.reference_images["player1"])
        for peer in ("server", "player2"):
            auditor.collect_from_peer(game.monitors[peer], "player1")
        segment = _with_timestamp(
            game.monitors["player1"].get_log_segment(), value)
        result = auditor.audit_segment("player1", segment)
        assert result.verdict is Verdict.FAIL
        assert result.phase is AuditPhase.SYNTACTIC_CHECK
        sequence = segment.entries[5].sequence
        assert f"entry {sequence} " in result.reason
        assert "non-finite timestamp" in result.reason

    def test_writers_never_produce_one(self, game):
        for monitor in game.monitors.values():
            assert all(math.isfinite(entry.timestamp) for entry in monitor.log)
