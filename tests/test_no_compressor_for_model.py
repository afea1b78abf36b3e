"""Guard: no compressor runs to produce a *modelled* number.

The paper charges a log download in compressed bytes (Section 6.6); that
figure is :func:`repro.log.codec.modelled_compressed_log_bytes`, computed by
whoever reports it.  Nothing whose wall time is measured — an audit on any
front-end, the archive's ingest — may run bzip2 or zlib except to produce
bytes it actually stores or ships.  These tests count every compressor
entry point of the standard library while those paths run.
"""

from __future__ import annotations

import bz2
import zlib
from collections import Counter

import pytest

from repro.adversary.catalog import make_adversary
from repro.adversary.matrix import CellSpec, ScenarioMatrix
from repro.audit.auditor import Auditor
from repro.audit.engine import AuditScheduler
from repro.audit.verdict import Verdict
from repro.log.codec import decode_segment, get_codec, iter_snapshot_subsegments
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive

from codec_tools import per_frame_v3_blob

COMPRESSORS = ((bz2, "compress"), (bz2, "BZ2Compressor"),
               (zlib, "compress"), (zlib, "compressobj"))


@pytest.fixture()
def compressor_calls(monkeypatch) -> Counter:
    """Calls per compressor entry point, counted from here on."""
    calls: Counter = Counter()
    nested = []

    def counted(label, real):
        def wrapper(*args, **kwargs):
            # bz2.compress builds a BZ2Compressor itself: one pass, one count
            if not nested:
                calls[label] += 1
            nested.append(label)
            try:
                return real(*args, **kwargs)
            finally:
                nested.pop()
        return wrapper

    for module, name in COMPRESSORS:
        monkeypatch.setattr(module, name, counted(f"{module.__name__}.{name}",
                                                  getattr(module, name)))
    return calls


@pytest.fixture(scope="module")
def cheat_scenario(tmp_path_factory):
    """One honest client and one convicted server (a cheating guest),
    recorded once; the v1 archive the fleet shipped to, and a v3 copy."""
    root = tmp_path_factory.mktemp("no-compressor")
    matrix = ScenarioMatrix(duration=3.0, snapshot_interval=1.0)
    adversary = make_adversary("cheating-guest", seed=5000)
    spec = CellSpec("cheating-guest", "kv", "archive", 2, 5000)
    ctx, run = matrix._build(spec, adversary, str(root / "archive-v1"))
    adversary.install(ctx)
    run()
    matrix._drain_archive(ctx)
    adversary.corrupt(ctx)
    LogArchive(root / "archive-v1").reencode_segments(root / "archive-v3",
                                                      format_version=3)
    return matrix, adversary, ctx, root


def _expected(ctx, machine) -> Verdict:
    return Verdict.FAIL if machine == ctx.byzantine else Verdict.PASS


def _archive_audit(ctx, machine, archive_root, engine=None):
    """An auditor holding the archived authenticators, and its target."""
    service = AuditIngestService(LogArchive(archive_root))
    auditor = Auditor("auditor", ctx.keystore, ctx.reference_images[machine],
                      engine=engine)
    service.prepare_auditor(auditor, machine)
    return auditor, service.target_for(machine)


class TestAuditsNeverCompress:
    def test_serial_audit_of_a_live_log(self, cheat_scenario,
                                        compressor_calls):
        matrix, adversary, ctx, _ = cheat_scenario
        for machine in sorted(ctx.monitors):
            auditor = matrix._make_auditor(ctx, machine, adversary)
            result = auditor.audit(ctx.monitors[machine])
            assert result.verdict is _expected(ctx, machine)
        assert not compressor_calls

    def test_engine_audit_of_a_v3_archive(self, cheat_scenario,
                                          compressor_calls):
        _, _, ctx, root = cheat_scenario
        for machine in sorted(ctx.monitors):
            auditor, target = _archive_audit(
                ctx, machine, root / "archive-v3",
                engine=AuditScheduler(workers=2, executor="inline"))
            assert auditor.audit(target).verdict is _expected(ctx, machine)
        assert not compressor_calls

    def test_streaming_audit_of_a_v1_archive(self, cheat_scenario,
                                             compressor_calls):
        _, _, ctx, root = cheat_scenario
        for machine in sorted(ctx.monitors):
            auditor, target = _archive_audit(ctx, machine,
                                             root / "archive-v1")
            assert auditor.audit(target).verdict is _expected(ctx, machine)
        assert not compressor_calls


class TestIngestCompressesOnlyWhatItStores:
    @pytest.fixture()
    def shipment(self, cheat_scenario):
        """The first sealed sub-segment of the honest machine's log."""
        _, _, ctx, _ = cheat_scenario
        honest = next(m for m in sorted(ctx.monitors) if m != ctx.byzantine)
        return next(iter_snapshot_subsegments(
            ctx.monitors[honest].get_log_segment()))

    def test_same_layout_v3_shipment_is_stored_as_it_arrived(
            self, shipment, tmp_path, compressor_calls):
        wire = get_codec(3).encode_segment(shipment)
        compressor_calls.clear()
        archive = LogArchive(tmp_path / "v3", format_version=3)
        record = archive.append_segment(decode_segment(wire), wire=wire)
        assert not compressor_calls
        assert archive.stored_bytes_of(record) == wire

    def test_v3_shipment_into_a_v1_archive_is_compressed_once(
            self, shipment, tmp_path, compressor_calls):
        wire = get_codec(3).encode_segment(shipment)
        compressor_calls.clear()
        archive = LogArchive(tmp_path / "v1", format_version=1)
        archive.append_segment(decode_segment(wire), wire=wire)
        assert compressor_calls == {"bz2.compress": 1}

    def test_raw_frame_v3_shipment_is_deflated_not_bzipped(
            self, shipment, tmp_path, compressor_calls):
        wire = per_frame_v3_blob(shipment)
        assert not compressor_calls
        archive = LogArchive(tmp_path / "v3", format_version=3)
        archive.append_segment(decode_segment(wire), wire=wire)
        # Only the one stream it writes (zlib); never bzip2 for a size it
        # would merely record.
        assert compressor_calls == {"zlib.compress": 1}
