"""Cross-format differential tests: v1 and v3 archives are interchangeable.

The LogCodec contract is that the wire format is *invisible* above the codec
layer: the same recorded log, stored or shipped in any format, must
produce structurally identical audit verdicts, evidence, replay reports and
modelled :class:`~repro.audit.verdict.AuditCost` — on the serial and the
streaming path alike.  These tests record one fleet (so the log bytes are
fixed), store its segments in the v3 *explicit* layout too (every hash
written out, as the v3 seed archive's frames are), move its archive across
formats via :meth:`~repro.store.archive.LogArchive.reencode_segments`
(including explicit → short-form v3) and via ingest-service replay of
re-encoded shipments, and diff the audits.
"""

from __future__ import annotations

import bz2
import json
import shutil
import struct
import zlib
from dataclasses import replace

import pytest

from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.audit.verdict import AuditPhase, Verdict
from repro.errors import ArchiveIntegrityError
from repro.log.codec import (MAGIC_LENGTH, V3_FLAG_CHAIN_BREAKS_ONLY,
                             TypedCodec, decode_segment, get_codec,
                             modelled_compressed_log_bytes,
                             sniff_format_version)
from repro.log.entries import decode_content, encode_content
from repro.log.hashchain import verify_chain_incremental
from repro.service.fleet import build_fleet
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive
from repro.store.manifest import (SegmentRecord, parse_checkpoint,
                                  read_checkpoint)

from archive_tools import archived_log, rebuild_frame_file, replace_payload, ship
from codec_tools import ExplicitTypedCodec, per_frame_v3_blob, segment_to_bytes


@pytest.fixture(scope="module")
def recorded_fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("codec-diff") / "archive-v1"
    fleet = build_fleet(num_machines=2, duration=8.0,
                        snapshot_interval=2.0, archive=LogArchive(root))
    return fleet, root


def _explicit(record, payload):
    """A frame-file transform: a segment re-stored as a raw v3 blob in the
    explicit layout, anything else as it is."""
    if not isinstance(record, SegmentRecord):
        return record, payload
    return (replace(record, format_version=3),
            per_frame_v3_blob(decode_segment(payload), explicit=True))


@pytest.fixture(scope="module")
def explicit_root(recorded_fleet, tmp_path_factory):
    """The recorded archive with every segment in the v3 explicit layout —
    the reader branch the v3 seed archive needs; nothing writes it."""
    _, root = recorded_fleet
    destination = tmp_path_factory.mktemp("codec-diff-explicit") \
        / "archive-v3-explicit"
    shutil.copytree(root, destination)
    _, files, _ = parse_checkpoint(read_checkpoint(destination))
    for holder in files:
        rebuild_frame_file(destination, holder, _explicit)
    return destination


@pytest.fixture(scope="module")
def v3_root(explicit_root, tmp_path_factory):
    """v3 archive derived *from the explicit one*: exercises re-encoding
    into the layout the writer writes."""
    destination = tmp_path_factory.mktemp("codec-diff-v3") / "archive-v3"
    LogArchive(explicit_root).reencode_segments(destination, format_version=3)
    return destination


def _audit_all(fleet, root, streaming: bool):
    """Audit every machine of an archive — chunk by chunk on the engine, or
    materialized as one chunk; returns {machine: AuditResult}."""
    results = {}
    service = AuditIngestService(LogArchive(root))
    for machine in fleet.machines:
        auditor = fleet.make_auditor(machine, collect=False)
        service.prepare_auditor(auditor, machine)
        target = service.target_for(machine)
        if streaming:
            results[machine] = auditor.audit(target)
        else:
            results[machine] = AuditScheduler(chunks_per_machine=1) \
                .audit_fleet([AuditAssignment(auditor, target)]).results[machine]
    return results


class TestReencodedArchiveEquivalence:
    def test_explicit_files_are_typed_and_indexed_as_v3(
            self, recorded_fleet, explicit_root):
        fleet, root = recorded_fleet
        v1, explicit = LogArchive(root), LogArchive(explicit_root)
        for machine in fleet.machines:
            v1_records = v1.segment_records(machine)
            explicit_records = explicit.segment_records(machine)
            assert len(v1_records) == len(explicit_records)
            for r1, r3 in zip(v1_records, explicit_records):
                assert (r1.first_sequence, r1.last_sequence,
                        r1.start_hash, r1.end_hash) == \
                    (r3.first_sequence, r3.last_sequence,
                     r3.start_hash, r3.end_hash)
                assert r1.format_version == 1 and r3.format_version == 3
                # The modelled download size is format-independent: priced
                # from the explicit-layout entries it equals what the v1
                # archive actually stored for the same cleanly-shipped
                # segment.
                assert modelled_compressed_log_bytes(
                    explicit.read_segment(r3)) == r1.stored_bytes
                data = explicit.stored_bytes_of(r3)
                assert sniff_format_version(data) == 3
                flags = TypedCodec._unpack_header(memoryview(data))[2]
                assert not flags & V3_FLAG_CHAIN_BREAKS_ONLY

    def test_v3_files_are_typed_and_indexed_as_v3(self, recorded_fleet,
                                                  v3_root):
        fleet, root = recorded_fleet
        v1, v3 = LogArchive(root), LogArchive(v3_root)
        for machine in fleet.machines:
            v1_records = v1.segment_records(machine)
            v3_records = v3.segment_records(machine)
            assert len(v1_records) == len(v3_records)
            for r1, r3 in zip(v1_records, v3_records):
                assert (r1.first_sequence, r1.last_sequence,
                        r1.start_hash, r1.end_hash) == \
                    (r3.first_sequence, r3.last_sequence,
                     r3.start_hash, r3.end_hash)
                assert r3.format_version == 3
                # ...and it survives re-encoding, so the reported
                # figure stays denominated in canonical v1 bytes.
                assert modelled_compressed_log_bytes(v3.read_segment(r3)) \
                    == r1.stored_bytes
                data = v3.stored_bytes_of(r3)
                assert sniff_format_version(data) == 3

    def test_materialized_logs_are_identical(self, recorded_fleet,
                                             explicit_root, v3_root):
        fleet, root = recorded_fleet
        v1 = LogArchive(root)
        for other_root in (explicit_root, v3_root):
            other = LogArchive(other_root)
            for machine in fleet.machines:
                assert segment_to_bytes(archived_log(v1, machine)) == \
                    segment_to_bytes(archived_log(other, machine))
                assert v1.authenticators_for(machine) == \
                    other.authenticators_for(machine)

    @pytest.mark.parametrize("source_version", ["3-explicit", 3])
    def test_round_trip_back_to_v1(self, recorded_fleet, explicit_root,
                                   v3_root, tmp_path, source_version):
        fleet, root = recorded_fleet
        source = v3_root if source_version == 3 else explicit_root
        back = LogArchive(source).reencode_segments(
            tmp_path / "archive-v1-again", format_version=1)
        v1 = LogArchive(root)
        for machine in fleet.machines:
            originals = v1.segment_records(machine)
            returned = back.segment_records(machine)
            # v1 encoding is deterministic, so the round-trip reproduces the
            # original stored segments byte for byte.
            for r1, r2 in zip(originals, returned):
                assert v1.stored_bytes_of(r1) == back.stored_bytes_of(r2)

    @pytest.mark.parametrize("streaming", [False, True])
    def test_audits_are_structurally_identical(self, recorded_fleet,
                                               explicit_root, v3_root,
                                               streaming):
        fleet, root = recorded_fleet
        v1_results = _audit_all(fleet, root, streaming)
        for label, other_root in (("v3 explicit", explicit_root),
                                  ("v3", v3_root)):
            other_results = _audit_all(fleet, other_root, streaming)
            for machine in fleet.machines:
                assert v1_results[machine].verdict is Verdict.PASS
                assert v1_results[machine] == other_results[machine], (
                    f"{machine}: v1 and {label} archives audit differently "
                    f"(streaming={streaming})")


class TestMixedFormatIngest:
    @pytest.mark.parametrize("ship_version", ["3-explicit", 3])
    def test_reencoded_shipments_land_in_the_same_archive_state(
            self, recorded_fleet, tmp_path, ship_version):
        """Replaying the fleet's segments as v3 shipments, in either frame
        layout (ingest sniffs the magic), produces an archive that audits
        identically."""
        fleet, root = recorded_fleet
        v1 = LogArchive(root)
        replayed_root = tmp_path / "replayed"
        ingest = AuditIngestService(LogArchive(replayed_root))
        codec = get_codec(3) if ship_version == 3 else ExplicitTypedCodec()
        for machine in fleet.machines:
            for record in v1.segment_records(machine):
                ship(ingest, machine,
                     segment=codec.encode_segment(v1.read_segment(record)),
                     sealed_by_snapshot=record.sealed_by_snapshot)
        assert ingest.stats.segments_rejected == 0
        replayed = LogArchive(replayed_root)
        for machine in fleet.machines:
            assert segment_to_bytes(archived_log(replayed, machine)) == \
                segment_to_bytes(archived_log(v1, machine))

    @pytest.mark.parametrize("magic", [b"AVMLOGB2", b"AVMLOGT3"])
    def test_garbage_shipment_is_quarantined(self, tmp_path, magic):
        ingest = AuditIngestService(LogArchive(tmp_path / "q"))
        ship(ingest, "mallory", segment=magic + b"\x01\x02\x03")
        assert ingest.stats.segments_rejected == 1
        assert any("undecodable segment" in q.reason
                   for q in ingest.quarantine)


class TestAdversaryMatrixAcrossFormats:
    """Archive-mode detection rows are identical whichever format ships."""

    # Detection-relevant CellOutcome fields (everything but the spec echo
    # and the machine-name bookkeeping).
    ROW_FIELDS = ("expect_detection", "detected", "verdict", "phase",
                  "reason", "evidence_verified", "false_accusations",
                  "quarantined_shipments", "equivocation_proof",
                  "expectation_met")

    def test_archive_mode_detection_rows_match(self, monkeypatch):
        from repro.adversary import matrix as matrix_module
        from repro.adversary.catalog import adversary_names, make_adversary
        from repro.adversary.matrix import CellSpec, ScenarioMatrix

        archive_capable = [name for name in adversary_names()
                           if "archive" in make_adversary(name).modes]
        assert archive_capable, "catalog lost its archive-mode adversaries"
        # One control plus the first two archive-observable adversaries
        # keeps the cell count (and runtime) small; seeds fix the content.
        names = (["honest"] if "honest" in archive_capable else []) \
            + [name for name in archive_capable if name != "honest"][:2]
        rows = {}
        for version in (1, 3):
            monkeypatch.setattr(matrix_module, "SHIP_FORMAT_VERSION", version)
            matrix = ScenarioMatrix()
            rows[version] = [
                matrix.run_cell(CellSpec(name, "kv", "archive", 2,
                                         5000 + index))
                for index, name in enumerate(names)]
        for other_version in (3,):
            for v1_cell, other_cell in zip(rows[1], rows[other_version]):
                for field in self.ROW_FIELDS:
                    assert getattr(v1_cell, field) == \
                        getattr(other_cell, field), (
                            f"{v1_cell.spec.label()}: {field} differs "
                            f"between ship formats 1 and {other_version}")
                assert v1_cell.expectation_met


class TestStoredFileTamper:
    """Flipping bytes in stored segments is caught in every format."""

    @pytest.mark.parametrize("format_version", [1, "3-explicit", 3])
    def test_flipped_stored_byte_is_detected(self, recorded_fleet,
                                             explicit_root, v3_root,
                                             tmp_path, format_version):
        fleet, root = recorded_fleet
        if format_version == "3-explicit":  # (no writer to re-encode with)
            shutil.copytree(explicit_root, tmp_path / "tamper-explicit")
            work = LogArchive(tmp_path / "tamper-explicit")
        else:
            work = LogArchive({1: root, 3: v3_root}[format_version]) \
                .reencode_segments(tmp_path / f"tamper-v{format_version}",
                                   format_version=format_version)
        machine = fleet.machines[0]
        record = work.segment_records(machine)[0]
        raw = bytearray(work.stored_bytes_of(record))
        # Flip a byte well inside the body (past magic and header) — with
        # the frame's checksums redone, so that the codec has to catch it.
        raw[len(raw) // 2] ^= 0xFF
        replace_payload(work.root, record, bytes(raw))
        work = LogArchive(work.root)
        with pytest.raises(Exception) as excinfo:
            segment = work.read_segment(record)
            verify_chain_incremental(segment.entries, segment.start_checkpoint())
        assert excinfo.type.__module__.startswith("repro") or \
            isinstance(excinfo.value, (OSError, EOFError, ValueError)), \
            f"unexpected escape: {excinfo.value!r}"


def _rewrite_stored_content(data: bytes, index: int) -> bytes:
    """What an attacker with write access to a segment file can do to a
    short-form blob: alter entry ``index``'s content bytes and re-compress
    validly, touching nothing else (there is no stored hash to fix up)."""
    if sniff_format_version(data) == 1:
        blob = json.loads(bz2.decompress(data[MAGIC_LENGTH:]))
        assert not {"h", "p"} & blob["rows"][index].keys()
        blob["rows"][index]["c"]["rewritten"] = 1
        return data[:MAGIC_LENGTH] + bz2.compress(json.dumps(
            blob, sort_keys=True, separators=(",", ":")).encode("utf-8"), 9)
    header = TypedCodec._header_size(data)
    frames, position = zlib.decompress(data[header:]), 0
    for _ in range(index):
        position += 4 + struct.unpack_from("<I", frames, position)[0]
    (length,) = struct.unpack_from("<I", frames, position)
    payload = frames[position + 4:position + 4 + length]
    sequence, tag, timestamp, _ = struct.unpack_from("<QBdI", payload)
    assert not tag & 0xC0
    content = encode_content({**decode_content(payload[21:]), "rewritten": 1})
    frame = struct.pack("<QBdI", sequence, tag, timestamp,
                        len(content)) + content
    return data[:header] + zlib.compress(
        frames[:position] + struct.pack("<I", len(frame)) + frame
        + frames[position + 4 + length:])


class TestStoredContentRewrite:
    """Stored content altered behind a valid compression stream.

    While every row carried its own ``h`` the rewrite failed the chain check
    *at that entry*.  Now the row decodes into a self-consistent chain — a
    different one — and is refused at the next **pinned** hash instead: the
    frame header's ``end_hash`` when the segment is read, or, if that was
    rewritten to match, the first signed authenticator at or after it.
    Either way before any verdict on the machine's behaviour.
    """

    @pytest.mark.parametrize("format_version", [1, 3])
    def test_refused_at_the_next_pinned_hash(self, recorded_fleet, v3_root,
                                             tmp_path, format_version):
        fleet, root = recorded_fleet
        work_root = tmp_path / f"rewrite-v{format_version}"
        shutil.copytree(root if format_version == 1 else v3_root, work_root)
        machine = fleet.machines[0]
        archive = LogArchive(work_root)
        # The machine's last segment, at an entry a peer holds a signature
        # for: no later file has to be rewritten for the manifest to tile.
        record = archive.segment_records(machine)[-1]
        committed = {auth.sequence
                     for auth in archive.authenticators_for(machine)}
        index = next(i for i, entry
                     in enumerate(archive.read_segment(record).entries)
                     if entry.sequence in committed)
        rewritten = _rewrite_stored_content(
            archive.stored_bytes_of(record), index)
        forked = get_codec(format_version).decode_segment(rewritten)
        verify_chain_incremental(forked.entries, forked.start_checkpoint())  # nothing *inside* the blob contradicts it
        assert forked.end_hash != record.end_hash

        # 1. Frame header intact (checksums redone): refused at its end hash,
        #    on both read paths and therefore by every audit front-end.
        replace_payload(work_root, record, rewritten)
        archive = LogArchive(work_root)
        record = archive.segment_records(machine)[-1]
        with pytest.raises(ArchiveIntegrityError, match="index record"):
            archive.read_segment(record)
        with pytest.raises(ArchiveIntegrityError, match="index record"):
            list(archive.stream_segment(record))
        for streaming in (False, True):
            with pytest.raises(ArchiveIntegrityError):
                _audit_all(fleet, work_root, streaming)

        # 2. Frame header rewritten to match: the archive opens clean, and
        #    the audit convicts at the authenticator check.
        replace_payload(work_root, record, rewritten,
                        end_hash=forked.end_hash)
        reopened = LogArchive(work_root)
        assert reopened.recovery.clean
        assert reopened.segment_records(machine)[-1].end_hash \
            == forked.end_hash
        for streaming in (False, True):
            result = _audit_all(fleet, work_root, streaming)[machine]
            assert result.verdict is Verdict.FAIL
            assert result.phase is AuditPhase.AUTHENTICATOR_CHECK
