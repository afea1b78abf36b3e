"""Tests for the durable log archive and the audit-ingest pipeline.

Unit tests exercise the archive against synthetic logs (round-trips through
compression, crash recovery, corruption, retention GC); the slow fleet tests
prove the acceptance property end to end: a 16-machine fleet archived over
the network, the archive reopened from its manifest, GC applied, and audits
from the archive structurally identical to in-memory audits.
"""

import pickle
import shutil

import pytest

from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.audit.spot_check import SpotChecker
from repro.audit.verdict import Verdict
from repro.crypto import hashing
from repro.errors import (
    ArchiveIntegrityError,
    HashChainError,
    RetentionError,
    StoreError,
)
from repro.log.entries import EntryType, nondet_content, snapshot_content
from repro.log.hashchain import ChainCheckpoint, verify_chain_incremental
from repro.log.segments import LogSegment, split_at_snapshots
from repro.log.tamper_evident import TamperEvidentLog
from repro.service import AuditIngestService, format_ingest_report
from repro.service.fleet import build_fleet
from repro.store import LogArchive
from repro.store.manifest import MANIFEST_NAME
from repro.vm.snapshot import MATERIALIZED_CACHE

from archive_tools import (archived_entry_count, archived_log, archived_segments, replace_payload, scribble, ship)


def build_sealed_log(machine="machine", segments=3, entries_per_segment=6):
    """A synthetic log with SNAPSHOT entries sealing each segment."""
    log = TamperEvidentLog(machine)
    for s in range(segments):
        for i in range(entries_per_segment):
            log.append(EntryType.TIMETRACKER, {
                "event_kind": "clock_read",
                "execution_counter": s * 100 + i,
                "branch_counter": s,
                "value": 0.25 * i,
            })
        log.append(EntryType.SNAPSHOT,
                   snapshot_content(s + 1, bytes([s + 1]) * 32, s * 100))
    return log


def archive_sealed_log(archive, log, with_snapshots=True):
    """Append each snapshot-sealed segment of ``log`` to the archive.

    ``with_snapshots`` also archives a (synthetic) boundary snapshot per
    seal, as the shipping pipeline would — truncation requires the boundary
    snapshot to be present.
    """
    records = []
    for segment in split_at_snapshots(log.full_segment()):
        seals = [entry for entry in segment.entries
                 if entry.entry_type is EntryType.SNAPSHOT]
        sealed_by = None
        if seals and seals[-1] is segment.entries[-1]:
            sealed_by = int(seals[-1].content["snapshot_id"])
            if with_snapshots:
                archive.store_snapshot(
                    log.machine, sealed_by, {"sid": sealed_by},
                    bytes.fromhex(seals[-1].content["state_root"]),
                    500 + sealed_by)
        records.append(archive.append_segment(segment,
                                              sealed_by_snapshot=sealed_by))
    return records


class TestArchiveRoundTrip:
    def test_segments_roundtrip_bit_exact(self, tmp_path):
        log = build_sealed_log()
        archive = LogArchive(tmp_path / "a")
        archive_sealed_log(archive, log)
        assert archived_log(archive, "machine").entries == log.entries
        assert [s.entries for s in archived_segments(archive, "machine")] == \
            [s.entries for s in split_at_snapshots(log.full_segment())]

    def test_reopen_from_manifest(self, tmp_path):
        log = build_sealed_log()
        archive_sealed_log(archive=LogArchive(tmp_path / "a"), log=log)
        reopened = LogArchive(tmp_path / "a")
        assert reopened.recovery.clean
        assert reopened.recovery.machines == 1
        assert archived_entry_count(reopened, "machine") == len(log)
        assert archived_log(reopened, "machine").entries == log.entries
        assert reopened.head_checkpoint("machine").chain_hash == log.head_hash

    def test_deep_verify_on_open(self, tmp_path):
        archive_sealed_log(LogArchive(tmp_path / "a"), build_sealed_log())
        assert LogArchive(tmp_path / "a", deep_verify=True).recovery.clean

    def test_an_unarchived_machine_has_no_log_segment(self, tmp_path):
        archive = LogArchive(tmp_path / "a")
        archive_sealed_log(archive, build_sealed_log())
        assert archived_log(archive, "machine").entries
        with pytest.raises(StoreError, match="no archived segments"):
            archived_log(archive, "stranger")

    def test_rejects_noncontiguous_and_forked_segments(self, tmp_path):
        log = build_sealed_log()
        archive = LogArchive(tmp_path / "a")
        segments = list(split_at_snapshots(log.full_segment()))
        archive.append_segment(segments[0], sealed_by_snapshot=1)
        with pytest.raises(HashChainError):
            archive.append_segment(segments[2])  # gap
        with pytest.raises(HashChainError):
            archive.append_segment(segments[0])  # replay/fork
        with pytest.raises(StoreError):
            archive.append_segment(LogSegment(machine="machine", entries=[],
                                              start_hash=b"\0" * 32))

    def test_rejects_tampered_chain_at_ingest(self, tmp_path):
        log = build_sealed_log(segments=1)
        # Replace an entry's content without recomputing the chain: the
        # shipment is internally inconsistent and must be refused.
        log.tamper_replace_entry(3, {"forged": True})
        with pytest.raises(HashChainError):
            LogArchive(tmp_path / "a").append_segment(log.full_segment())

    def test_authenticator_batches_keep_order(self, tmp_path, ca):
        alice = ca.issue("alice")
        log = TamperEvidentLog("alice", keypair=alice)
        auths = []
        for i in range(6):
            entry = log.append(EntryType.NONDET, nondet_content("x", i))
            auths.append(log.authenticator_for(entry))
        archive = LogArchive(tmp_path / "a")
        archive.store_authenticators("alice", auths[:4])
        archive.store_authenticators("alice", auths[4:])
        assert archive.authenticators_for("alice") == auths
        assert LogArchive(tmp_path / "a").authenticators_for("alice") == auths

    def test_snapshot_roundtrip_verifies_merkle_root(self, tmp_path):
        from repro.vm.execution import ExecutionTimestamp
        from repro.vm.snapshot import SnapshotManager
        manager = SnapshotManager()
        snapshot = manager.take({"counter": 7, "board": [1, 2, 3]},
                                ExecutionTimestamp(10, 2))
        archive = LogArchive(tmp_path / "a")
        archive.store_snapshot("m", snapshot.snapshot_id, snapshot.state,
                               snapshot.state_root,
                               manager.transfer_cost_bytes(snapshot.snapshot_id),
                               execution=snapshot.execution.to_dict())
        restored = LogArchive(tmp_path / "a").load_snapshot("m", 1)
        assert restored.state == snapshot.state
        assert restored.state_root == snapshot.state_root
        assert restored.verify_root()
        store = LogArchive(tmp_path / "a").snapshot_store("m")
        assert store.transfer_cost_bytes(1) == \
            manager.transfer_cost_bytes(snapshot.snapshot_id)


class TestCrashRecoveryAndCorruption:
    """What opening finds on disk (tests/test_crash_matrix.py enumerates how
    a crash gets it there)."""

    def test_orphan_files_are_discarded(self, tmp_path):
        root = tmp_path / "a"
        archive_sealed_log(LogArchive(root), build_sealed_log())
        orphans = {
            # a generation whose checkpoint never landed, two torn atomic
            # writes
            "machine/frames-000099.avmf": b"half a generation",
            "machine/frames-000099.avmf.tmp": b"half a",
            MANIFEST_NAME + ".tmp": b"{ torn manifest write"}
        for name, data in orphans.items():
            (root / name).write_bytes(data)
        reopened = LogArchive(root)
        assert sorted(reopened.recovery.orphan_files) == sorted(orphans)
        assert not reopened.recovery.clean
        assert not any((root / name).exists() for name in orphans)
        assert archived_log(reopened, "machine").entries
        assert LogArchive(root).recovery.clean

    def test_foreign_files_are_never_deleted(self, tmp_path):
        root = tmp_path / "a"
        archive_sealed_log(LogArchive(root), build_sealed_log())
        foreign = root / "machine" / "notes.txt"
        foreign.write_text("not the archive's file", encoding="utf-8")
        top_level = root / "README"
        top_level.write_text("also not ours", encoding="utf-8")
        # ... nor what per-record archives held: the archive writes none
        older = [root / "machine" / "segment-00000001-00000004.avmlogz",
                 root / "machine" / "auths-000001.jsonl.bz2",
                 root / "MANIFEST.journal"]
        for path in older:
            path.write_bytes(b"an older archive's")
        reopened = LogArchive(root)
        assert reopened.recovery.orphan_files == []
        assert foreign.exists() and top_level.exists()
        assert all(path.exists() for path in older)

    def test_deep_verify_catches_forged_content_with_kept_hashes(self, tmp_path):
        from repro.log.codec import JsonBz2Codec
        from repro.log.entries import LogEntry
        root = tmp_path / "a"
        archive = LogArchive(root)
        records = archive_sealed_log(archive, build_sealed_log())
        # Forge an entry's *content* inside the frame while keeping the
        # recorded chain-hash fields, so all metadata still matches (and
        # redo the frame's checksums, as someone who can write the file can).
        compressor = JsonBz2Codec()
        segment = compressor.decode_segment(archive.stored_bytes_of(records[0]))
        victim = segment.entries[1]
        segment.entries[1] = LogEntry(
            sequence=victim.sequence, entry_type=victim.entry_type,
            content={"forged": True}, chain_hash=victim.chain_hash,
            previous_hash=victim.previous_hash, timestamp=victim.timestamp)
        replace_payload(root, records[0], compressor.encode_segment(segment))
        assert LogArchive(root).recovery.clean  # metadata-only open passes
        with pytest.raises(ArchiveIntegrityError, match="hash-chain"):
            LogArchive(root, deep_verify=True)

    def test_missing_frame_file_is_detected(self, tmp_path):
        root = tmp_path / "a"
        records = archive_sealed_log(LogArchive(root), build_sealed_log())
        (root / records[1].file_name).unlink()
        with pytest.raises(ArchiveIntegrityError, match="missing"):
            LogArchive(root)

    def test_file_of_another_machine_is_refused(self, tmp_path):
        root = tmp_path / "a"
        archive = LogArchive(root)
        records = archive_sealed_log(archive, build_sealed_log())
        other = archive_sealed_log(archive, build_sealed_log(machine="other"))
        (root / records[0].file_name).write_bytes(
            (root / other[0].file_name).read_bytes())
        with pytest.raises(ArchiveIntegrityError, match="'machine'"):
            LogArchive(root)

    def test_damaged_payload_is_detected(self, tmp_path):
        root = tmp_path / "a"
        records = archive_sealed_log(LogArchive(root), build_sealed_log())
        scribble(root, records[0], b"\xff", at=records[0].stored_bytes // 2)
        archive = LogArchive(root)  # payloads are not read at open...
        assert archive.recovery.clean
        with pytest.raises(ArchiveIntegrityError):  # ...reading is checked
            archive.read_segment(records[0])
        with pytest.raises(ArchiveIntegrityError):
            list(archive.stream_segment(records[0]))
        with pytest.raises(ArchiveIntegrityError):
            LogArchive(root, deep_verify=True)

    def test_corrupt_manifest_is_detected(self, tmp_path):
        root = tmp_path / "a"
        archive_sealed_log(LogArchive(root), build_sealed_log())
        (root / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(ArchiveIntegrityError):
            LogArchive(root)

    def test_manifest_is_compact_and_an_indented_one_still_opens(self, tmp_path):
        # Written through json's C encoder (no indent); it names files and
        # anchors, no record.
        import json
        root = tmp_path / "a"
        archive = LogArchive(root)
        archive_sealed_log(archive, build_sealed_log())
        path = root / MANIFEST_NAME
        text = path.read_text(encoding="utf-8")
        assert "\n" not in text and '": ' not in text
        assert json.loads(text) == {
            "format_version": 3, "kind": "avm_log_archive", "generation": 1,
            "machines": {"machine": {"file": "machine/frames-000001.avmf",
                                     "retained": None}}}
        before = archived_log(LogArchive(root), "machine")
        path.write_text(json.dumps(json.loads(text), indent=1, sort_keys=True),
                        encoding="utf-8")
        reopened = LogArchive(root)
        assert reopened.recovery.clean
        assert archived_log(reopened, "machine") == before

    def test_corrupt_auth_batch_is_detected(self, tmp_path, ca):
        root = tmp_path / "a"
        alice = ca.issue("alice")
        log = TamperEvidentLog("alice", keypair=alice)
        entry = log.append(EntryType.NONDET, nondet_content("x", 1))
        archive = LogArchive(root)
        record = archive.store_authenticators(
            "alice", [log.authenticator_for(entry)])
        scribble(root, record, b"not a batch at all")
        with pytest.raises(ArchiveIntegrityError,
                           match="corrupt authenticator batch"):
            LogArchive(root).authenticators_for("alice")

    def test_machine_names_with_one_sanitised_form_get_a_file_each(
            self, tmp_path):
        root = tmp_path / "a"
        archive = LogArchive(root)
        for machine in ("a/b", "a_b"):
            archive_sealed_log(archive, build_sealed_log(machine=machine))
        reopened = LogArchive(root)
        assert reopened.recovery.clean and reopened.machines() == ["a/b", "a_b"]
        for machine in ("a/b", "a_b"):
            assert archived_log(reopened, machine).machine == machine


class TestRetentionGC:
    def test_truncate_rewrites_the_file_and_survives_reopen(self, tmp_path):
        root = tmp_path / "a"
        log = build_sealed_log(segments=4)
        archive = LogArchive(root)
        records = archive_sealed_log(archive, log)
        before = root / records[0].file_name
        size_before = before.stat().st_size
        assert {record.file_name for record in records} == \
            {"machine/frames-000001.avmf"}
        checkpoint = archive.truncate("machine", records[1].last_sequence)
        assert checkpoint.sequence == records[1].last_sequence
        # The retained frames moved to the next generation's file; the one
        # they came from is gone, and so is what it alone held.
        kept = archive.segment_records("machine")
        assert {record.file_name for record in kept} == \
            {"machine/frames-000002.avmf"}
        assert not before.exists()
        assert (root / kept[0].file_name).stat().st_size < size_before
        reopened = LogArchive(root)
        assert reopened.recovery.clean
        assert reopened.segment_records("machine") == kept
        assert reopened.retained_checkpoint("machine") == checkpoint
        suffix = archived_log(reopened, "machine")
        assert suffix.first_sequence == checkpoint.sequence + 1
        verify_chain_incremental(suffix.entries, suffix.start_checkpoint())

    def test_truncate_lands_on_sealed_boundary(self, tmp_path):
        log = build_sealed_log(segments=3, entries_per_segment=6)
        archive = LogArchive(tmp_path / "a")
        records = archive_sealed_log(archive, log)
        # Mid-segment request rounds *down* to the previous sealed boundary.
        checkpoint = archive.truncate("machine",
                                      records[1].last_sequence - 2)
        assert checkpoint.sequence == records[0].last_sequence

    def test_truncate_noop_without_boundary(self, tmp_path):
        archive = LogArchive(tmp_path / "a")
        records = archive_sealed_log(archive, build_sealed_log())
        checkpoint = archive.truncate("machine",
                                      records[0].last_sequence - 1)
        assert checkpoint.sequence == 0
        assert archived_entry_count(archive, "machine") == \
            sum(record.entry_count for record in records)

    def test_truncate_skips_boundary_whose_snapshot_is_missing(self, tmp_path):
        # The snapshot shipments were lost: sealed segments exist but no
        # boundary snapshot is archived, so GC must refuse to strand the
        # suffix without a replay start.
        archive = LogArchive(tmp_path / "a")
        records = archive_sealed_log(archive, build_sealed_log(),
                                     with_snapshots=False)
        checkpoint = archive.truncate("machine", records[-1].last_sequence)
        assert checkpoint.sequence == 0
        assert archived_entry_count(archive, "machine") == \
            sum(record.entry_count for record in records)

    def test_truncate_regression_rejected(self, tmp_path):
        archive = LogArchive(tmp_path / "a")
        records = archive_sealed_log(archive, build_sealed_log())
        archive.truncate("machine", records[1].last_sequence)
        with pytest.raises(RetentionError):
            archive.truncate("machine", records[0].last_sequence)

    def test_retention_checkpoint_adoption_guards_forks(self, tmp_path):
        empty = LogArchive(tmp_path / "dst")
        anchor = ChainCheckpoint(sequence=10,
                                 chain_hash=hashing.hash_bytes(b"anchor"))
        empty.adopt_retention_checkpoint("m", anchor)
        empty.adopt_retention_checkpoint("m", anchor)  # idempotent-if-equal
        assert empty.retained_checkpoint("m") == anchor
        conflicting = ChainCheckpoint(
            sequence=10, chain_hash=hashing.hash_bytes(b"other"))
        with pytest.raises(RetentionError):
            empty.adopt_retention_checkpoint("m", conflicting)

    def test_no_retention_checkpoint_is_adopted_under_archived_segments(
            self, tmp_path):
        archive = LogArchive(tmp_path / "a")
        records = archive_sealed_log(archive, build_sealed_log())
        with pytest.raises(RetentionError, match="already archived"):
            archive.adopt_retention_checkpoint(
                "machine", records[0].end_checkpoint())
        assert archive.retained_checkpoint("machine") is None

    def test_copying_snapshots_skips_what_the_destination_holds(
            self, tmp_path):
        source = LogArchive(tmp_path / "src")
        archive_sealed_log(source, build_sealed_log())
        destination = LogArchive(tmp_path / "dst")
        assert source.copy_snapshots_to(destination, "machine") == 3
        assert source.copy_snapshots_to(destination, "machine") == 0
        assert destination.snapshot_store("machine").snapshot_ids() == \
            source.snapshot_store("machine").snapshot_ids() == [1, 2, 3]

    def test_gc_keeps_boundary_snapshot_and_auths_in_range(self, tmp_path, ca):
        key = ca.issue("machine")
        log = TamperEvidentLog("machine", keypair=key)
        auths = []
        for s in range(3):
            for i in range(4):
                entry = log.append(EntryType.NONDET, nondet_content("x", i))
                auths.append(log.authenticator_for(entry))
            log.append(EntryType.SNAPSHOT,
                       snapshot_content(s + 1, bytes([s + 1]) * 32, s))
        archive = LogArchive(tmp_path / "a")
        from repro.crypto.merkle import MerkleTree
        from repro.vm.snapshot import paginate, serialize_state
        records = archive_sealed_log(archive, log, with_snapshots=False)
        for auth in auths:
            archive.store_authenticators("machine", [auth])
        for sid in (1, 2, 3):
            state = {"s": sid}
            root = MerkleTree(paginate(serialize_state(state))).root
            archive.store_snapshot("machine", sid, state, root, 1000 + sid)
        checkpoint = archive.truncate("machine", records[1].last_sequence)
        # Batches entirely below the checkpoint are gone; the rest survive.
        survivors = archive.authenticators_for("machine")
        assert survivors == [a for a in auths if a.sequence > checkpoint.sequence]
        # The boundary snapshot (id 2) is retained as the replay start.
        assert archive.snapshot_store("machine").snapshot_ids() == [2, 3]
        state, transfer = archive.initial_state_for("machine")
        assert state == {"s": 2} and transfer == 1002


class TestIngestService:
    def test_direct_ingest_and_queue(self, tmp_path):
        log = build_sealed_log()
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        for segment in split_at_snapshots(log.full_segment()):
            assert service.ingest_segment(segment)
        assert service.pending_machines() == ["machine"]
        assert service.pending_segments("machine") == 3
        assert service.stats.entries_ingested == len(log)
        assert not service.quarantine

    def test_tampered_shipment_is_quarantined(self, tmp_path):
        log = build_sealed_log()
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        segments = list(split_at_snapshots(log.full_segment()))
        assert service.ingest_segment(segments[0])
        assert not service.ingest_segment(segments[2])  # gap == fork attempt
        assert service.stats.segments_rejected == 1
        assert service.quarantine[0].machine == "machine"
        # The archive is untouched by the rejected shipment.
        assert archived_entry_count(service.archive, "machine") == len(segments[0].entries)

    def test_garbage_network_payloads_quarantine_not_crash(self, tmp_path):
        from repro.log.codec import JsonBz2Codec
        from repro.network.message import MessageKind, NetworkMessage
        from repro.network.shipment import PartKind, ShipmentPart
        from archive_tools import shipment
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        garbage = [
            # bad magic, truncated bz2 stream, undecodable bytes
            ShipmentPart(PartKind.SEGMENT, b"not compressed"),
            ShipmentPart(PartKind.SEGMENT,
                         JsonBz2Codec.MAGIC + b"\x00\x01garbage"),
            ShipmentPart(PartKind.AUTHENTICATORS, b"\xff\xfe\xfd",
                         subject="m"),
            ShipmentPart(PartKind.SNAPSHOT, b"{not json"),
            ShipmentPart(PartKind.SNAPSHOT, b'{"snapshot_id": 1}'),
        ]
        # ... and for both packed blob kinds: garbage, truncated, wrong
        # magic, and a well-formed delta whose base never came.
        from repro.log.storage import authenticators_to_bytes
        from repro.vm.execution import ExecutionTimestamp
        from repro.vm.snapshot import SnapshotManager
        manager = SnapshotManager()
        for step in range(2):
            manager.take({"rows": ["x" * 200], "step": step},
                         ExecutionTimestamp(step, step))
        page_file = manager.ship_payload(1)
        log = build_sealed_log(segments=1)
        batch = authenticators_to_bytes(
            [log.authenticator_for(entry) for entry in log.entries])
        for kind, blob in ((PartKind.SNAPSHOT, page_file),
                           (PartKind.AUTHENTICATORS, batch)):
            garbage += [
                ShipmentPart(kind, payload, subject="m")
                for payload in (blob[:8] + b"\x00\xffgarbage",
                                blob[:len(blob) // 2],
                                blob[:7] + b"9" + blob[8:])]
        garbage.append(ShipmentPart(PartKind.SNAPSHOT, manager.ship_payload(2)))
        # one at a time, then all of them in one shipment: never raises,
        # each part is refused on its own
        for part in garbage:
            service.on_message(shipment("m", parts=[part]))
        assert len(service.quarantine) == len(garbage)
        # (a shipment holds one segment and one batch per subject)
        from dataclasses import replace
        together = [replace(part, subject=f"m{index}") for index, part
                    in enumerate(garbage[1:])]
        service.on_message(shipment("m", parts=together))
        refused = len(garbage) + len(together)
        assert len(service.quarantine) == refused
        # ... and so is a container that is not one, and another kind
        for payload in (b"", b"AVMSHIP1", b"AVMSHIP1\xff\xff\x03",
                        shipment("m", parts=garbage).payload,  # two segments
                        shipment("m", parts=together).payload + b"\0"):
            service.on_message(NetworkMessage(
                "m", "audit-ingest", payload,
                kind=MessageKind.ARCHIVE_SHIPMENT))
        assert len(service.quarantine) == refused + 5
        assert "undecodable shipment" in service.quarantine[-1].reason
        service.on_message(NetworkMessage("m", "audit-ingest", b"hello"))
        assert len(service.quarantine) == refused + 5
        assert service.archive.machines() == []
        assert not (tmp_path / "a" / MANIFEST_NAME).exists()

    def test_a_refused_part_does_not_take_the_shipment_with_it(self, tmp_path):
        from repro.log.codec import encode_segment
        from repro.log.storage import authenticators_to_bytes
        log = build_sealed_log(segments=2)
        first, second = list(split_at_snapshots(log.full_segment()))
        auths = [log.authenticator_for(entry) for entry in log.entries]
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        ship(service, "machine", segment=encode_segment(first),
             snapshots=[b"not a page file"], sealed_by_snapshot=1,
             authenticators={"machine": authenticators_to_bytes(auths[:3])})
        assert [q.reason[:20] for q in service.quarantine] == \
            ["undecodable snapshot"]
        reopened = LogArchive(tmp_path / "a")
        assert archived_entry_count(reopened, "machine") == len(first.entries)
        assert reopened.authenticators_for("machine") == auths[:3]
        # ... the segment is sealed by a snapshot the archive does not hold:
        # not a GC boundary
        assert reopened.segment_records("machine")[0].sealed_by_snapshot == 1
        assert reopened.truncate("machine", first.last_sequence).sequence == 0
        # ... and a refused segment leaves the batch that rode with it
        ship(service, "machine", segment=b"garbage",
             authenticators={"machine": authenticators_to_bytes(auths[3:5])})
        ship(service, "machine", segment=encode_segment(second))
        assert len(service.quarantine) == 2 and service.stats.segments_rejected == 1
        reopened = LogArchive(tmp_path / "a")
        assert reopened.recovery.clean
        assert archived_log(reopened, "machine").entries == log.entries
        assert reopened.authenticators_for("machine") == auths[:5]

    def test_claimed_identity_mismatch_is_quarantined(self, tmp_path):
        from repro.log.codec import JsonBz2Codec
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        segment = build_sealed_log(segments=1).full_segment()
        ship(service, "impostor",
             segment=JsonBz2Codec().encode_segment(segment))
        assert service.stats.segments_rejected == 1
        assert "claims to be from" in service.quarantine[0].reason

    # -- shipments stored as they arrived (no second encode) ----------------

    @staticmethod
    def _ship(service, blob, source="machine"):
        ship(service, source, segment=blob)

    @staticmethod
    def _stored(archive, machine="machine"):
        return [archive.stored_bytes_of(record)
                for record in archive.segment_records(machine)]

    @pytest.mark.parametrize("version", [1, 3])
    def test_matching_format_shipment_is_stored_as_shipped(self, tmp_path,
                                                           version):
        from repro.log.codec import encode_segment
        segment = build_sealed_log(segments=1).full_segment()
        blob = encode_segment(segment, version)
        service = AuditIngestService(LogArchive(
            tmp_path / "a", format_version=version))
        self._ship(service, blob)
        assert not service.quarantine
        assert self._stored(service.archive) == [blob]
        # ... and it reads back, one-shot and streamed, as what was shipped.
        reopened = LogArchive(tmp_path / "a")
        record = reopened.segment_records("machine")[0]
        assert reopened.read_segment(record).entries == segment.entries
        assert list(reopened.stream_segment(record)) == segment.entries

    def test_other_format_shipment_is_reencoded(self, tmp_path):
        from repro.log.codec import encode_segment
        segment = build_sealed_log(segments=1).full_segment()
        service = AuditIngestService(LogArchive(tmp_path / "a", format_version=1))
        self._ship(service, encode_segment(segment, 3))
        assert not service.quarantine
        assert self._stored(service.archive) == [encode_segment(segment, 1)]

    def test_uncompressed_v3_shipment_is_stored_in_the_archives_layout(
            self, tmp_path):
        from repro.log.codec import encode_segment
        from codec_tools import per_frame_v3_blob
        segment = build_sealed_log(segments=1).full_segment()
        raw_frames = per_frame_v3_blob(segment)
        service = AuditIngestService(LogArchive(tmp_path / "a", format_version=3))
        self._ship(service, raw_frames)
        assert not service.quarantine
        # Same magic, but not what the archive's codec writes: re-encoded,
        # so the shipper does not get to pick the stored size.
        assert self._stored(service.archive) == [encode_segment(segment, 3)]

    @pytest.mark.parametrize("explicit", [False, True])
    def test_per_frame_v3_shipment_is_stored_as_one_stream(self, tmp_path,
                                                           explicit):
        """Each frame deflated on its own — what v3 writers shipped before
        the one stream (``explicit``: and before the chain was stored only
        at its breaks) — is read, never stored: the archive re-encodes it,
        and it reads back as the same entries and the same chain."""
        from repro.log.codec import (TypedCodec, V3_FLAG_CHAIN_BREAKS_ONLY,
                                     V3_FLAG_ONE_STREAM, encode_segment)
        from codec_tools import per_frame_v3_blob
        segment = build_sealed_log(segments=1).full_segment()
        per_frame = per_frame_v3_blob(segment, compress=True,
                                      explicit=explicit)
        service = AuditIngestService(LogArchive(tmp_path / "a", format_version=3))
        self._ship(service, per_frame)
        assert not service.quarantine
        (stored,) = self._stored(service.archive)
        assert stored == encode_segment(segment, 3)
        assert TypedCodec._unpack_header(memoryview(stored))[2] == \
            V3_FLAG_CHAIN_BREAKS_ONLY | V3_FLAG_ONE_STREAM
        reopened = LogArchive(tmp_path / "a")
        (record,) = reopened.segment_records("machine")
        assert reopened.read_segment(record).entries == segment.entries
        assert list(reopened.stream_segment(record)) == segment.entries
        log = archived_log(reopened, "machine")
        assert verify_chain_incremental(
            log.entries, log.start_checkpoint()).chain_hash == \
            segment.entries[-1].chain_hash == record.end_hash

    def test_junk_padded_v3_frames_are_quarantined(self, tmp_path):
        import struct
        from repro.log.codec import TypedCodec, decode_segment
        from repro.errors import LogFormatError
        from codec_tools import PerFrameTypedCodec
        segment = build_sealed_log(segments=1).full_segment()
        blob = PerFrameTypedCodec().encode_segment(segment)
        body = TypedCodec._unpack_header(memoryview(blob))[4]
        padded, position = bytearray(blob[:body]), body
        while position < len(blob):
            (length,) = struct.unpack_from("<I", blob, position)
            frame = blob[position + 4:position + 4 + length] + b"junk"
            padded += struct.pack("<I", len(frame)) + frame
            position += 4 + length
        # zlib's one-shot inflate would skip the junk; the decoder must not,
        # or a shipper could grow the archive with bytes nobody decodes.
        with pytest.raises(LogFormatError, match="exactly one zlib stream"):
            decode_segment(bytes(padded))
        service = AuditIngestService(LogArchive(tmp_path / "a", format_version=3))
        self._ship(service, bytes(padded))
        assert "undecodable segment" in service.quarantine[0].reason
        assert service.archive.machines() == []

    @pytest.mark.parametrize("mutate", [
        lambda blob: blob + b"trailing junk",
        lambda blob: blob + blob[8:],  # a second bzip2 stream
    ])
    def test_v1_shipment_with_bytes_after_its_stream_is_quarantined(
            self, tmp_path, mutate):
        from repro.log.codec import encode_segment
        segment = build_sealed_log(segments=1).full_segment()
        service = AuditIngestService(LogArchive(tmp_path / "a", format_version=1))
        self._ship(service, mutate(encode_segment(segment, 1)))
        assert "undecodable segment" in service.quarantine[0].reason
        assert service.archive.machines() == []

    def test_v1_shipment_in_a_non_canonical_json_layout_is_quarantined(
            self, tmp_path):
        import bz2
        import json
        from repro.log.codec import JsonBz2Codec, encode_segment
        segment = build_sealed_log(segments=1).full_segment()
        blob = encode_segment(segment, 1)
        text = json.loads(bz2.decompress(blob[8:]))
        spaced = JsonBz2Codec.MAGIC + bz2.compress(
            json.dumps(text, sort_keys=True, indent=1).encode("utf-8"), 9)
        service = AuditIngestService(LogArchive(tmp_path / "a", format_version=1))
        self._ship(service, spaced)
        # The streaming decoder scans the encoder's compact layout; bytes it
        # could not read back must never reach the archive.
        assert "undecodable segment" in service.quarantine[0].reason

    def test_pending_queue_fills_on_shipment_and_drains_on_audit(
            self, tmp_path):
        fleet = build_fleet(num_machines=2, duration=2.0,
                            snapshot_interval=1.0,
                            archive=LogArchive(tmp_path / "a"))
        service = fleet.ingest
        assert service.pending_machines() == sorted(fleet.machines)
        for machine in fleet.machines:
            assert service.pending_segments(machine) == \
                len(archived_segments(service.archive, machine))
        results = service.audit_pending(
            lambda machine: fleet.make_auditor(machine, collect=False))
        assert sorted(results) == sorted(fleet.machines)
        assert all(result.ok for result in results.values())
        assert service.pending_machines() == []
        assert service.audit_pending(fleet.make_auditor) == {}

    def test_audit_machine_checks_the_archived_authenticators(self, tmp_path):
        # The auditor starts empty-handed: every commitment it checks came
        # out of the archive.
        fleet = build_fleet(num_machines=2, duration=1.0,
                            snapshot_interval=0.5,
                            archive=LogArchive(tmp_path / "a"))
        for machine in fleet.machines:
            held = fleet.ingest.archive.authenticators_for(machine)
            result = fleet.ingest.audit_machine(
                fleet.make_auditor(machine, collect=False), machine)
            assert result.ok
            assert result.authenticators_checked == len(held) > 0

    def test_two_services_keep_their_own_state(self, tmp_path):
        log = build_sealed_log()
        segments = list(split_at_snapshots(log.full_segment()))
        first = AuditIngestService(LogArchive(tmp_path / "a"),
                                   identity="ingest-a")
        second = AuditIngestService(LogArchive(tmp_path / "b"),
                                    identity="ingest-b")
        assert first.ingest_segment(segments[0])
        assert first.ingest_segment(segments[1])
        assert not second.ingest_segment(segments[2])  # no chain to extend
        assert first.pending_segments("machine") == 2
        assert first.stats.segments_ingested == 2
        assert not first.quarantine and first.stats.segments_rejected == 0
        assert second.pending_machines() == []
        assert second.stats.segments_ingested == 0
        assert second.quarantined_machines() == ["machine"]
        assert archived_entry_count(first.archive, "machine") == \
            len(segments[0].entries) + len(segments[1].entries)

    def test_format_ingest_report_lists_machines(self, tmp_path):
        log = build_sealed_log()
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        for segment in split_at_snapshots(log.full_segment()):
            service.ingest_segment(segment)
        report = format_ingest_report(service)
        assert "machine" in report and "segments" in report


class TestReopenedQueue:
    """The audit queue is not stored: a service opened over an archive
    rebuilds it from the segment index, one count per segment record of
    every machine that has any."""

    @pytest.mark.parametrize("engine", [None, 2], ids=["default", "2-workers"])
    def test_a_reopened_service_still_owes_every_archived_machine_an_audit(
            self, tmp_path, engine):
        fleet = build_fleet(num_machines=4, duration=1.5,
                            snapshot_interval=0.5,
                            archive=LogArchive(tmp_path / "a"))
        reopened = AuditIngestService(LogArchive(tmp_path / "a"))
        assert reopened.pending_machines() == fleet.machines
        for machine in fleet.machines:
            assert reopened.pending_segments(machine) == \
                fleet.ingest.pending_segments(machine) == \
                len(reopened.archive.segment_records(machine))
        results = reopened.audit_pending(
            lambda machine: fleet.make_auditor(machine, collect=False),
            engine=engine and AuditScheduler(workers=engine,
                                             executor="process"))
        assert sorted(results) == fleet.machines
        assert all(result.ok for result in results.values())
        assert reopened.pending_machines() == []

    def test_a_machine_audited_before_a_restart_is_queued_again(
            self, tmp_path):
        fleet = build_fleet(num_machines=2, duration=1.0,
                            snapshot_interval=0.5,
                            archive=LogArchive(tmp_path / "a"))
        audited, waiting = fleet.machines
        assert fleet.ingest.audit_machine(
            fleet.make_auditor(audited, collect=False), audited).ok
        assert fleet.ingest.pending_machines() == [waiting]
        reopened = AuditIngestService(LogArchive(tmp_path / "a"))
        assert reopened.pending_machines() == fleet.machines

    @pytest.mark.parametrize("format_version", [1, 3])
    def test_every_archived_segment_is_queued(self, tmp_path, format_version):
        archive_sealed_log(LogArchive(tmp_path / "a",
                                      format_version=format_version),
                           build_sealed_log())
        service = AuditIngestService(
            LogArchive(tmp_path / "a", format_version=format_version))
        assert service.pending_machines() == ["machine"]
        assert service.pending_segments("machine") == 3

    def test_an_empty_archive_queues_nothing(self, tmp_path):
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        assert service.pending_machines() == []

    def test_ingest_after_a_reopen_adds_to_the_rebuilt_count(self, tmp_path):
        segments = list(split_at_snapshots(build_sealed_log().full_segment()))
        first = AuditIngestService(LogArchive(tmp_path / "a"))
        assert first.ingest_segment(segments[0])
        assert first.ingest_segment(segments[1])
        reopened = AuditIngestService(LogArchive(tmp_path / "a"))
        assert not reopened.ingest_segment(segments[0])  # not the head
        assert reopened.ingest_segment(segments[2])
        assert reopened.pending_segments("machine") == 3

    def test_a_machine_known_only_by_authenticators_is_not_queued(
            self, tmp_path, ca):
        issuer = TamperEvidentLog("issuer", keypair=ca.issue("issuer"))
        entry = issuer.append(EntryType.NONDET, nondet_content("x", 1))
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        for segment in split_at_snapshots(build_sealed_log().full_segment()):
            assert service.ingest_segment(segment)
        service.ingest_authenticators("issuer",
                                      [issuer.authenticator_for(entry)])
        reopened = AuditIngestService(LogArchive(tmp_path / "a"))
        assert reopened.archive.machines() == ["issuer", "machine"]
        assert reopened.pending_machines() == ["machine"]

    def test_a_quarantined_machine_without_segments_is_not_queued(
            self, tmp_path):
        segments = list(split_at_snapshots(build_sealed_log().full_segment()))
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        assert not service.ingest_segment(segments[1])  # extends no chain
        reopened = AuditIngestService(LogArchive(tmp_path / "a"))
        assert reopened.quarantined_machines() == ["machine"]
        assert reopened.pending_machines() == []

    def test_a_truncated_machine_is_queued_with_its_retained_segments(
            self, tmp_path):
        archive = LogArchive(tmp_path / "a")
        records = archive_sealed_log(archive, build_sealed_log(segments=4))
        archive.truncate("machine", records[1].last_sequence)
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        assert service.pending_segments("machine") == 2

    def test_a_torn_tail_is_cut_before_the_queue_is_built(self, tmp_path):
        records = archive_sealed_log(LogArchive(tmp_path / "a"),
                                     build_sealed_log())
        frames = tmp_path / "a" / records[-1].file_name
        with open(frames, "r+b") as handle:  # the last commit record, torn
            handle.truncate(frames.stat().st_size - 3)
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        assert service.archive.recovery.torn_tails
        assert service.pending_segments("machine") == 2


class TestArchivePicklableLog:
    def test_archived_entries_pickle_for_worker_pools(self, tmp_path):
        archive = LogArchive(tmp_path / "a")
        archive_sealed_log(archive, build_sealed_log())
        segment = archived_log(archive, "machine")
        assert pickle.loads(pickle.dumps(segment)).entries == segment.entries


# ---------------------------------------------------------------------------
# Every front-end audits the same recording the same way twice
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_archived_fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("repeat-fleet") / "archive"
    fleet = build_fleet(num_machines=4, duration=6.0,
                        snapshot_interval=2.0, archive=LogArchive(root))
    return fleet, root


def _serial(fleet, root):
    machine = fleet.machines[0]
    return [fleet.make_auditor(machine).audit(fleet.monitors[machine])]


def _archive(fleet, root):
    service = AuditIngestService(LogArchive(root))  # a reopened archive
    return [service.audit_machine(fleet.make_auditor(machine, collect=False),
                                  machine)
            for machine in fleet.machines]


def _engine(fleet, root):
    report = AuditScheduler(workers=2, executor="process").audit_fleet(
        fleet.assignments())
    return [report.results[machine] for machine in fleet.machines]


def _spot_check(fleet, root):
    machine = fleet.machines[0]
    return [chunk.result for chunk in SpotChecker(fleet.make_auditor(machine))
            .check_all_chunks(fleet.monitors[machine], k=1)]


class TestFrontEndsRepeat:
    """An audit result is a function of the recording: a second audit by a
    fresh auditor equals the first field for field, on every front-end."""

    @pytest.mark.parametrize("front_end", [_serial, _archive, _engine,
                                           _spot_check],
                             ids=["serial", "archive", "engine", "spot-check"])
    def test_second_audit_equals_the_first(self, small_archived_fleet,
                                           front_end):
        fleet, root = small_archived_fleet
        first = front_end(fleet, root)
        assert first and all(result.ok for result in first)
        assert front_end(fleet, root) == first


# ---------------------------------------------------------------------------
# Fleet-scale end-to-end (the acceptance scenario)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def archived_fleet(tmp_path_factory):
    """A 16-machine fleet recorded while streaming to a disk archive."""
    root = tmp_path_factory.mktemp("fleet-archive") / "archive"
    fleet = build_fleet(num_machines=16, duration=6.0, snapshot_interval=2.0,
                        archive=LogArchive(root))
    return fleet, root


@pytest.mark.slow
class TestFleetArchiveEquivalence:
    def test_archive_mirrors_fleet_exactly(self, archived_fleet):
        fleet, _root = archived_fleet
        archive = fleet.ingest.archive
        assert not fleet.ingest.quarantine
        for machine in fleet.machines:
            monitor = fleet.monitors[machine]
            assert monitor.shipped_through == len(monitor.log)
            assert archived_log(archive, machine).entries == \
                monitor.log.full_segment().entries
            assert [s.entries for s in archived_segments(archive, machine)] == \
                [s.entries for s in split_at_snapshots(monitor.log.full_segment())]
            peer = fleet.monitors[fleet.peers[machine]]
            assert archive.authenticators_for(machine) == \
                peer.authenticators_from(machine)

    def test_restart_then_audits_identical(self, archived_fleet):
        fleet, root = archived_fleet
        reopened = LogArchive(root)  # the "process restart"
        assert reopened.recovery.clean
        assert reopened.recovery.machines == 16
        service = AuditIngestService(reopened)
        for machine in fleet.machines:
            memory = fleet.make_auditor(machine).audit(fleet.monitors[machine])
            archived = service.audit_machine(
                fleet.make_auditor(machine, collect=False), machine)
            # Full structural equality: verdict, phase, counters, costs,
            # replay report, evidence — everything.
            assert memory == archived
            assert memory.verdict is Verdict.PASS

    def test_engine_and_spot_checks_from_archive(self, archived_fleet):
        fleet, root = archived_fleet
        service = AuditIngestService(LogArchive(root))
        assignments = []
        for machine in fleet.machines:
            auditor = fleet.make_auditor(machine, collect=False)
            service.prepare_auditor(auditor, machine)
            assignments.append(AuditAssignment(auditor,
                                               service.target_for(machine)))
        report = AuditScheduler(workers=2, executor="process").audit_fleet(
            assignments)
        assert report.all_passed
        machine = fleet.machines[0]
        live = SpotChecker(fleet.make_auditor(machine)).check_chunk(
            fleet.monitors[machine], 1, 1)
        auditor = fleet.make_auditor(machine, collect=False)
        service.prepare_auditor(auditor, machine)
        archived = SpotChecker(auditor).check_chunk(
            service.target_for(machine), 1, 1)
        assert live.result == archived.result
        assert live.snapshot_bytes == archived.snapshot_bytes

    def test_gc_then_audit_equivalence(self, archived_fleet, tmp_path):
        fleet, root = archived_fleet
        # Work on a copy so the other tests keep the full archive.
        gc_root = tmp_path / "gc-archive"
        shutil.copytree(root, gc_root)
        archive = LogArchive(gc_root)
        service = AuditIngestService(archive)
        for machine in fleet.machines[:4]:
            head = archive.head_checkpoint(machine)
            checkpoint = archive.truncate(machine, head.sequence // 2)
            assert 0 < checkpoint.sequence < head.sequence
            archived = service.audit_machine(
                fleet.make_auditor(machine, collect=False), machine)
            assert archived.verdict is Verdict.PASS
            # In-memory equivalent: audit the live log from the same
            # boundary snapshot on, with the same (GC-surviving)
            # authenticators.
            monitor = fleet.monitors[machine]
            start = next(
                index for index, segment
                in enumerate(monitor.segment_records())
                if segment.first_sequence == checkpoint.sequence + 1)
            auditor = fleet.make_auditor(machine, collect=False)
            auditor.collect_authenticators(
                machine, archive.authenticators_for(machine))
            memory = auditor.audit(monitor, start=start)
            assert memory == archived


@pytest.mark.slow
class TestLossyShipping:
    def test_dropped_shipment_is_reshipped_not_skipped(self, tmp_path):
        """A partition to the ingest endpoint must not desynchronize the
        shipping cursor: the entries are re-shipped once it heals."""
        from repro.log.entries import nondet_content as nc
        fleet = build_fleet(num_machines=2, duration=3.0,
                            snapshot_interval=1.0,
                            archive=LogArchive(tmp_path / "a"))
        machine = fleet.machines[0]
        monitor = fleet.monitors[machine]
        network = monitor.network
        archive = fleet.ingest.archive
        assert monitor.shipped_through == len(monitor.log)

        network.cut_links.add((machine, fleet.ingest.identity))
        monitor.log.append(EntryType.NONDET, nc("late-event", 1))
        assert not monitor.ship_archive_tail()  # dropped at send time
        assert monitor.shipped_through == len(monitor.log) - 1
        assert not monitor.archive_shipping_complete

        network.cut_links.clear()
        assert monitor.ship_archive_tail()
        assert monitor.archive_shipping_complete
        fleet.scheduler.run_until(fleet.scheduler.clock.now + 1.0)
        assert monitor.shipped_through == len(monitor.log)
        assert archived_log(archive, machine).entries == \
            monitor.log.full_segment().entries
        assert not fleet.ingest.quarantine


@pytest.mark.slow
class TestFleetArchiveTamperEvidence:
    def test_fail_evidence_from_archive(self, tmp_path):
        """A tampered log fails the archive-backed audit as it fails the
        in-memory audit, with the failing chunk — here the log's first — as
        evidence a third party confirms."""
        fleet = build_fleet(num_machines=4, duration=5.0,
                            snapshot_interval=2.0)
        machine = fleet.machines[0]
        monitor = fleet.monitors[machine]
        peer = fleet.monitors[fleet.peers[machine]]
        covered = max(a.sequence for a in peer.authenticators_from(machine))
        # Tamper *before* shipping: recompute the chain so the log is
        # internally consistent (and passes ingest), but no longer matches
        # the authenticators the machine issued.
        target_sequence = min(5, covered)
        monitor.log.tamper_replace_entry(
            target_sequence,
            {"event_kind": "clock_read", "execution_counter": 1,
             "branch_counter": 0, "value": 99.0},
            recompute_chain=True)
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        for name in fleet.machines:
            mon = fleet.monitors[name]
            for segment in split_at_snapshots(mon.log.full_segment()):
                seals = [entry for entry in segment.entries
                         if entry.entry_type is EntryType.SNAPSHOT]
                sealed_by = None
                if seals and seals[-1] is segment.entries[-1]:
                    sealed_by = int(seals[-1].content["snapshot_id"])
                    snapshot = mon.snapshots.get(sealed_by)
                    service.archive.store_snapshot(
                        name, sealed_by, snapshot.state, snapshot.state_root,
                        mon.snapshots.transfer_cost_bytes(sealed_by),
                        execution=snapshot.execution.to_dict())
                assert service.ingest_segment(segment,
                                              sealed_by_snapshot=sealed_by)
            other = fleet.monitors[fleet.peers[name]]
            service.ingest_authenticators(name, other.authenticators_from(name))

        memory = fleet.make_auditor(machine).audit(monitor)
        archived = service.audit_machine(
            fleet.make_auditor(machine, collect=False), machine)
        assert memory.verdict is Verdict.FAIL
        assert (archived.verdict, archived.phase, archived.reason) \
            == (memory.verdict, memory.phase, memory.reason)
        chunk = archived.evidence.segment.entries
        assert chunk == memory.evidence.segment.entries[:len(chunk)]
        assert 0 < len(chunk) < len(memory.evidence.segment.entries)
        assert not archived.evidence.anchor and not archived.evidence.ends_log
        for evidence in (memory.evidence, archived.evidence):
            assert evidence.verify(fleet.keystore,
                                   fleet.reference_images[machine])


class TestSnapshotPagesMemo:
    """The memo of reconstructed delta snapshots, keyed by the frame's
    ``(file, offset)`` — committed frames are immutable, so there is nothing
    to validate it against; it only has to be invisible and bounded."""

    def _snapshot_chain(self, root, machine="machine", snapshots=4):
        from repro.vm.execution import ExecutionTimestamp
        from repro.vm.snapshot import SnapshotManager
        manager = SnapshotManager()
        archive = LogArchive(root)
        for index in range(snapshots):
            state = {"counter": index,
                     "items": {f"key-{j}": j * (index + 1) for j in range(40)}}
            snapshot = manager.take(state, ExecutionTimestamp(index * 10, index))
            archive.store_snapshot_delta(
                machine, manager.get_incremental(snapshot.snapshot_id))
        return archive, manager

    def test_cached_snapshot_fetches_match_fresh_archive(self, tmp_path):
        archive, manager = self._snapshot_chain(tmp_path / "a")
        warm_first = archive.load_snapshot("machine", 4)
        warm_again = archive.load_snapshot("machine", 4)  # memo hit
        cold = LogArchive(tmp_path / "a").load_snapshot("machine", 4)
        reference = manager.get(4)
        for snapshot in (warm_first, warm_again, cold):
            assert snapshot.state == reference.state
            assert snapshot.state_root == reference.state_root
            assert snapshot.verify_root()

    def test_cached_fetches_return_independent_state_dicts(self, tmp_path):
        archive, _ = self._snapshot_chain(tmp_path / "a")
        for snapshot_id in (1, 4):  # read afresh, and out of the memo
            first = archive.load_snapshot("machine", snapshot_id)
            second = archive.load_snapshot("machine", snapshot_id)
            first.state["counter"] = -999
            assert second.state["counter"] != -999, (
                f"snapshot {snapshot_id}: cached fetches share a state dict")

    def test_a_rewritten_generation_is_not_served_from_the_memo(self, tmp_path):
        archive, manager = self._snapshot_chain(tmp_path / "a")
        # segments sealed by snapshots 1-4, so GC has boundaries to land on
        records = [archive.append_segment(segment, sealed_by_snapshot=index + 1)
                   for index, segment in enumerate(split_at_snapshots(
                       build_sealed_log(segments=4).full_segment()))]
        archive.load_snapshot("machine", 4)  # warm the memo
        stale = set(archive._snapshot_pages_cache)
        archive.truncate("machine", records[1].last_sequence)
        with pytest.raises(Exception, match="no archived snapshot"):
            archive.load_snapshot("machine", 1)
        # snapshot 2 is now a keyframe in the next generation's file, and 4
        # is rebuilt on it
        assert archive.load_snapshot("machine", 4).state == manager.get(4).state
        assert not stale & {(r.file_name, r.offset) for r
                            in archive._snapshot_index["machine"].values()}

    def test_memo_stays_bounded(self, tmp_path):
        archive, _ = self._snapshot_chain(tmp_path / "a", snapshots=12)
        for snapshot_id in range(2, 13):
            archive.load_snapshot("machine", snapshot_id)
        assert len(archive._snapshot_pages_cache) == MATERIALIZED_CACHE
