"""Quarantine-path coverage for the audit-ingest service, adversary-driven.

The lying shippers from the adversary catalog exercise the ingest service's
door checks over the real network path; these tests additionally pin down
the persistence guarantee: quarantine records survive a service restart and
an archive recovery, so a crash between ingest and audit cannot launder a
rejected shipment.
"""

import pytest

from repro.adversary.catalog import make_adversary
from repro.adversary.matrix import CellSpec, ScenarioMatrix
from repro.log.entries import EntryType
from repro.log.tamper_evident import TamperEvidentLog
from repro.service.ingest import AuditIngestService, QuarantinedShipment
from repro.store.archive import LogArchive

from archive_tools import World, ship, shipment


@pytest.fixture()
def archive(tmp_path):
    return LogArchive(tmp_path / "archive")


def _log_with_entries(machine="shipper", count=6):
    log = TamperEvidentLog(machine)
    for index in range(count):
        log.append(EntryType.ANNOTATION, {"index": index})
    return log


class TestQuarantinePersistence:
    def test_records_survive_service_restart_and_recovery(self, archive,
                                                          tmp_path):
        service = AuditIngestService(archive)
        log = _log_with_entries()
        assert service.ingest_segment(log.segment(1, 3))

        # A forked continuation: same sequence range again, different chain.
        fork = _log_with_entries(count=6)
        fork.tamper_replace_entry(2, {"index": 1, "forked": True},
                                  recompute_chain=True)
        assert not service.ingest_segment(fork.segment(4, 6))
        assert service.quarantined_machines() == ["shipper"]
        record = service.quarantine_for("shipper")[0]
        assert record.first_sequence == 4
        assert record.last_sequence == 6

        # Recover the archive and restart the service: still on file.
        recovered_archive = LogArchive(tmp_path / "archive")
        recovered = AuditIngestService(recovered_archive)
        assert recovered.quarantined_machines() == ["shipper"]
        persisted = recovered.quarantine_for("shipper")[0]
        assert persisted.reason == record.reason
        assert (persisted.first_sequence, persisted.last_sequence) == (4, 6)
        # The archived honest prefix is intact.
        assert recovered_archive.entry_count("shipper") == 3

    def test_records_accumulate_across_incarnations(self, archive, tmp_path):
        service = AuditIngestService(archive)
        log = _log_with_entries(machine="repeat-offender")
        assert service.ingest_segment(log.segment(1, 2))
        bad = log.segment(5, 6)  # skips 3-4: does not extend the head
        assert not service.ingest_segment(bad)

        second = AuditIngestService(LogArchive(tmp_path / "archive"))
        assert not second.ingest_segment(bad)
        assert len(second.quarantine_for("repeat-offender")) == 2

        third = AuditIngestService(LogArchive(tmp_path / "archive"))
        assert len(third.quarantine_for("repeat-offender")) == 2

    def test_roundtrip_of_shipment_records(self):
        record = QuarantinedShipment(machine="m", reason="r",
                                     first_sequence=3, last_sequence=9)
        assert QuarantinedShipment.from_dict(record.to_dict()) == record


class TestAdversaryDrivenQuarantine:
    """Drive the quarantine over the wire with the catalog's lying shippers."""

    @pytest.mark.parametrize("adversary_name,expect_reason", [
        ("lying-shipper-segments", "chain"),
        ("lying-shipper-snapshots", "snapshot"),
    ])
    def test_lying_shipper_is_quarantined_and_survives_recovery(
            self, adversary_name, expect_reason):
        matrix = ScenarioMatrix()
        adversary = make_adversary(adversary_name, seed=51)
        spec = CellSpec(adversary_name, "kv", "archive", 2, 51)

        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            ctx, run = matrix._build(spec, adversary, tmp)
            adversary.install(ctx)
            run()
            matrix._drain_archive(ctx)

            ingest = ctx.ingest
            assert ingest is not None
            byzantine = ctx.byzantine
            records = ingest.quarantine_for(byzantine)
            assert records, "corrupted shipments were not quarantined"
            assert any(expect_reason in record.reason.lower()
                       for record in records), records
            # Honest fleet members shipped clean.
            for machine in ctx.honest_machines:
                assert not ingest.quarantine_for(machine)
            assert adversary.handle is not None
            assert adversary.handle.corrupted > 0

            # Recovery: a fresh archive + service over the same directory
            # still knows about every refused shipment.
            recovered = AuditIngestService(LogArchive(ingest.archive.root))
            survived = recovered.quarantine_for(byzantine)
            assert len(survived) == len(records)
            assert {r.reason for r in survived} == {r.reason for r in records}

    def test_equivocating_shipment_source_is_quarantined(self, archive):
        """A shipment whose payload claims another machine's identity."""
        from repro.log.codec import JsonBz2Codec

        service = AuditIngestService(archive)
        log = _log_with_entries(machine="impersonated")
        ship(service, "liar",
             segment=JsonBz2Codec().encode_segment(log.segment(1, 3)))
        assert service.quarantined_machines() == ["liar"]
        assert "claims to be from" in service.quarantine_for("liar")[0].reason


def test_a_shipper_that_leaves_the_snapshot_part_out(tmp_path):
    """Withholding is not a decoding failure: the segment lands, sealed by a
    snapshot the archive does not hold — which is then neither a GC boundary
    nor a chunk boundary, and everything based on it is refused."""
    from repro.audit.stream import _chunk_record_counts
    from repro.network.shipment import PartKind, decode_shipment
    world = World()
    service = AuditIngestService(LogArchive(tmp_path / "archive"))
    for seal, message in enumerate(world.shipments["alpha"]):
        parts = decode_shipment(message.payload)
        if seal == 1:
            parts = [part for part in parts
                     if part.kind is not PartKind.SNAPSHOT]
        service.on_message(shipment("alpha", parts=parts))
    # snapshots 3 and 4 are deltas down a chain the archive has a hole in
    assert [record.reason.split(":")[0] for record in service.quarantine] == \
        ["undecodable snapshot"] * 2
    assert all("base" in record.reason for record in service.quarantine)
    archive = LogArchive(tmp_path / "archive")
    records = archive.segment_records("alpha")
    assert [record.sealed_by_snapshot for record in records] == [1, 2, 3, 4]
    assert archive.snapshot_store("alpha").snapshot_ids() == [1]
    assert archive.head_checkpoint("alpha").sequence == len(world.logs["alpha"])
    # one replayable boundary: the audit takes the rest as one chunk ...
    assert _chunk_record_counts(archive, "alpha", records, None) == [1, 3]
    # ... and GC cannot pass it
    checkpoint = archive.truncate("alpha", records[-1].last_sequence)
    assert checkpoint == records[0].end_checkpoint()
