"""Archiving a fleet's logs durably, then auditing from the archive.

A provider's machines stream their tamper-evident logs to a durable archive
while they run: every snapshot seals a segment, which is compressed and
shipped (with the snapshot state and collected peer authenticators) to the
audit-ingest service.  The archive survives the fleet — this example
"restarts" by reopening it purely from its on-disk manifest, audits every
machine from disk, and then applies Section 4.2's checkpoint truncation to
garbage-collect old log prefixes without losing auditability.

Run with:  python examples/fleet_archive_audit.py
"""

import shutil
import tempfile
from pathlib import Path

from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.service import AuditIngestService, format_ingest_report
from repro.service.fleet import build_fleet
from repro.store import LogArchive


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="avm-archive-example-")) / "archive"
    try:
        # --- 1. Record a small fleet; monitors stream sealed segments to the
        #        ingest service as they run.
        print("recording a 4-machine fleet, streaming logs to the archive...")
        fleet = build_fleet(num_machines=4, duration=10.0,
                            snapshot_interval=4.0, archive=LogArchive(root))
        stats = fleet.ingest.stats
        print(f"  ingested {stats.segments_ingested} segments "
              f"({stats.entries_ingested} entries, "
              f"{stats.stored_bytes:,} B stored), "
              f"{stats.authenticators_ingested} authenticators, "
              f"{stats.snapshots_ingested} snapshots")

        # --- 2. "Restart": drop every in-memory handle and reopen the archive
        #        from its manifest.  Recovery proves each machine's segments
        #        tile into one unbroken hash chain.
        archive = LogArchive(root)
        print(f"\nreopened archive: {archive.recovery.machines} machines, "
              f"{archive.recovery.entries} entries, "
              f"chains verified: {archive.recovery.chains_verified}, "
              f"orphans discarded: {len(archive.recovery.orphan_files)}")

        # --- 3. Audit every machine straight from the archive — serially and
        #        on the parallel engine.  Verdicts are identical to what an
        #        in-memory audit of the live fleet produces.
        service = AuditIngestService(archive)
        results = {}
        for machine in fleet.machines:
            auditor = fleet.make_auditor(machine, collect=False)
            results[machine] = service.audit_machine(auditor, machine)
        assignments = []
        for machine in fleet.machines:
            auditor = fleet.make_auditor(machine, collect=False)
            service.prepare_auditor(auditor, machine)
            assignments.append(AuditAssignment(auditor,
                                               service.target_for(machine)))
        report = AuditScheduler(workers=2).audit_fleet(assignments)
        print("\naudits from the archive:")
        print(format_ingest_report(service, results))
        assert all(result.ok for result in results.values())
        assert report.all_passed
        for machine in fleet.machines:  # live audits agree with archived ones
            live = fleet.make_auditor(machine).audit(fleet.monitors[machine])
            assert live.verdict is results[machine].verdict

        # --- 4. Retention: truncate each machine at its midpoint checkpoint
        #        (Section 4.2), keeping the boundary snapshot, then audit the
        #        surviving suffix from that snapshot.
        print("\napplying retention GC at the midpoint checkpoints...")
        for machine in fleet.machines:
            head = archive.head_checkpoint(machine)
            checkpoint = archive.truncate(machine, head.sequence // 2)
            result = service.audit_machine(
                fleet.make_auditor(machine, collect=False), machine)
            print(f"  {machine}: retained entries "
                  f"{checkpoint.sequence + 1}..{head.sequence}, "
                  f"audit from boundary snapshot: {result.verdict.value}")
            assert result.ok
        print("\nlogs outlived the fleet, audits survived the GC.")
    finally:
        shutil.rmtree(root.parent, ignore_errors=True)


if __name__ == "__main__":
    main()
