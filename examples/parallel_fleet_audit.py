"""Auditing a whole fleet in parallel (the batch-audit engine).

A provider hosts many accountable services; their customers want all of them
audited.  Audits are embarrassingly parallel — every machine's log, and with
snapshots every chunk of a log, is an independent work item — so the
:class:`~repro.audit.engine.AuditScheduler` fans the fleet out over a worker
pool: logs are split at snapshot boundaries, authenticator signatures are
batch-verified (one screening exponentiation per chunk instead of one per
signature), and per-chunk results are merged into per-machine verdicts.

Run with:  python examples/parallel_fleet_audit.py
"""

from repro.audit.engine import AuditScheduler
from repro.service.fleet import build_fleet


def main() -> None:
    # --- 1. Record a small fleet: database servers, each driven by a client.
    print("recording a 6-machine fleet (3 hosted databases + clients)...")
    fleet = build_fleet(num_machines=6, duration=12.0, snapshot_interval=4.0)
    for machine in fleet.machines:
        monitor = fleet.monitors[machine]
        print(f"  {machine}: {len(monitor.log)} log entries, "
              f"{monitor.snapshots.count} snapshots")

    # --- 2. Audit every machine serially (workers=1 is the plain auditor).
    serial = AuditScheduler(workers=1).audit_fleet(fleet.assignments())
    print(f"\nserial audit: modelled cost "
          f"{serial.modelled.serial_seconds:.1f} s of audit-tool time")

    # --- 3. The same audits on four workers: chunked, batched, parallel.
    engine = AuditScheduler(workers=4)
    report = engine.audit_fleet(fleet.assignments())
    print(f"parallel audit: {report.chunk_count} chunks on {report.workers} "
          f"workers ({report.executor_used} pool)")
    print(f"  modelled audit time {report.modelled.makespan_seconds:.1f} s "
          f"-> {report.modelled.speedup:.1f}x speedup, "
          f"{report.modelled.efficiency * 100:.0f}% efficiency")
    print(f"  batched signature checks: "
          f"{report.total_cost.signatures_verified} authenticators in "
          f"{report.total_cost.signature_screen_operations} screening operations")

    # --- 4. Verdicts are the same either way.
    for machine in fleet.machines:
        assert report.results[machine].verdict is serial.results[machine].verdict
    verdicts = {machine: result.verdict.value
                for machine, result in sorted(report.results.items())}
    print(f"\nverdicts (identical to the serial audit): {verdicts}")


if __name__ == "__main__":
    main()
