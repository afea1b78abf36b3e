"""Durable log archive + fleet audit-ingest pipeline.

Section 4.2's logs must outlive the execution that produced them.  This
benchmark runs the whole archive lifecycle: a fleet records while streaming
sealed segments, boundary snapshots and peer authenticators to the
:class:`~repro.service.ingest.AuditIngestService`; the archive is reopened
purely from its manifest (simulating a process restart); every machine is
audited from memory and from the archive — the serial results must be
structurally identical and the parallel engine must agree; retention GC
truncates each machine at its midpoint checkpoint and the suffixes are
re-audited from the boundary snapshots.  Reported numbers: pure archival
ingest throughput (entries/s, MB/s of raw log) and the modelled audit cost
on both paths (equal by construction — the archive round-trip is bit-exact).
"""

from _bench_utils import duration_or, scaled

from repro.experiments import archive_ingest


def test_archive_ingest_pipeline(benchmark, repro_duration):
    duration = duration_or(30.0, repro_duration, smoke=8.0)
    num_machines = scaled(16, 4)
    snapshot_interval = scaled(10.0, 3.0)
    workers = scaled(4, 2)
    result = benchmark.pedantic(
        archive_ingest.run_archive_ingest,
        kwargs={"num_machines": num_machines, "duration": duration,
                "snapshot_interval": snapshot_interval, "workers": workers},
        rounds=1, iterations=1)
    print()
    print(f"archived: {result.archive.segment_files} segments, "
          f"{result.archive.entries} entries, "
          f"{result.archive.stored_bytes:,} B stored "
          f"({result.archive.compression_ratio:.2f}x of raw)")
    print(f"ingest throughput: {result.entries_per_second:,.0f} entries/s "
          f"({result.raw_mb_per_second:.1f} MB/s raw)")
    print(f"modelled audit cost: memory {result.memory_audit_seconds:.1f} s, "
          f"archive {result.archive_audit_seconds:.1f} s")
    print(f"GC reclaimed {result.gc_reclaimed_fraction * 100:.0f}% "
          f"({result.entries_before_gc} -> {result.entries_after_gc} entries)")

    # Restart recovery must be clean: manifest replay, chains verified, no
    # manifest/data divergence.
    assert result.recovery.clean
    assert result.recovery.machines == num_machines
    # Archive-backed audits are *identical* to in-memory ones: same verdicts
    # on every path, structurally equal serial results, same modelled cost.
    assert result.serial_results_equal
    assert result.verdicts_identical
    assert result.all_passed
    assert result.archive_audit_seconds == result.memory_audit_seconds
    # The archive actually compresses (VMM pre-pass + bzip2).  The smoke
    # run seals a segment every 3 sim-s instead of every 10, and bzip2 does
    # worse on segments that short (0.63 there), hence its looser threshold.
    assert result.archive.compression_ratio < scaled(0.6, 0.7)
    # ...GC reclaims a meaningful prefix at the midpoint checkpoint...
    assert result.gc_reclaimed_fraction > 0.1
    # ...and the throughput measurement produced a real number.
    assert result.entries_per_second > 0
