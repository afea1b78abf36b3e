"""Figure 9 — efficiency of spot checking.

The paper runs a MySQL server in one AVM and ``sql-bench`` in another for 75
minutes, snapshotting every five minutes, then audits every possible k-chunk
for k in {1, 3, 5, 9, 12}.  Both the replay time and the data that must be
transferred grow roughly linearly with k, plus a fixed per-chunk cost for
transferring the memory/disk snapshots and decompressing the log.

The reproduction runs the stand-in key-value workload and reports both series
normalised to the cost of a full audit, exactly like the figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.audit.auditor import Auditor
from repro.audit.spot_check import SpotChecker
from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.experiments.harness import build_trust, format_table
from repro.log.codec import modelled_compressed_log_bytes
from repro.network.simnet import SimulatedNetwork
from repro.sim.scheduler import Scheduler
from repro.workloads.kvstore import make_kvserver_image
from repro.workloads.sqlbench import SqlBenchSettings, make_sqlbench_image


@dataclass
class SpotCheckPoint:
    """Averaged cost of auditing one k-chunk, normalised to a full audit."""

    k: int
    chunks_audited: int
    avg_time_fraction: float
    avg_data_fraction: float
    all_passed: bool


@dataclass
class SpotCheckExperimentResult:
    """The Figure 9 series plus the full-audit baseline."""

    duration: float
    snapshot_interval: float
    segments: int
    full_audit_seconds: float
    full_audit_bytes: int
    points: List[SpotCheckPoint]


def run_spot_check(duration: float = 300.0, snapshot_interval: float = 30.0,
                   k_values: Tuple[int, ...] = (1, 3, 5, 9),
                   seed: int = 42) -> SpotCheckExperimentResult:
    """Run the client/server workload and audit every possible k-chunk."""
    scheduler = Scheduler()
    network = SimulatedNetwork(scheduler)
    config = AvmmConfig.for_configuration(Configuration.AVMM_RSA768,
                                          snapshot_interval=snapshot_interval)
    ca, keypairs, keystore = build_trust(["db-server", "db-client"],
                                         scheme=config.signature_scheme, seed=seed)

    server_image = make_kvserver_image()
    client_image = make_sqlbench_image(SqlBenchSettings(server="db-server"))
    server = AccountableVMM("db-server", server_image, config, scheduler, network,
                            keypair=keypairs["db-server"], keystore=keystore)
    client = AccountableVMM("db-client", client_image, config, scheduler, network,
                            keypair=keypairs["db-client"], keystore=keystore)
    server.start()
    client.start()
    scheduler.run_until(duration)
    server.stop()
    client.stop()

    # Full audit baseline.
    auditor = Auditor("db-client", keystore, server_image)
    auditor.collect_from_peer(client, "db-server")
    full = auditor.audit(server)
    full_seconds = full.cost.total_seconds
    full_bytes = max(1, modelled_compressed_log_bytes(server.get_log_segment())
                     + full.cost.snapshot_bytes_downloaded)

    checker = SpotChecker(auditor)
    segments = server.get_snapshot_segments()
    points: List[SpotCheckPoint] = []
    for k in k_values:
        if k > len(segments) - 1:
            continue
        results = checker.check_all_chunks(server, k, skip_initial=True)
        if not results:
            continue
        avg_time = sum(r.total_seconds for r in results) / len(results)
        avg_data = sum(r.total_bytes_transferred for r in results) / len(results)
        points.append(SpotCheckPoint(
            k=k,
            chunks_audited=len(results),
            avg_time_fraction=avg_time / full_seconds if full_seconds > 0 else 0.0,
            avg_data_fraction=avg_data / full_bytes,
            all_passed=all(r.ok for r in results),
        ))
    return SpotCheckExperimentResult(
        duration=duration,
        snapshot_interval=snapshot_interval,
        segments=len(segments),
        full_audit_seconds=full_seconds,
        full_audit_bytes=full_bytes,
        points=points,
    )


def main(duration: float = 300.0) -> SpotCheckExperimentResult:
    """Print the Figure 9 series."""
    result = run_spot_check(duration=duration)
    rows = [(point.k, point.chunks_audited,
             f"{point.avg_time_fraction * 100:.1f}%",
             f"{point.avg_data_fraction * 100:.1f}%",
             "yes" if point.all_passed else "NO")
            for point in result.points]
    print(f"Figure 9: spot-checking cost relative to a full audit "
          f"({result.segments} segments, snapshot every {result.snapshot_interval:.0f} s)")
    print(format_table(["k", "chunks", "time vs full audit", "data vs full audit",
                        "all chunks passed"], rows))
    return result


if __name__ == "__main__":
    main()
