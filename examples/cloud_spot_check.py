"""Spot-checking a long-running hosted service (the cloud / web-service scenario).

Alice's database server runs on Bob's infrastructure inside an AVM while a
client issues a steady query workload (Section 6.12's MySQL + sql-bench
setup).  Replaying the whole multi-hour execution would be expensive, so Alice
audits only a few snapshot-delimited chunks of the log: she downloads the
snapshot at the start of each chunk, authenticates it against the hash-tree
root recorded in the log, and replays just that chunk (Section 3.5).

Run with:  python examples/cloud_spot_check.py
"""

from repro.audit.auditor import Auditor
from repro.audit.spot_check import SpotChecker
from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.experiments.harness import build_trust
from repro.log.codec import modelled_compressed_log_bytes
from repro.network.simnet import SimulatedNetwork
from repro.sim.scheduler import Scheduler
from repro.workloads.kvstore import make_kvserver_image
from repro.workloads.sqlbench import SqlBenchSettings, make_sqlbench_image


def main() -> None:
    scheduler = Scheduler()
    network = SimulatedNetwork(scheduler)
    config = AvmmConfig.for_configuration(Configuration.AVMM_RSA768,
                                          snapshot_interval=20.0)
    ca, keypairs, keystore = build_trust(["db-server", "db-client"], scheme="rsa768")

    server_image = make_kvserver_image()
    server = AccountableVMM("db-server", server_image, config, scheduler, network,
                            keypair=keypairs["db-server"], keystore=keystore)
    client = AccountableVMM("db-client",
                            make_sqlbench_image(SqlBenchSettings(server="db-server")),
                            config, scheduler, network,
                            keypair=keypairs["db-client"], keystore=keystore)
    server.start()
    client.start()

    print("running the hosted database under a sql-bench-style workload...")
    scheduler.run_until(120.0)
    print(f"  server handled {server.guest.operations} operations, "
          f"took {server.snapshots.count} snapshots, "
          f"log has {len(server.log)} entries")

    auditor = Auditor("db-client", keystore, server_image)
    auditor.collect_from_peer(client, "db-server")
    checker = SpotChecker(auditor)
    segments = server.get_snapshot_segments()
    print(f"\nspot-checking 2 of the {len(segments)} snapshot-delimited segments...")
    for index in (1, len(segments) - 2):
        result = checker.check_chunk(server, index, 1, segments=segments)
        print(f"  chunk starting at segment {index}: "
              f"{'pass' if result.ok else 'FAULT'}; "
              f"{result.total_bytes_transferred / 1e6:.1f} MB transferred "
              f"(snapshot {result.snapshot_bytes / 1e6:.1f} MB), "
              f"estimated replay time {result.replay_seconds:.1f} s")

    full = auditor.audit(server)
    full_download = modelled_compressed_log_bytes(server.get_log_segment())
    print(f"\nfor comparison, a full audit would replay "
          f"{full.cost.semantic_seconds:.1f} s of execution and download "
          f"{full_download / 1e6:.1f} MB")


if __name__ == "__main__":
    main()
