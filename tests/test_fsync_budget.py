"""The fsync budget: what a shipment may cost the archive (CI tripwire).

A seal (or tail) of a machine's log reaches the archive as one
``ARCHIVE_SHIPMENT`` and is stored as one group: one ``write``, one commit
record, one ``os.fsync`` (docs/log-archive.md, "Write protocol").  Creating
a machine costs three more — its directory, the checkpoint that names its
file, the root both are new in.  The archive topologies of the benchmark of
record are recorded here at small fixed sizes and the counts asserted
*exactly*: they repeat bit for bit at a seed, so a change that quietly goes
back to committing per record — or to shipping a seal as several messages —
fails by name.  The game ships nothing and may not sync at all.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # bench/ is a package beside tests/, not under src/
    sys.path.insert(0, str(ROOT))

from bench.harness import record  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

from repro.network.message import MessageKind  # noqa: E402
from repro.store.archive import LogArchive  # noqa: E402

#: workload -> (scale, machines, shipments, segments, snapshots, os.fsync calls)
BUDGET = {
    "web_honest": (0.4, 2, 9, 9, 8, 15),
    "db_fat": (1.0, 2, 6, 6, 4, 12),
    "game_lan": (0.4, 0, 0, 0, 0, 0),
}
#: what creating a machine costs on top of its first group's own fsync
PER_MACHINE = 3


@pytest.fixture(scope="module", params=sorted(BUDGET))
def recorded(request, tmp_path_factory):
    workload = WORKLOADS[request.param](42, BUDGET[request.param][0])
    workload.pairs = 1  # db_fat: one kv / sql-bench pair is enough here
    root = tmp_path_factory.mktemp(request.param) / "archive"
    synced, real_fsync = [], os.fsync

    def counting_fsync(fd):
        synced.append(os.path.basename(os.readlink(f"/proc/self/fd/{fd}")))
        real_fsync(fd)
    os.fsync = counting_fsync
    try:
        deployment = workload.build(True, root)
        tails = []
        for monitor in deployment.monitors.values():
            def counted(ship=monitor.ship_archive_tail):
                tails.append(ship())
                return tails[-1]
            monitor.ship_archive_tail = counted
        assert record(deployment)
    finally:
        os.fsync = real_fsync
    return request.param, deployment, root, synced, sum(tails)


def test_exact_seeded_counts(recorded):
    name, deployment, root, synced, tails = recorded
    shipments = [message for _, message in deployment.network.deliveries
                 if message.kind is MessageKind.ARCHIVE_SHIPMENT]
    if deployment.ingest is None:
        assert not shipments and not synced and not root.exists()
        assert BUDGET[name][1:] == (0, 0, 0, 0, 0)
        return
    archive = LogArchive(root)
    groups = {record.commit for record in archive._all_records()}  # noqa: SLF001
    stats = deployment.ingest.stats
    counts = (len(archive._files), len(shipments),  # noqa: SLF001
              stats.segments_ingested, stats.snapshots_ingested, len(synced))
    assert counts == BUDGET[name][1:], (name, counts)
    machines, _, segments, snapshots, fsyncs = counts
    # one shipment message per seal or tail, one group — one fsync — each
    seals = sum(monitor.snapshots.count
                for monitor in deployment.monitors.values())
    assert len(shipments) == seals + tails == len(groups)
    assert snapshots == seals and segments <= len(shipments)
    assert fsyncs == len(shipments) + PER_MACHINE * machines
    assert fsyncs <= 2 * len(shipments) + PER_MACHINE * machines
    # ... of which every one past a machine's creation is its frame file's
    assert {name for name in synced if name.endswith(".avmf")} == \
        {Path(file_name).name for file_name in archive._files.values()}  # noqa: SLF001
    assert sum(name.endswith(".avmf") for name in synced) == len(shipments)


def test_nothing_quarantined_and_recovery_clean(recorded):
    _, deployment, root, _, _ = recorded
    if deployment.ingest is None:
        return
    assert not deployment.ingest.quarantine
    assert deployment.ingest.stats.segments_rejected == 0
    assert not (root / "quarantine.jsonl").exists()
    reopened = LogArchive(root)
    assert reopened.recovery.clean
    for machine, monitor in deployment.monitors.items():
        assert reopened.head_checkpoint(machine).sequence == len(monitor.log)
        assert monitor.archive_shipping_complete
