"""The signature budget: what an acknowledgment may cost (CI tripwire).

Acknowledgments ride the next signed envelope to the same peer
(docs/message-protocol.md), so a web request costs two RSA signatures — the
request and the response — plus the standalone ACK of the last response of a
burst, where the paper's protocol (and this repo before PR 23) spent four.
The four topologies of the benchmark of record are recorded here at small
fixed sizes and the counts asserted *exactly*: they repeat bit for bit at a
seed, so a change that quietly goes back to signing acknowledgments — or that
holds one long enough to cause a retransmission — fails by name.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # bench/ is a package beside tests/, not under src/
    sys.path.insert(0, str(ROOT))

from bench.harness import record  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

from repro.log.entries import EntryType  # noqa: E402

#: workload -> (scale, signatures, messages sent, acks piggybacked, standalone)
BUDGET = {
    "web_honest": (0.4, 101, 92, 81, 9),
    "web_cheat": (0.4, 101, 92, 81, 9),
    "db_fat": (0.5, 26, 24, 12, 2),
    "game_lan": (0.4, 153, 114, 39, 39),
}


@pytest.fixture(scope="module", params=sorted(BUDGET))
def recorded(request, tmp_path_factory):
    workload = WORKLOADS[request.param](42, BUDGET[request.param][0])
    workload.pairs = 1  # db_fat: one kv / sql-bench pair is enough here
    deployment = workload.build(
        True, tmp_path_factory.mktemp(request.param) / "archive")
    assert record(deployment)
    # game_lan has no archive to drain: let its last hold timers fire too
    deployment.scheduler.run_until(deployment.scheduler.clock.now + 1.0)
    return request.param, deployment


def _total(deployment, field):
    return sum(getattr(monitor.stats, field)
               for monitor in deployment.monitors.values())


def test_exact_seeded_counts(recorded):
    name, deployment = recorded
    counts = tuple(_total(deployment, field) for field in (
        "signatures_generated", "messages_sent", "acks_piggybacked",
        "acks_standalone"))
    assert counts == BUDGET[name][1:], (name, counts)
    signatures, messages, piggybacked, standalone = counts
    # one signature per signed envelope, one verification per envelope received
    assert signatures == messages + standalone
    assert _total(deployment, "signatures_verified") == signatures
    assert _total(deployment, "acks_sent") == messages
    if name.startswith("web"):
        assert signatures <= 2.2 * len(deployment.sent_at)


def test_every_recv_is_acknowledged_and_nothing_retransmitted(recorded):
    _, deployment = recorded
    for monitor in deployment.monitors.values():
        stats = monitor.stats
        assert stats.acks_rejected == 0
        assert stats.suspected_peers == []
        # the hold never reaches the retransmission interval
        assert monitor.channel.retransmissions == 0
        assert monitor.channel.unacknowledged == []
        assert monitor._owed == {}  # noqa: SLF001
        acked = {entry.content["acked_sequence"] for entry in monitor.log
                 if entry.entry_type is EntryType.ACK
                 and entry.content["direction"] == "sent"}
        assert acked == {entry.sequence for entry in monitor.log
                         if entry.entry_type is EntryType.RECV}
    assert _total(deployment, "acks_received") \
        == _total(deployment, "acks_sent") \
        == _total(deployment, "messages_received")
