"""A message payload stays bytes on the record path (docs/message-protocol.md).

Each end of a message packs its RECV entry once, straight from the envelope's
fields (``encode_recv_content``): the sender to hash the receipt it expects,
the receiver to append the entry.  The receiver checks the sender's
commitment from one hash of the payload it holds (``send_commitment``); the
syntactic check rebuilds the same commitment from the logged fields
(``recv_commitment``).  These tests pin:

* recording a fat-payload v3 kv pair builds no RECV content dict at all —
  ``recv_content`` is never called, no RECV entry holds a parsed ``content``
  when recording ends, and each parses back to what was delivered;
* every entry still goes through ``TamperEvidentLog.append``, once (what the
  benchmark's traced run counts);
* the monitor's check on receipt and the audit's check from the log build
  the same authenticator and reach the same verdict, for genuine and forged
  messages alike.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # bench/ is a package beside tests/, not under src/
    sys.path.insert(0, str(ROOT))

from bench.harness import record  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

from repro.avmm.config import AvmmConfig, Configuration  # noqa: E402
from repro.avmm.monitor import AccountableVMM  # noqa: E402
from repro.crypto import hashing  # noqa: E402
from repro.crypto.keys import build_trust  # noqa: E402
from repro.log import entries as entries_module  # noqa: E402
from repro.log.authenticator import recv_commitment, signed_payload  # noqa: E402
from repro.log.entries import EntryType, recv_content, send_content  # noqa: E402
from repro.log.tamper_evident import TamperEvidentLog  # noqa: E402
from repro.network.message import NetworkMessage  # noqa: E402
from repro.network.simnet import SimulatedNetwork  # noqa: E402
from repro.sim.scheduler import Scheduler  # noqa: E402
from repro.workloads.echo import make_echo_image  # noqa: E402


@pytest.fixture(scope="module")
def fat_pair(tmp_path_factory):
    """One db_fat kv / sql-bench pair (v3 ship and store, 24 kB rows),
    recorded with ``recv_content`` and ``TamperEvidentLog.append`` counted."""
    recv_content_calls = []
    appends = {}
    delivered = {}

    def counted_recv_content(*args, **kwargs):
        recv_content_calls.append(args)
        return recv_content(*args, **kwargs)

    real_append = TamperEvidentLog.append
    real_handle_data = AccountableVMM._handle_data  # noqa: SLF001

    def counted_append(log, entry_type, content):
        appends[log.machine] = appends.get(log.machine, 0) + 1
        return real_append(log, entry_type, content)

    def noting_handle_data(monitor, message):
        if message.message_id not in monitor._seen_message_ids:  # noqa: SLF001
            delivered.setdefault(monitor.identity, []).append(message)
        return real_handle_data(monitor, message)

    workload = WORKLOADS["db_fat"](42, 0.5)
    workload.pairs = 1
    with pytest.MonkeyPatch.context() as patch:
        # every module that imported recv_content, the library's own first
        for module in [entries_module] + list(sys.modules.values()):
            if getattr(module, "recv_content", None) is recv_content:
                patch.setattr(module, "recv_content", counted_recv_content)
        patch.setattr(TamperEvidentLog, "append", counted_append)
        patch.setattr(AccountableVMM, "_handle_data", noting_handle_data)
        deployment = workload.build(
            True, tmp_path_factory.mktemp("db_fat") / "archive")
        assert record(deployment)
    return deployment, recv_content_calls, appends, delivered


class TestRecordPath:
    def test_no_recv_content_dict_is_built(self, fat_pair):
        _, recv_content_calls, _, _ = fat_pair
        assert recv_content_calls == []

    def test_recv_entries_stay_bytes_and_read_back_as_delivered(self, fat_pair):
        deployment, _, _, delivered = fat_pair
        fat = 0
        for identity, monitor in deployment.monitors.items():
            recvs = [entry for entry in monitor.log
                     if entry.entry_type is EntryType.RECV]
            assert recvs and len(recvs) == len(delivered[identity])
            # appended bytes are canonical: the v1 writer's chain-break
            # check hashes them as they are, without parsing them
            assert all(entry.canonical_content_hash() is entry.content_hash()
                       for entry in recvs)
            assert not [entry.sequence for entry in recvs
                        if "content" in entry.__dict__]
            for entry, message in zip(recvs, delivered[identity]):
                assert entry.content == recv_content(
                    message.source, message.payload, message.message_id,
                    message.kind.value,
                    AccountableVMM._peer_authenticator(message))  # noqa: SLF001
                fat += len(message.payload) > 20000
        assert fat > 0  # the rows that make the payload worth keeping bytes

    def test_every_entry_is_one_traced_append(self, fat_pair):
        deployment, _, appends, _ = fat_pair
        assert appends == {identity: len(monitor.log) for identity, monitor
                           in deployment.monitors.items()}


# ---------------------------------------------------------------------------
# One commitment, two entry points
# ---------------------------------------------------------------------------

class Receiver:
    """beta runs an echo guest; alpha and charlie are keyed sinks.  Every
    commitment beta's monitor rebuilds on receipt is noted with its verdict."""

    def __init__(self, monkeypatch):
        self.scheduler = Scheduler()
        self.network = SimulatedNetwork(self.scheduler)
        config = AvmmConfig.for_configuration(Configuration.AVMM_RSA768,
                                              snapshot_interval=None)
        _, self.keypairs, self.keystore = build_trust(
            ["alpha", "beta", "charlie"], scheme=config.signature_scheme)
        self.beta = AccountableVMM("beta", make_echo_image(), config,
                                   self.scheduler, self.network,
                                   keypair=self.keypairs["beta"],
                                   keystore=self.keystore)
        for sink in ("alpha", "charlie"):
            self.network.register(sink, lambda message: None)
        self.beta.start()
        self.alpha_log = TamperEvidentLog("alpha", keypair=self.keypairs["alpha"])
        self.filed = []
        real_file = AccountableVMM._file_if_committed  # noqa: SLF001

        def noting_file(monitor, commitment):
            verdict = real_file(monitor, commitment)
            self.filed.append((commitment, verdict))
            return verdict

        monkeypatch.setattr(AccountableVMM, "_file_if_committed", noting_file)

    def signed_send(self, payload, message_id, size=None):
        """alpha's authenticator for its SEND of ``payload`` to beta."""
        entry = self.alpha_log.append(EntryType.SEND, send_content(
            "beta", hashing.hash_bytes(payload),
            len(payload) if size is None else size, message_id))
        return self.alpha_log.authenticator_for(entry)

    def deliver(self, payload, message_id, authenticator):
        """beta receives the message; returns the commitment its monitor
        rebuilt, that commitment's verdict, and the RECV entry beta logged."""
        message = NetworkMessage(source="alpha", destination="beta",
                                 payload=payload, message_id=message_id,
                                 authenticator=authenticator.to_dict())
        before = len(self.filed)
        self.beta.on_network_message(message)
        (commitment, verdict), = self.filed[before:]
        entry = self.beta.log.entry_at(
            self.beta._recv_entry_for[message_id])  # noqa: SLF001
        return commitment, verdict, entry


def _case_genuine(rx, payload, mid):
    return payload, mid, rx.signed_send(payload, mid)


def _case_flipped_payload_byte(rx, payload, mid):
    flipped = bytes([payload[0] ^ 1]) + payload[1:] if payload else b"\x00"
    return flipped, mid, rx.signed_send(payload, mid)


def _case_wrong_size(rx, payload, mid):
    return payload, mid, rx.signed_send(payload, mid, size=len(payload) + 1)


def _case_wrong_id(rx, payload, mid):
    return payload, mid, rx.signed_send(payload, mid + "-signed")


def _case_wrong_sequence(rx, payload, mid):
    genuine = rx.signed_send(payload, mid)
    return payload, mid, dataclasses.replace(
        genuine, sequence=genuine.sequence + 1)


def _case_foreign_signature(rx, payload, mid):
    genuine = rx.signed_send(payload, mid)
    forged = rx.keypairs["charlie"].sign(
        signed_payload(genuine.sequence, genuine.chain_hash))
    return payload, mid, dataclasses.replace(genuine, signature=forged)


def _case_lifted_signature(rx, payload, mid):
    lifted = rx.signed_send(b"some other row", mid + "-other")
    return payload, mid, lifted


CASES = {
    "genuine": (_case_genuine, True),
    "flipped-payload-byte": (_case_flipped_payload_byte, False),
    "wrong-size": (_case_wrong_size, False),
    "wrong-id": (_case_wrong_id, False),
    "wrong-sequence": (_case_wrong_sequence, False),
    "foreign-signature": (_case_foreign_signature, False),
    "lifted-signature": (_case_lifted_signature, False),
}


class TestOneCommitmentTwoEntryPoints:
    @pytest.mark.parametrize("payload", [b"", b"ping", bytes(range(256)) * 96],
                             ids=["empty", "short", "fat"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_receipt_and_audit_agree(self, monkeypatch, case, payload):
        rx = Receiver(monkeypatch)
        build, genuine = CASES[case]
        delivered, mid, authenticator = build(rx, payload, "m-1")
        commitment, verdict, entry = rx.deliver(delivered, mid, authenticator)
        from_log = recv_commitment("beta", entry.content)
        from_fields = recv_commitment("beta", recv_content(
            "alpha", delivered, mid, "data", authenticator))
        assert commitment == from_log == from_fields
        assert verdict is from_log.verify(rx.keystore) is genuine
        assert (commitment in rx.beta.received_authenticators.get("alpha", [])) \
            is genuine
