"""Tests for log entries, the hash chain, authenticators and the tamper-evident log."""

import pytest

from repro.audit.kernel import chunk_job, run_chunk
from repro.audit.verdict import AuditPhase, Verdict
from repro.crypto import hashing
from repro.errors import (
    HashChainError,
    LogFormatError,
    SegmentError,
)
from repro.log.authenticator import Authenticator, make_authenticator
from repro.log.entries import (
    EntryType,
    ack_content,
    encode_content,
    nondet_content,
    recv_content,
    send_content,
    snapshot_content,
)
from repro.log.hashchain import (ChainCheckpoint, chain_hash,
                                 verify_chain_incremental, verify_entry)
from repro.log.segments import split_at_snapshots
from repro.log.tamper_evident import TamperEvidentLog
from repro.workloads.echo import make_echo_image


def tamper_check(segment, authenticators, keystore):
    """The audit kernel's outcome for ``segment``: its first step checks the
    segment against the authenticators."""
    return run_chunk(chunk_job(segment, authenticators, keystore,
                               make_echo_image()))


def make_log(machine="alice", keypair=None, entries=10):
    log = TamperEvidentLog(machine, keypair=keypair)
    for i in range(entries):
        log.append(EntryType.NONDET, nondet_content("tick", i))
    return log


class TestEntries:
    def test_encode_content_sorted_and_stable(self):
        assert encode_content({"b": 1, "a": 2}) == encode_content({"a": 2, "b": 1})

    def test_encode_content_refuses_bytes(self):
        # content holds JSON values; no writer puts bytes in it
        with pytest.raises(LogFormatError):
            encode_content({"k": b"\x01"})

    def test_encode_content_rejects_unserialisable(self):
        with pytest.raises(LogFormatError):
            encode_content({"k": object()})

    def test_content_constructors(self):
        assert send_content("bob", b"\x00" * 32, 10, "m1")["destination"] == "bob"
        recv = recv_content("bob", b"abc", "m1", "data")
        assert recv["source"] == "bob" and recv["payload_size"] == 3
        assert recv["sender_sequence"] == 0 and recv["sender_signature"] == ""
        assert "payload_hash" not in recv  # the payload already determines it
        assert ack_content("bob", "m1", "sent", 3)["direction"] == "sent"
        assert snapshot_content(1, b"\x11" * 32, 100)["snapshot_id"] == 1
        assert nondet_content("clock", 5)["execution_counter"] == 5

    def test_ack_content_rejects_bad_direction(self):
        with pytest.raises(LogFormatError):
            ack_content("bob", "m1", "sideways", 3)

    def test_size_bytes_positive(self):
        log = make_log(entries=1)
        assert log.entries[0].size_bytes() > 0


class TestHashChain:
    def test_chain_hash_depends_on_all_fields(self):
        base = chain_hash(hashing.ZERO_HASH, 1, EntryType.SEND, {"a": 1})
        assert base != chain_hash(hashing.ZERO_HASH, 2, EntryType.SEND, {"a": 1})
        assert base != chain_hash(hashing.ZERO_HASH, 1, EntryType.RECV, {"a": 1})
        assert base != chain_hash(hashing.ZERO_HASH, 1, EntryType.SEND, {"a": 2})
        assert base != chain_hash(b"\x01" * 32, 1, EntryType.SEND, {"a": 1})

    def test_verify_entry(self):
        log = make_log(entries=3)
        for entry in log:
            assert verify_entry(entry)

    def test_verify_chain_accepts_valid_log(self):
        log = make_log(entries=20)
        end = verify_chain_incremental(log.entries, ChainCheckpoint.genesis())
        assert end == ChainCheckpoint(20, log.entries[-1].chain_hash)

    def test_verify_chain_detects_content_tampering(self):
        log = make_log(entries=5)
        log.tamper_replace_entry(3, {"event_kind": "tick", "execution_counter": 999,
                                     "data": {}}, recompute_chain=False)
        with pytest.raises(HashChainError, match="entry 3 does not hash"):
            verify_chain_incremental(log.entries, ChainCheckpoint.genesis())

    def test_verify_chain_detects_removed_entry(self):
        log = make_log(entries=5)
        log.tamper_remove_entry(3)
        with pytest.raises(HashChainError):
            verify_chain_incremental(log.entries, ChainCheckpoint.genesis())

    def test_verify_chain_detects_wrong_start_hash(self):
        log = make_log(entries=3)
        with pytest.raises(HashChainError, match="previous hash mismatch"):
            verify_chain_incremental(log.entries,
                                     ChainCheckpoint(0, b"\x01" * 32))


class TestTamperEvidentLog:
    def test_sequence_numbers_are_dense(self):
        log = make_log(entries=5)
        assert [e.sequence for e in log] == [1, 2, 3, 4, 5]

    def test_head_hash_matches_last_entry(self):
        log = make_log(entries=5)
        assert log.head_hash == log.entries[-1].chain_hash

    def test_empty_log_head_is_zero(self):
        assert TamperEvidentLog("x").head_hash == hashing.ZERO_HASH

    def test_entry_at(self):
        log = make_log(entries=5)
        assert log.entry_at(3).sequence == 3
        with pytest.raises(SegmentError):
            log.entry_at(6)

    def test_entries_of_type(self):
        log = make_log(entries=2)
        log.append(EntryType.SEND, send_content("bob", b"\x00" * 32, 1, "m"))
        assert len(log.entries_of_type(EntryType.SEND)) == 1
        assert len(log.entries_of_type(EntryType.NONDET)) == 2

    def test_size_by_type_sums_to_total(self):
        log = make_log(entries=4)
        log.append(EntryType.SEND, send_content("bob", b"\x00" * 32, 1, "m"))
        assert sum(log.size_by_type().values()) == log.size_bytes()

    def test_segment_extraction(self):
        log = make_log(entries=10)
        segment = log.segment(3, 7)
        assert segment.first_sequence == 3
        assert segment.last_sequence == 7
        assert segment.start_hash == log.entry_at(2).chain_hash
        verify_chain_incremental(segment.entries, segment.start_checkpoint())

    def test_segment_bad_ranges(self):
        log = make_log(entries=5)
        with pytest.raises(SegmentError):
            log.segment(0, 3)
        with pytest.raises(SegmentError):
            log.segment(2, 9)
        with pytest.raises(SegmentError):
            log.segment(4, 2)

    def test_full_segment_of_empty_log(self):
        segment = TamperEvidentLog("x").full_segment()
        assert segment.entries == []

    def test_segments_between_snapshots(self):
        log = make_log(entries=3)
        log.append(EntryType.SNAPSHOT, snapshot_content(1, b"\x00" * 32, 10))
        for i in range(2):
            log.append(EntryType.NONDET, nondet_content("tick", 100 + i))
        log.append(EntryType.SNAPSHOT, snapshot_content(2, b"\x00" * 32, 20))
        log.append(EntryType.NONDET, nondet_content("tick", 200))
        segments = list(split_at_snapshots(log.full_segment()))
        assert len(segments) == 3
        assert segments[0].entries[-1].entry_type is EntryType.SNAPSHOT
        assert segments[-1].entries[-1].entry_type is EntryType.NONDET

    def test_segments_without_snapshots_is_whole_log(self):
        log = make_log(entries=4)
        segments = list(split_at_snapshots(log.full_segment()))
        assert len(segments) == 1
        assert len(segments[0].entries) == 4


class TestAuthenticators:
    def test_authenticator_verifies(self, ca, keystore):
        alice = ca.issue("alice")
        log = make_log("alice", keypair=alice, entries=3)
        entry = log.entry_at(2)
        auth = log.authenticator_for(entry)
        assert auth.machine == "alice"
        assert auth.verify(keystore)

    def test_authenticator_dict_roundtrip(self, ca, keystore):
        alice = ca.issue("alice")
        log = make_log("alice", keypair=alice, entries=2)
        auth = log.authenticator_for(log.entry_at(1))
        assert Authenticator.from_dict(auth.to_dict()).verify(keystore)

    def test_forged_authenticator_rejected(self, ca, keystore):
        alice = ca.issue("alice")
        log = make_log("alice", keypair=alice, entries=2)
        auth = log.authenticator_for(log.entry_at(1))
        forged = Authenticator(machine="alice", sequence=auth.sequence,
                               chain_hash=b"\x01" * 32, signature=auth.signature,
                               previous_hash=auth.previous_hash,
                               entry_type=auth.entry_type,
                               content_hash=auth.content_hash)
        assert not forged.verify(keystore)

    def test_authenticator_signed_by_other_party_rejected(self, ca, keystore):
        bob = ca.issue("bob")
        auth = make_authenticator(bob, sequence=1, chain_hash=b"\x02" * 32,
                                  previous_hash=hashing.ZERO_HASH,
                                  entry_type="send", content_hash=b"\x03" * 32)
        claimed = Authenticator(machine="alice", sequence=1, chain_hash=auth.chain_hash,
                                signature=auth.signature,
                                previous_hash=auth.previous_hash,
                                entry_type=auth.entry_type,
                                content_hash=auth.content_hash)
        assert not claimed.verify(keystore)

    def test_segment_verification_against_authenticators(self, ca, keystore):
        alice = ca.issue("alice")
        log = make_log("alice", keypair=alice, entries=8)
        authenticators = [log.authenticator_for(log.entry_at(i)) for i in (2, 5, 8)]
        outcome = tamper_check(log.full_segment(), authenticators, keystore)
        assert outcome.phase is not AuditPhase.AUTHENTICATOR_CHECK
        assert outcome.authenticators_checked == 3

    def test_tampered_log_fails_authenticator_check(self, ca, keystore):
        alice = ca.issue("alice")
        log = make_log("alice", keypair=alice, entries=8)
        authenticators = [log.authenticator_for(log.entry_at(i)) for i in (2, 5, 8)]
        # Tamper *and* recompute the chain: the chain itself then verifies, but
        # no longer matches the previously issued authenticators.
        log.tamper_replace_entry(4, nondet_content("tick", 999), recompute_chain=True)
        segment = log.full_segment()
        verify_chain_incremental(segment.entries, segment.start_checkpoint())  # chain alone looks fine
        outcome = tamper_check(segment, authenticators, keystore)
        assert (outcome.verdict, outcome.phase) == (
            Verdict.FAIL, AuditPhase.AUTHENTICATOR_CHECK)
        assert outcome.reason == (
            "log entry 5 does not match the authenticator issued by 'alice' "
            "(log was tampered with or forked)")

    def test_unsigned_log_produces_empty_signature_authenticators(self):
        log = make_log("alice", keypair=None, entries=2)
        auth = log.authenticator_for(log.entry_at(1))
        assert auth.signature == b""
