"""Tests for segment concatenation/chunking, serialisation and compression."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LogFormatError, SegmentError
from repro.log.codec import JsonBz2Codec
from repro.log.entries import EntryType, nondet_content, snapshot_content
from repro.log.segments import concatenate_segments, make_chunks
from repro.log.storage import (
    authenticators_from_bytes,
    authenticators_to_bytes,
    iter_segment_entries,
    read_segment,
    segment_from_bytes,
    segment_to_bytes,
    write_segment,
)
from repro.log.tamper_evident import TamperEvidentLog


def build_log_with_snapshots(segments=4, entries_per_segment=5):
    log = TamperEvidentLog("machine")
    for s in range(segments):
        for i in range(entries_per_segment):
            log.append(EntryType.TIMETRACKER, {
                "event_kind": "clock_read",
                "execution_counter": s * 100 + i,
                "branch_counter": s,
                "value": 0.25 * i,
            })
        log.append(EntryType.SNAPSHOT, snapshot_content(s + 1, bytes([s]) * 32, s * 100))
    return log


class TestSegments:
    def test_concatenate_contiguous(self):
        log = build_log_with_snapshots()
        segments = log.segments_between_snapshots()
        chunk = concatenate_segments(segments[:2])
        assert len(chunk) == len(segments[0]) + len(segments[1])
        chunk.verify_hash_chain()

    def test_concatenate_rejects_gap(self):
        log = build_log_with_snapshots()
        segments = log.segments_between_snapshots()
        with pytest.raises(SegmentError):
            concatenate_segments([segments[0], segments[2]])

    def test_concatenate_rejects_mixed_machines(self):
        log_a = build_log_with_snapshots(segments=1)
        log_b = TamperEvidentLog("other")
        log_b.append(EntryType.NONDET, nondet_content("x", 1))
        with pytest.raises(SegmentError):
            concatenate_segments([log_a.full_segment(), log_b.full_segment()])

    def test_concatenate_empty_rejected(self):
        with pytest.raises(SegmentError):
            concatenate_segments([])

    def test_make_chunks_counts(self):
        log = build_log_with_snapshots(segments=5)
        segments = log.segments_between_snapshots()
        assert len(make_chunks(segments, 1)) == len(segments)
        assert len(make_chunks(segments, 2)) == len(segments) - 1
        assert len(make_chunks(segments, 2, skip_initial=True)) == len(segments) - 2

    def test_make_chunks_rejects_zero_k(self):
        with pytest.raises(SegmentError):
            make_chunks([], 0)

    def test_segment_size_bytes(self):
        log = build_log_with_snapshots(segments=1)
        segment = log.full_segment()
        assert segment.size_bytes() == sum(e.size_bytes() for e in segment.entries)

    def test_empty_segment_properties(self):
        segment = TamperEvidentLog("m").full_segment()
        with pytest.raises(SegmentError):
            _ = segment.first_sequence
        with pytest.raises(SegmentError):
            _ = segment.last_sequence


class TestStorage:
    def test_bytes_roundtrip(self):
        segment = build_log_with_snapshots().full_segment()
        assert segment_from_bytes(segment_to_bytes(segment)).to_dict() == segment.to_dict()

    def test_file_roundtrip(self, tmp_path):
        segment = build_log_with_snapshots(segments=1).full_segment()
        path = tmp_path / "segment.log"
        written = write_segment(segment, path)
        assert written == path.stat().st_size
        assert read_segment(path).to_dict() == segment.to_dict()

    def test_rejects_empty_data(self):
        with pytest.raises(LogFormatError):
            segment_from_bytes(b"")

    def test_rejects_wrong_kind(self):
        with pytest.raises(LogFormatError):
            segment_from_bytes(b'{"kind": "something-else"}\n')

    def test_rejects_entry_count_mismatch(self):
        segment = build_log_with_snapshots(segments=1).full_segment()
        data = segment_to_bytes(segment)
        truncated = b"\n".join(data.splitlines()[:-2]) + b"\n"
        with pytest.raises(LogFormatError):
            segment_from_bytes(truncated)

    def test_authenticator_roundtrip(self, ca):
        alice = ca.issue("alice")
        log = TamperEvidentLog("alice", keypair=alice)
        log.append(EntryType.NONDET, nondet_content("x", 1))
        auths = [log.authenticator_for(log.entry_at(1))]
        restored = authenticators_from_bytes(authenticators_to_bytes(auths))
        assert restored[0].to_dict() == auths[0].to_dict()

    @staticmethod
    def _json_lines(batch, leave_out_consistent=True):
        """The batch form archives held before the packed one."""
        import json
        lines = ['{"format_version": 1, "kind": "authenticators"}']
        for auth in batch:
            row = auth.to_dict()
            if leave_out_consistent and auth.is_consistent():
                del row["chain_hash"]
            lines.append(json.dumps(row, sort_keys=True))
        return ("\n".join(lines) + "\n").encode()

    def test_stored_batch_keeps_chain_hash_only_where_it_is_forged(self, ca):
        """Same rule as the log rows: ``chain_hash`` follows from the fields
        beside it, so only an authenticator whose does *not* stores one."""
        import json
        from dataclasses import replace
        log = TamperEvidentLog("alice", keypair=ca.issue("alice"))
        for index in range(3):
            log.append(EntryType.NONDET, nondet_content("x", index))
        honest = [log.authenticator_for(entry) for entry in log.entries]
        forged = replace(honest[1], chain_hash=bytes(32))
        batch = [honest[0], forged, honest[2]]
        data = authenticators_to_bytes(batch)
        # one length byte and 32 hash bytes more than the honest batch; the
        # last row's consistent chain hash (nobody's previous hash) is absent
        assert len(data) == len(authenticators_to_bytes(honest)) + 33
        assert forged.chain_hash in data
        assert honest[2].chain_hash not in data
        restored = authenticators_from_bytes(data)
        assert restored == batch
        assert [auth.is_consistent() for auth in restored] == \
            [True, False, True]
        # The JSON-lines batches of older archives load: under the same
        # rule, and from before it (every chain hash written).
        assert authenticators_from_bytes(self._json_lines(batch)) == batch
        assert authenticators_from_bytes(
            self._json_lines(batch, leave_out_consistent=False)) == batch
        # A row missing a field the hash is derived from is still malformed.
        lines = self._json_lines(batch).decode().splitlines()
        row = json.loads(lines[1])
        del row["content_hash"]
        with pytest.raises(LogFormatError, match="malformed authenticator"):
            authenticators_from_bytes(
                (lines[0] + "\n" + json.dumps(row) + "\n").encode())

    def test_authenticator_rejects_wrong_kind(self):
        with pytest.raises(LogFormatError):
            authenticators_from_bytes(b'{"kind": "log_segment"}\n')

    def test_segment_rejects_wrong_format_version(self):
        segment = build_log_with_snapshots(segments=1).full_segment()
        data = segment_to_bytes(segment).replace(
            b'"format_version": 1', b'"format_version": 99', 1)
        with pytest.raises(LogFormatError, match="format version"):
            segment_from_bytes(data)

    def test_authenticators_reject_wrong_format_version(self, ca):
        alice = ca.issue("alice")
        log = TamperEvidentLog("alice", keypair=alice)
        log.append(EntryType.NONDET, nondet_content("x", 1))
        batch = [log.authenticator_for(log.entry_at(1))]
        data = self._json_lines(batch).replace(
            b'"format_version": 1', b'"format_version": 99', 1)
        with pytest.raises(LogFormatError, match="format version"):
            authenticators_from_bytes(data)
        # the packed form's version is its magic: another one is no batch
        with pytest.raises(LogFormatError):
            authenticators_from_bytes(
                authenticators_to_bytes(batch).replace(b"AVMAUTH1", b"AVMAUTH2"))


class TestStreamingReader:
    def test_streams_entries_lazily(self, tmp_path):
        segment = build_log_with_snapshots().full_segment()
        path = tmp_path / "segment.log"
        write_segment(segment, path)
        iterator = iter_segment_entries(path)
        first = next(iterator)
        assert first == segment.entries[0]
        assert [first, *iterator] == segment.entries

    def test_accepts_open_file_object(self, tmp_path):
        segment = build_log_with_snapshots(segments=1).full_segment()
        path = tmp_path / "segment.log"
        write_segment(segment, path)
        with open(path, "r", encoding="utf-8") as handle:
            assert list(iter_segment_entries(handle)) == segment.entries

    def test_rejects_bad_header_before_first_entry(self, tmp_path):
        path = tmp_path / "segment.log"
        path.write_bytes(b'{"kind": "something-else"}\n')
        with pytest.raises(LogFormatError):
            next(iter_segment_entries(path))

    def test_rejects_wrong_format_version(self, tmp_path):
        segment = build_log_with_snapshots(segments=1).full_segment()
        path = tmp_path / "segment.log"
        data = segment_to_bytes(segment).replace(
            b'"format_version": 1', b'"format_version": 99', 1)
        path.write_bytes(data)
        with pytest.raises(LogFormatError, match="format version"):
            next(iter_segment_entries(path))

    def test_detects_truncated_file(self, tmp_path):
        segment = build_log_with_snapshots(segments=1).full_segment()
        path = tmp_path / "segment.log"
        data = segment_to_bytes(segment)
        path.write_bytes(b"\n".join(data.splitlines()[:-2]) + b"\n")
        with pytest.raises(LogFormatError, match="entry count mismatch"):
            list(iter_segment_entries(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "segment.log"
        path.write_bytes(b"")
        with pytest.raises(LogFormatError, match="empty"):
            next(iter_segment_entries(path))


class TestLogPicklability:
    def test_default_clock_log_pickles(self):
        # The default clock used to be a lambda, which broke pickling under
        # the process-pool audit path.
        import pickle
        log = build_log_with_snapshots(segments=1)
        restored = pickle.loads(pickle.dumps(log))
        assert restored.entries == log.entries
        assert restored.head_hash == log.head_hash
        restored.append(EntryType.NONDET, nondet_content("x", 1))


class TestCompression:
    def test_vmm_compressor_roundtrip(self):
        segment = build_log_with_snapshots().full_segment()
        compressor = JsonBz2Codec()
        restored = compressor.decode_segment(compressor.encode_segment(segment))
        assert restored.to_dict() == segment.to_dict()

    def test_vmm_compressor_shrinks_replay_logs(self):
        segment = build_log_with_snapshots(segments=8, entries_per_segment=40).full_segment()
        compressed = JsonBz2Codec().encode_segment(segment)
        assert 0 < len(compressed) < len(segment_to_bytes(segment))

    def test_vmm_compressor_rejects_bad_magic(self):
        with pytest.raises(LogFormatError):
            JsonBz2Codec().decode_segment(b"not-a-compressed-log")

    def test_compressed_segment_chain_still_verifies(self):
        segment = build_log_with_snapshots().full_segment()
        compressor = JsonBz2Codec()
        restored = compressor.decode_segment(compressor.encode_segment(segment))
        restored.verify_hash_chain()

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 9),
                              st.floats(min_value=0, max_value=1e6,
                                        allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, rows):
        log = TamperEvidentLog("machine")
        for counter, value in rows:
            log.append(EntryType.TIMETRACKER, {
                "event_kind": "clock_read",
                "execution_counter": counter,
                "branch_counter": 0,
                "value": value,
            })
        segment = log.full_segment()
        compressor = JsonBz2Codec()
        restored = compressor.decode_segment(compressor.encode_segment(segment))
        assert restored.to_dict() == segment.to_dict()
