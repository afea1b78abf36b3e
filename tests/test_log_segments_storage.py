"""Tests for splitting a log at snapshots, serialisation and compression."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HashChainError, LogFormatError, SegmentError
from repro.log.codec import (JsonBz2Codec, SegmentStreamDecoder, TypedCodec,
                             decode_segment, get_codec)
from repro.log.entries import EntryType, nondet_content, snapshot_content
from repro.log.hashchain import verify_chain_incremental
from repro.log.segments import split_at_snapshots
from repro.log.storage import authenticators_from_bytes, authenticators_to_bytes
from repro.log.tamper_evident import TamperEvidentLog

from codec_tools import segment_to_bytes


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
    def test_split_segments_tile_the_log(self):
        log = build_log_with_snapshots()
        segments = list(split_at_snapshots(log.full_segment()))
        assert [entry for segment in segments for entry in segment.entries] \
            == log.entries
        checkpoint = log.full_segment().start_checkpoint()
        for segment in segments:
            assert segment.start_checkpoint() == checkpoint
            checkpoint = verify_chain_incremental(segment.entries, checkpoint)
        assert [segment.sealed_by_snapshot for segment in segments] == [1, 2, 3, 4]

    def test_a_split_segment_starts_where_its_predecessor_ends(self):
        """Not where its first entry claims to: an entry removed after a
        SNAPSHOT leaves the next one claiming the removed entry's hash, and
        the segment it opens must still start at the SNAPSHOT entry's."""
        log = build_log_with_snapshots()
        boundary = log.entry_at(6)
        assert boundary.entry_type is EntryType.SNAPSHOT
        log.tamper_remove_entry(7)
        second = list(split_at_snapshots(log.full_segment()))[1]
        assert second.start_hash == boundary.chain_hash \
            != second.entries[0].previous_hash
        with pytest.raises(HashChainError, match="chain break at sequence 7"):
            verify_chain_incremental(second.entries, second.start_checkpoint())

    def test_an_empty_log_splits_into_nothing(self):
        assert list(split_at_snapshots(TamperEvidentLog("m").full_segment())) == []

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
    """A log segment has the two wire formats' blobs and nothing else: the
    one-shot sniffing decoder refuses what is not one, typed."""

    def test_rejects_empty_data(self):
        with pytest.raises(LogFormatError, match="magic"):
            decode_segment(b"")

    def test_rejects_wrong_kind(self):
        # ... the JSON-lines form a segment once had included
        segment = build_log_with_snapshots(segments=1).full_segment()
        for data in (b'{"kind": "something-else"}\n',
                     segment_to_bytes(segment)):
            with pytest.raises(LogFormatError, match="magic"):
                decode_segment(data)

    def test_rejects_entry_count_mismatch(self):
        # (v3's header counts the frames; a v1 document has no count)
        segment = build_log_with_snapshots(segments=1).full_segment()
        data = bytearray(get_codec(3).encode_segment(segment))
        data[TypedCodec._header_size(data) - 4] += 1
        with pytest.raises(LogFormatError, match="entry count mismatch"):
            decode_segment(bytes(data))

    def test_authenticator_roundtrip(self, ca):
        alice = ca.issue("alice")
        log = TamperEvidentLog("alice", keypair=alice)
        log.append(EntryType.NONDET, nondet_content("x", 1))
        auths = [log.authenticator_for(log.entry_at(1))]
        restored = authenticators_from_bytes(authenticators_to_bytes(auths))
        assert restored[0].to_dict() == auths[0].to_dict()

    def test_stored_batch_keeps_chain_hash_only_where_it_is_forged(self, ca):
        """Same rule as the log rows: ``chain_hash`` follows from the fields
        beside it, so only an authenticator whose does *not* stores one."""
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

    def test_authenticator_rejects_wrong_kind(self):
        # the JSON-lines form older archives held is no batch either
        for data in (b'{"kind": "log_segment"}\n',
                     b'{"format_version": 1, "kind": "authenticators"}\n', b""):
            with pytest.raises(LogFormatError, match="magic"):
                authenticators_from_bytes(data)

    def test_authenticators_reject_wrong_format_version(self, ca):
        alice = ca.issue("alice")
        log = TamperEvidentLog("alice", keypair=alice)
        log.append(EntryType.NONDET, nondet_content("x", 1))
        batch = [log.authenticator_for(log.entry_at(1))]
        # the packed form's version is its magic: another one is no batch
        with pytest.raises(LogFormatError):
            authenticators_from_bytes(
                authenticators_to_bytes(batch).replace(b"AVMAUTH1", b"AVMAUTH2"))


def _v1_and_v3(segment):
    return {"v1": get_codec(1).encode_segment(segment),
            "v3": get_codec(3).encode_segment(segment)}


@pytest.mark.parametrize("wire", ["v1", "v3"])
class TestStreamingReader:
    """``SegmentStreamDecoder`` over stored blobs of both formats."""

    @staticmethod
    def _chunks(data, size):
        return (data[offset:offset + size]
                for offset in range(0, len(data), size))

    def test_streams_entries_lazily(self, wire):
        segment = build_log_with_snapshots().full_segment()
        data = _v1_and_v3(segment)[wire]
        pulled = []

        def chunks():
            for chunk in self._chunks(data, 64):
                pulled.append(len(chunk))
                yield chunk
        iterator = SegmentStreamDecoder().entries(chunks())
        first = next(iterator)
        assert first == segment.entries[0]
        if wire == "v3":  # (bzip2 inflates nothing before its block ends)
            assert sum(pulled) < len(data)  # an entry before the last byte
        assert [first, *iterator] == segment.entries

    def test_accepts_chunks_of_any_size(self, wire):
        segment = build_log_with_snapshots(segments=1).full_segment()
        data = _v1_and_v3(segment)[wire]
        for size in (1, 5, 4096, len(data)):
            decoder = SegmentStreamDecoder()
            assert list(decoder.entries(self._chunks(data, size))) == \
                segment.entries
            assert decoder.entry_count == len(segment.entries)

    def test_rejects_bad_header_before_first_entry(self, wire):
        segment = build_log_with_snapshots(segments=1).full_segment()
        data = bytearray(_v1_and_v3(segment)[wire])
        data[3] ^= 0xFF  # inside the magic
        with pytest.raises(LogFormatError, match="magic"):
            next(SegmentStreamDecoder().entries(iter([bytes(data)])))

    def test_rejects_wrong_format_version(self, wire):
        segment = build_log_with_snapshots(segments=1).full_segment()
        data = _v1_and_v3(segment)[wire]
        if wire == "v1":
            # the version is the magic: another one is no log at all
            with pytest.raises(LogFormatError, match="magic"):
                next(SegmentStreamDecoder().entries(
                    iter([b"AVMLOGZ9" + data[8:]])))
        else:
            # the v3 header repeats it: a frame layout it does not know
            with pytest.raises(LogFormatError, match="format version"):
                next(SegmentStreamDecoder().entries(
                    iter([data[:8] + b"\x63\x00" + data[10:]])))

    def test_detects_truncated_file(self, wire):
        segment = build_log_with_snapshots(segments=1).full_segment()
        data = _v1_and_v3(segment)[wire]
        with pytest.raises(LogFormatError, match="truncated"):
            list(SegmentStreamDecoder().entries(self._chunks(data[:-9], 64)))

    def test_empty_file_rejected(self, wire):
        with pytest.raises(LogFormatError, match="magic"):
            next(SegmentStreamDecoder().entries(iter([b""])))


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
        assert restored == segment

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
        verify_chain_incremental(restored.entries, restored.start_checkpoint())

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
        assert restored == segment
