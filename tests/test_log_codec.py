"""Unit tests for the versioned LogCodec API (:mod:`repro.log.codec`).

Covers the registry, both codecs' four API layers (entry, framing, segment,
streaming), the single-error taxonomy, and the cache-seeding contract that
makes zero-copy v2 decode safe against stale-cache masking.
"""

import random
from dataclasses import replace

import pytest

from repro.crypto import hashing
from repro.errors import LogFormatError
from repro.log.codec import (
    MAGIC_LENGTH,
    V3_FLAG_COMPRESSED,
    BinaryCodec,
    JsonBz2Codec,
    TypedCodec,
    SegmentStreamDecoder,
    codec_for_data,
    decode_segment,
    encode_segment,
    get_codec,
    iter_snapshot_subsegments,
    modelled_compressed_log_bytes,
    require_format_version,
    segment_suffix,
    sniff_format_version,
    supported_format_versions,
)
from repro.log.entries import EntryType, LogEntry, snapshot_content
from repro.log.segments import LogSegment
from repro.log.tamper_evident import TamperEvidentLog


def _build_log(entries: int = 30, snapshot_every: int = 10,
               machine: str = "codec-machine") -> TamperEvidentLog:
    log = TamperEvidentLog(machine, clock=lambda: 3.5)
    rng = random.Random(0xC0DEC)
    snapshot_id = 0
    for index in range(entries):
        if snapshot_every and index and index % snapshot_every == 0:
            snapshot_id += 1
            log.append(EntryType.SNAPSHOT,
                       snapshot_content(snapshot_id,
                                        hashing.hash_bytes(b"state"),
                                        index * 11))
        log.append(rng.choice([EntryType.SEND, EntryType.RECV,
                               EntryType.NONDET]),
                   {"index": index,
                    "payload_hash": hashing.hash_bytes(bytes([index])).hex(),
                    "execution_counter": index * 7})
    return log


@pytest.fixture(scope="module")
def sample_segment() -> LogSegment:
    return _build_log().full_segment()


class TestRegistry:
    def test_all_formats_registered(self):
        assert supported_format_versions() == [1, 2, 3]

    def test_get_codec_returns_fresh_instances(self):
        assert get_codec(1) is not get_codec(1)
        assert isinstance(get_codec(1), JsonBz2Codec)
        assert isinstance(get_codec(2), BinaryCodec)
        assert isinstance(get_codec(3), TypedCodec)

    def test_unknown_version_is_one_well_typed_error(self):
        with pytest.raises(LogFormatError, match="format version"):
            get_codec(99)
        with pytest.raises(LogFormatError, match="format version"):
            require_format_version(None, what="whatever")

    def test_magics_are_distinct_and_sized(self):
        magics = {JsonBz2Codec.MAGIC, BinaryCodec.MAGIC, TypedCodec.MAGIC}
        assert len(magics) == 3
        for magic in magics:
            assert len(magic) == MAGIC_LENGTH

    def test_suffixes(self):
        assert segment_suffix(1) == ".avmlogz"
        assert segment_suffix(2) == ".avmlogb"
        assert segment_suffix(3) == ".avmlogt"

    def test_sniffing(self, sample_segment):
        for version in (1, 2, 3):
            data = get_codec(version).encode_segment(sample_segment)
            assert sniff_format_version(data) == version
            assert codec_for_data(data).format_version == version
        with pytest.raises(LogFormatError, match="magic"):
            sniff_format_version(b"NOTMAGIC" + b"x" * 64)


@pytest.mark.parametrize("format_version", [1, 2, 3])
class TestSegmentRoundTrip:
    def test_round_trip_preserves_everything(self, sample_segment,
                                             format_version):
        codec = get_codec(format_version)
        decoded = codec.decode_segment(codec.encode_segment(sample_segment))
        assert decoded.machine == sample_segment.machine
        assert decoded.start_hash == sample_segment.start_hash
        assert decoded.entries == sample_segment.entries
        decoded.verify_hash_chain()

    def test_empty_segment_round_trips(self, format_version):
        empty = LogSegment(machine="empty", entries=[],
                           start_hash=bytes(32))
        codec = get_codec(format_version)
        decoded = codec.decode_segment(codec.encode_segment(empty))
        assert decoded.machine == "empty"
        assert decoded.entries == []

    def test_module_level_helpers_sniff(self, sample_segment, format_version):
        data = encode_segment(sample_segment, format_version=format_version)
        decoded = decode_segment(data)
        assert decoded.entries == sample_segment.entries

    def test_entry_level_round_trip(self, sample_segment, format_version):
        encoder = get_codec(format_version)
        decoder = get_codec(format_version)
        for entry in sample_segment.entries:
            decoded = decoder.decode_entry(encoder.encode_entry(entry))
            assert decoded == entry

    def test_framing_round_trip(self, sample_segment, format_version):
        codec = get_codec(format_version)
        data = codec.encode_segment(sample_segment)
        whole = codec.decode_segment(data)
        assert len(whole.entries) == len(sample_segment.entries)

    def test_streaming_decoder_matches_one_shot(self, sample_segment,
                                                format_version):
        data = get_codec(format_version).encode_segment(sample_segment)
        for chunk_size in (1, 7, 64, len(data)):
            decoder = SegmentStreamDecoder()
            chunks = (data[offset:offset + chunk_size]
                      for offset in range(0, len(data), chunk_size))
            entries = list(decoder.entries(chunks))
            assert entries == sample_segment.entries
            assert decoder.header["machine"] == sample_segment.machine
            assert decoder.entry_count == len(sample_segment.entries)


class TestBinaryFormatErrors:
    def test_bad_magic(self):
        with pytest.raises(LogFormatError, match="magic"):
            BinaryCodec().decode_segment(b"WRONGMAG" + b"\x00" * 32)

    def test_truncated_header(self, sample_segment):
        data = get_codec(2).encode_segment(sample_segment)
        with pytest.raises(LogFormatError, match="truncated"):
            BinaryCodec().decode_segment(data[:MAGIC_LENGTH + 2])

    def test_truncated_frame(self, sample_segment):
        data = get_codec(2).encode_segment(sample_segment)
        with pytest.raises(LogFormatError):
            BinaryCodec().decode_segment(data[:-3])

    def test_entry_count_mismatch(self, sample_segment):
        codec = get_codec(2)
        data = bytearray(codec.encode_segment(sample_segment))
        # Flip the header's entry count (last 4 bytes of the header).
        header_end = (MAGIC_LENGTH + 4
                      + len(sample_segment.machine.encode()) + 32 + 4)
        data[header_end - 1] ^= 0x01
        with pytest.raises(LogFormatError, match="entry count mismatch"):
            codec.decode_segment(bytes(data))

    def test_unknown_type_tag(self):
        entry = _build_log(entries=1, snapshot_every=0).entries[0]
        payload = bytearray(get_codec(2).encode_entry(entry))
        payload[8] = 0xEE  # the type tag byte (after the u64 sequence)
        with pytest.raises(LogFormatError, match="tag"):
            get_codec(2).decode_entry(bytes(payload))

    def test_short_stream_is_rejected(self):
        decoder = SegmentStreamDecoder()
        with pytest.raises(LogFormatError, match="magic"):
            list(decoder.entries(iter([b"AVM"])))


class TestTypedFormatErrors:
    @staticmethod
    def _header_end(sample_segment) -> int:
        # magic + <HH> prefix + machine + 32-byte hash + flags + count
        return (MAGIC_LENGTH + 4
                + len(sample_segment.machine.encode()) + 32 + 1 + 4)

    def test_bad_magic(self):
        with pytest.raises(LogFormatError, match="magic"):
            TypedCodec().decode_segment(b"WRONGMAG" + b"\x00" * 32)

    def test_truncated_header(self, sample_segment):
        data = get_codec(3).encode_segment(sample_segment)
        with pytest.raises(LogFormatError, match="truncated"):
            TypedCodec().decode_segment(data[:MAGIC_LENGTH + 2])

    def test_truncated_frame(self, sample_segment):
        data = get_codec(3).encode_segment(sample_segment)
        with pytest.raises(LogFormatError):
            TypedCodec().decode_segment(data[:-3])

    def test_entry_count_mismatch(self, sample_segment):
        codec = get_codec(3)
        data = bytearray(codec.encode_segment(sample_segment))
        data[self._header_end(sample_segment) - 1] ^= 0x01
        with pytest.raises(LogFormatError, match="entry count mismatch"):
            codec.decode_segment(bytes(data))

    def test_unknown_header_flags_rejected(self, sample_segment):
        data = bytearray(get_codec(3).encode_segment(sample_segment))
        flags_offset = self._header_end(sample_segment) - 5
        data[flags_offset] |= 0x80
        with pytest.raises(LogFormatError, match="unknown v3 header flags"):
            get_codec(3).decode_segment(bytes(data))

    def test_corrupt_compressed_frame(self, sample_segment):
        data = bytearray(TypedCodec(compress=True)
                         .encode_segment(sample_segment))
        # Clobber the first frame body (after header + 4-byte frame length).
        offset = self._header_end(sample_segment) + 4
        data[offset:offset + 4] = b"\xde\xad\xbe\xef"
        with pytest.raises(LogFormatError,
                           match="corrupt compressed typed log frame"):
            TypedCodec().decode_segment(bytes(data))

    def test_unknown_type_tag(self):
        entry = _build_log(entries=1, snapshot_every=0).entries[0]
        payload = bytearray(get_codec(3).encode_entry(entry))
        payload[8] = 0xEE  # the type tag byte (after the u64 sequence)
        with pytest.raises(LogFormatError, match="tag"):
            get_codec(3).decode_entry(bytes(payload))

    def test_decode_honours_header_flag_not_constructor(self, sample_segment):
        raw = TypedCodec(compress=False).encode_segment(sample_segment)
        compressed = TypedCodec(compress=True).encode_segment(sample_segment)
        assert len(compressed) < len(raw)
        for blob in (raw, compressed):
            for codec in (TypedCodec(compress=False),
                          TypedCodec(compress=True)):
                decoded = codec.decode_segment(blob)
                assert decoded.entries == sample_segment.entries


class TestV1Errors:
    def test_bad_magic(self):
        with pytest.raises(LogFormatError, match="magic"):
            JsonBz2Codec().decode_segment(b"WRONGMAG" + b"\x00" * 16)

    def test_corrupt_body_is_log_format_error(self, sample_segment):
        data = get_codec(1).encode_segment(sample_segment)
        with pytest.raises(LogFormatError, match="corrupt"):
            JsonBz2Codec().decode_segment(
                data[:MAGIC_LENGTH] + b"garbage-after-magic")


class TestCacheSeeding:
    def test_v2_decode_verifies_wire_bytes_not_reencoding(self,
                                                          sample_segment):
        """A forged frame whose content still parses must fail the chain."""
        codec = get_codec(2)
        entry = sample_segment.entries[0]
        forged = replace(entry, content={**entry.content, "index": -999})
        payload = get_codec(2).encode_entry(forged)
        decoded = codec.decode_entry(payload)
        from repro.log.hashchain import verify_entry
        assert not verify_entry(decoded)

    def test_replace_does_not_inherit_the_cache(self, sample_segment):
        entry = sample_segment.entries[0]
        entry.encoded_content()  # populate the cache
        tampered = replace(entry, content={**entry.content, "x": 1})
        assert tampered.encoded_content() != entry.encoded_content()


class TestCostModel:
    def test_subsegments_tile_the_log(self, sample_segment):
        subs = list(iter_snapshot_subsegments(sample_segment))
        assert sum(len(s.entries) for s in subs) == \
            len(sample_segment.entries)
        assert subs[0].start_hash == sample_segment.start_hash
        for previous, current in zip(subs, subs[1:]):
            assert current.start_hash == previous.end_hash
        for sub in subs[:-1]:
            assert sub.entries[-1].entry_type is EntryType.SNAPSHOT

    def test_modelled_size_is_chunking_independent(self, sample_segment):
        whole = modelled_compressed_log_bytes(sample_segment)
        total = sum(modelled_compressed_log_bytes(sub)
                    for sub in iter_snapshot_subsegments(sample_segment))
        assert whole == total
        assert modelled_compressed_log_bytes(
            LogSegment(machine="m", entries=[], start_hash=bytes(32))) == 0
