"""Unit tests for the versioned LogCodec API (:mod:`repro.log.codec`).

Covers the registry, every codec's two API layers (segment, streaming), the
single-error taxonomy, the cache-seeding contract that makes zero-copy v2
decode safe against stale-cache masking, and the rule that v1 rows and v3
frames store the hash chain only where it breaks.
"""

import bz2
import json
import random
import struct
import zlib
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.tampering import TamperingVMM
from repro.crypto import hashing
from repro.errors import LogFormatError
from repro.log import codec as codec_module
from repro.log.codec import (
    MAGIC_LENGTH,
    V3_FLAG_CHAIN_BREAKS_ONLY,
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
    sniff_format_version,
    supported_format_versions,
)
from repro.log.entries import EntryType, snapshot_content
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

    def test_one_instance_carries_no_state_between_segments(
            self, sample_segment, format_version):
        # Delta counters, dense sequences and the running chain all restart
        # from each segment's own header.
        codec = get_codec(format_version)
        tail = LogSegment(machine=sample_segment.machine,
                          entries=sample_segment.entries[7:],
                          start_hash=sample_segment.entries[7].previous_hash)
        blobs = [codec.encode_segment(segment)
                 for segment in (sample_segment, tail, sample_segment)]
        assert blobs[0] == blobs[2]
        assert codec.decode_segment(blobs[1]).entries == tail.entries
        assert codec.decode_segment(blobs[0]).entries == sample_segment.entries

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
        segment = _build_log(entries=1, snapshot_every=0).full_segment()
        data = bytearray(get_codec(2).encode_segment(segment))
        # header, the frame's u32 length, then the u64 sequence: the tag byte
        header_end = MAGIC_LENGTH + 4 + len(segment.machine.encode()) + 32 + 4
        data[header_end + 4 + 8] = 0xEE
        with pytest.raises(LogFormatError, match="tag"):
            get_codec(2).decode_segment(bytes(data))

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
        segment = _build_log(entries=1, snapshot_every=0).full_segment()
        data = bytearray(TypedCodec(compress=False).encode_segment(segment))
        # header, the frame's u32 length, then the u64 sequence: the tag
        # byte (its two high bits say which hashes follow; 0x2E is no type)
        data[self._header_end(segment) + 4 + 8] = 0x2E
        with pytest.raises(LogFormatError, match="tag"):
            get_codec(3).decode_segment(bytes(data))

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
        decoded = codec.decode_segment(codec.encode_segment(LogSegment(
            machine="m", entries=[forged], start_hash=entry.previous_hash)))
        from repro.log.hashchain import verify_entry
        assert not verify_entry(decoded.entries[0])

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


# ---------------------------------------------------------------------------
# The chain is recomputed, never stored
# ---------------------------------------------------------------------------

def _decode_streamed(data: bytes, chunk_size: int = 11):
    decoder = SegmentStreamDecoder()
    return list(decoder.entries(data[offset:offset + chunk_size]
                                for offset in range(0, len(data), chunk_size)))


def _explicit_hashes(data: bytes) -> dict:
    """``{entry index: "h" / "p" / "hp"}`` for every row or frame of a v1 or
    v3 blob that carries a hash — read off the bytes, not via the decoder."""
    if sniff_format_version(data) == 1:
        rows = json.loads(bz2.decompress(data[MAGIC_LENGTH:]))["rows"]
        marks = ["".join(key for key in "hp" if key in row) for row in rows]
    else:
        position = TypedCodec._header_size(data)
        flags = data[position - 5]
        assert flags & V3_FLAG_CHAIN_BREAKS_ONLY
        marks = []
        while position < len(data):
            (length,) = struct.unpack_from("<I", data, position)
            payload = data[position + 4:position + 4 + length]
            if flags & V3_FLAG_COMPRESSED:
                payload = zlib.decompress(payload)
            tag = payload[8]  # after the u64 sequence
            marks.append(("h" if tag & 0x80 else "")
                         + ("p" if tag & 0x40 else ""))
            position += 4 + length
    return {index: mark for index, mark in enumerate(marks) if mark}


def _chain_breaks(segment: LogSegment) -> dict:
    """The same map from the entries alone: where ``p`` is not the hash of
    the entry before, where ``h`` does not follow from the entry's fields."""
    from repro.log.hashchain import chain_hash
    breaks, running = {}, segment.start_hash
    for index, entry in enumerate(segment.entries):
        mark = ""
        if entry.chain_hash != chain_hash(entry.previous_hash, entry.sequence,
                                          entry.entry_type, entry.content):
            mark += "h"
        if entry.previous_hash != running:
            mark += "p"
        if mark:
            breaks[index] = mark
        running = entry.chain_hash
    return breaks


_SHORT_FORM_CODECS = {
    "v1": lambda: get_codec(1),
    "v3-raw": lambda: TypedCodec(compress=False),
    "v3-zlib": lambda: TypedCodec(),
}


def _assert_lossless(segment: LogSegment, wire: str) -> dict:
    """Round-trip ``segment`` on both decode paths; return its explicit-hash
    map, already checked against the chain breaks of the entries."""
    codec = _SHORT_FORM_CODECS[wire]()
    data = codec.encode_segment(segment)
    decoded = codec.decode_segment(data)
    assert (decoded.machine, decoded.start_hash) == \
        (segment.machine, segment.start_hash)
    assert decoded.entries == segment.entries
    assert _decode_streamed(data) == segment.entries
    explicit = _explicit_hashes(data)
    assert explicit == _chain_breaks(segment)
    return explicit


def _tampered_log(name: str):
    """An honest 30-entry log after one of ``adversary/tampering.py``'s log
    operations, and the index of the first entry it touched."""
    log = _build_log()
    vmm = TamperingVMM(SimpleNamespace(log=log), random.Random(5))
    {"modify": lambda: vmm.modify_entry(12),
     "remove": lambda: vmm.remove_entry(12),
     "reorder": lambda: vmm.swap_entries(12),
     "forge": lambda: vmm.forge_entry(11),
     "fork": lambda: vmm.fork_chain(12)}[name]()
    return log.full_segment(), 11


@pytest.mark.parametrize("wire", sorted(_SHORT_FORM_CODECS))
class TestNoStoredHashes:
    """v1 rows and v3 frames carry ``h`` / ``p`` only at chain breaks — and
    every log, honest or not, still round-trips bit for bit."""

    def test_honest_log_stores_no_hash_at_all(self, sample_segment, wire):
        assert _assert_lossless(sample_segment, wire) == {}
        # ...wherever the segment starts: the header's start hash anchors it.
        tail = LogSegment(machine=sample_segment.machine,
                          entries=sample_segment.entries[13:],
                          start_hash=sample_segment.entries[13].previous_hash)
        assert _assert_lossless(tail, wire) == {}

    @pytest.mark.parametrize("attack, expected", [
        # A rewrite that recomputes the chain is self-consistent: nothing to
        # store (it collides with authenticators peers hold, not with itself).
        ("modify", {}), ("forge", {}), ("fork", {}),
        # Removal renumbers the suffix under its old hashes: the splice has a
        # foreign p, every renumbered entry an h its sequence does not yield.
        ("remove", {11: "hp", **{index: "h" for index in range(12, 31)}}),
        # A swap trades hashes between two positions; the entry after them
        # still names the hash that used to sit before it.
        ("reorder", {11: "hp", 12: "hp", 13: "p"}),
    ])
    def test_tampered_log_keeps_its_wrong_hashes_where_they_are_wrong(
            self, wire, attack, expected):
        segment, first_touched = _tampered_log(attack)
        explicit = _assert_lossless(segment, wire)
        assert explicit == expected
        assert all(index >= first_touched for index in explicit)

    @settings(max_examples=60, deadline=None)
    @given(index=st.integers(0, 31), field=st.sampled_from(
        ["sequence", "entry_type", "content", "chain_hash", "previous_hash",
         "timestamp"]), salt=st.integers(1, 255))
    def test_any_single_field_mutation_round_trips(self, sample_segment, wire,
                                                   index, field, salt):
        entry = sample_segment.entries[index]
        mutated = {
            "sequence": lambda: entry.sequence + salt,
            "entry_type": lambda: [t for t in EntryType
                                   if t is not entry.entry_type][salt % 9],
            "content": lambda: {**entry.content, "index": -salt},
            "chain_hash": lambda: hashing.hash_bytes(bytes([salt])),
            "previous_hash": lambda: hashing.hash_bytes(bytes([salt, 1])),
            "timestamp": lambda: entry.timestamp + salt,
        }[field]()
        entries = list(sample_segment.entries)
        entries[index] = replace(entry, **{field: mutated})
        explicit = _assert_lossless(
            LogSegment(machine=sample_segment.machine, entries=entries,
                       start_hash=sample_segment.start_hash), wire)
        # Only the mutated entry and the one leaning on it can differ from
        # what the chain implies; the timestamp is not in the chain at all.
        assert set(explicit) <= {index, index + 1}
        assert bool(explicit) == (field != "timestamp")

    def test_legacy_json_chain_is_kept_explicitly_in_v1(self, wire):
        """An entry whose chain committed to bytes a v1 reader will not
        rebuild (the pre-typed canonical JSON) keeps its ``h`` in v1; v3
        ships the committed bytes themselves and needs none."""
        from repro.log.entries import encode_content_json, lazy_entry
        from repro.log.hashchain import link_hash
        content = {"destination": "bob", "message_id": "m1",
                   "payload_hash": "ab" * 32, "payload_size": 3}
        wire_bytes = encode_content_json(content)
        start = hashing.hash_bytes(b"start")
        entry = lazy_entry(7, EntryType.SEND, wire_bytes, link_hash(
            start, 7, b"send", hashing.hash_bytes(wire_bytes)), start)
        segment = LogSegment(machine="old", entries=[entry], start_hash=start)
        segment.verify_hash_chain()
        codec = _SHORT_FORM_CODECS[wire]()
        data = codec.encode_segment(segment)
        assert _explicit_hashes(data) == ({0: "h"} if wire == "v1" else {})
        assert codec.decode_segment(data).entries == [entry]
        codec.decode_segment(data).verify_hash_chain()

    def test_truncated_or_garbled_short_form_is_a_format_error(
            self, sample_segment, wire):
        codec = _SHORT_FORM_CODECS[wire]()
        data = codec.encode_segment(sample_segment)
        for cut in (len(data) - 1, len(data) - 9, len(data) // 2):
            with pytest.raises(LogFormatError):
                codec.decode_segment(data[:cut])
            with pytest.raises(LogFormatError):
                _decode_streamed(data[:cut])
        if wire == "v1":
            # A valid bzip2 stream whose JSON stops in the middle of a row.
            body = bz2.decompress(data[MAGIC_LENGTH:])
            garbled = data[:MAGIC_LENGTH] + bz2.compress(body[:len(body) // 2])
        else:
            # The first frame claims an explicit chain hash it has no room
            # for: the content length no longer adds up.
            raw = TypedCodec(compress=False).encode_segment(sample_segment)
            garbled = bytearray(raw)
            garbled[TypedCodec._header_size(raw) + 4 + 8] |= 0x80
            garbled = bytes(garbled)
        with pytest.raises(LogFormatError):
            codec.decode_segment(garbled)
        with pytest.raises(LogFormatError):
            _decode_streamed(garbled)


class TestOldWriterBlobs:
    """Blobs with every hash written out — what every writer before this
    rule produced — decode forever and re-encode to the short form."""

    def test_explicit_hash_v1_blob_decodes(self, sample_segment):
        blob = json.loads(JsonBz2Codec.prepass(sample_segment))
        for row, entry in zip(blob["rows"], sample_segment.entries):
            row["h"] = entry.chain_hash.hex()
            row["p"] = entry.previous_hash.hex()
        old = JsonBz2Codec.MAGIC + bz2.compress(json.dumps(
            blob, sort_keys=True, separators=(",", ":")).encode(), 9)
        short = get_codec(1).encode_segment(sample_segment)
        assert len(short) < 0.6 * len(old)
        for decoded in (decode_segment(old).entries, _decode_streamed(old)):
            assert decoded == sample_segment.entries
        assert get_codec(1).encode_segment(decode_segment(old)) == short

    @pytest.mark.parametrize("flags", [0, V3_FLAG_COMPRESSED])
    def test_pre_flag_v3_blob_decodes(self, sample_segment, flags):
        machine = sample_segment.machine.encode()
        parts = [TypedCodec.MAGIC, struct.pack("<HH", 3, len(machine)),
                 machine, sample_segment.start_hash, bytes([flags]),
                 struct.pack("<I", len(sample_segment.entries))]
        for entry in sample_segment.entries:
            content = entry.encoded_content()
            payload = struct.pack(
                "<QBd32s32sI", entry.sequence,
                codec_module._TYPE_TAGS[entry.entry_type], entry.timestamp,
                entry.chain_hash, entry.previous_hash, len(content)) + content
            if flags & V3_FLAG_COMPRESSED:
                payload = zlib.compress(payload, 1)
            parts += [struct.pack("<I", len(payload)), payload]
        old = b"".join(parts)
        for decoded in (decode_segment(old).entries, _decode_streamed(old)):
            assert decoded == sample_segment.entries
        codec = TypedCodec(compress=bool(flags))
        assert codec.writes_layout_of(old)  # stored as it arrived, if shipped
        short = codec.encode_segment(decode_segment(old))
        assert len(short) < len(old) - 60 * len(sample_segment.entries)
        assert _explicit_hashes(short) == {}
        assert decode_segment(short).entries == sample_segment.entries
