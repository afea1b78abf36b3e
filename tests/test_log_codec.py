"""Unit tests for the versioned LogCodec API (:mod:`repro.log.codec`).

Covers the registry, every codec's two API layers (segment, streaming), the
single-error taxonomy, the cache-seeding contract that makes zero-copy v3
decode safe against stale-cache masking, the rule that v1 rows and v3
frames store the hash chain only where it breaks, the one v1 reader's
strictness wherever it reads (the door, the stream, the archive), and the
rule that decode plus chain check hash each link once.  The v3 reader's second
frame layout — every hash written out, the v3 seed archive's — runs as the
``"3-explicit"`` cell, written by the test writer in ``codec_tools``.
"""

import bz2
import json
import random
import struct
import zlib
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.tampering import TamperingVMM
from repro.crypto import hashing
from repro.errors import ArchiveIntegrityError, LogFormatError
from repro.log import codec as codec_module
from repro.log.codec import (
    MAGIC_LENGTH,
    V3_FLAG_CHAIN_BREAKS_ONLY,
    V3_FLAG_COMPRESSED,
    V3_FLAG_ONE_STREAM,
    JsonBz2Codec,
    TypedCodec,
    SegmentStreamDecoder,
    codec_for_data,
    decode_segment,
    encode_segment,
    get_codec,
    modelled_compressed_log_bytes,
    require_format_version,
    sniff_format_version,
    supported_format_versions,
)
from repro.log.entries import EntryType, snapshot_content
from repro.log.hashchain import ChainCheckpoint, verify_chain_incremental
from repro.log.segments import LogSegment, split_at_snapshots
from repro.log.tamper_evident import TamperEvidentLog
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive

from archive_tools import archived_log, replace_payload, ship
from codec_tools import (ExplicitTypedCodec, PerFrameTypedCodec,
                         per_frame_v3_blob, retired_v2_blob)


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


#: a codec per cell: the two formats' writers, and the v3 explicit layout
_CODECS = {1: JsonBz2Codec, 3: TypedCodec, "3-explicit": ExplicitTypedCodec}


class TestRegistry:
    def test_all_formats_registered(self):
        assert supported_format_versions() == [1, 3]

    def test_get_codec_returns_fresh_instances(self):
        assert get_codec(1) is not get_codec(1)
        assert isinstance(get_codec(1), JsonBz2Codec)
        assert isinstance(get_codec(3), TypedCodec)

    def test_unknown_version_is_one_well_typed_error(self):
        for retired_or_unknown in (2, 99):
            with pytest.raises(LogFormatError, match="format version"):
                get_codec(retired_or_unknown)
        with pytest.raises(LogFormatError, match="format version"):
            require_format_version(None, what="whatever")

    def test_magics_are_distinct_and_sized(self):
        magics = {JsonBz2Codec.MAGIC, TypedCodec.MAGIC}
        assert len(magics) == 2
        for magic in magics:
            assert len(magic) == MAGIC_LENGTH

    def test_sniffing(self, sample_segment):
        for version in (1, 3):
            data = get_codec(version).encode_segment(sample_segment)
            assert sniff_format_version(data) == version
            assert codec_for_data(data).format_version == version
        for refused in (b"NOTMAGIC" + b"x" * 64, retired_v2_blob(sample_segment)):
            with pytest.raises(LogFormatError, match="magic"):
                sniff_format_version(refused)
            with pytest.raises(LogFormatError, match="magic"):
                decode_segment(refused)


@pytest.mark.parametrize("format_version", [1, 3, "3-explicit"])
class TestSegmentRoundTrip:
    def test_round_trip_preserves_everything(self, sample_segment,
                                             format_version):
        codec = _CODECS[format_version]()
        decoded = codec.decode_segment(codec.encode_segment(sample_segment))
        assert decoded.machine == sample_segment.machine
        assert decoded.start_hash == sample_segment.start_hash
        assert decoded.entries == sample_segment.entries
        verify_chain_incremental(decoded.entries, decoded.start_checkpoint())

    def test_empty_segment_round_trips(self, format_version):
        empty = LogSegment(machine="empty", entries=[],
                           start_hash=bytes(32))
        codec = _CODECS[format_version]()
        decoded = codec.decode_segment(codec.encode_segment(empty))
        assert decoded.machine == "empty"
        assert decoded.entries == []

    def test_module_level_helpers_sniff(self, sample_segment, format_version):
        data = encode_segment(sample_segment, format_version=format_version) \
            if format_version in (1, 3) \
            else _CODECS[format_version]().encode_segment(sample_segment)
        decoded = decode_segment(data)
        assert decoded.entries == sample_segment.entries

    def test_one_instance_carries_no_state_between_segments(
            self, sample_segment, format_version):
        # Delta counters, dense sequences and the running chain all restart
        # from each segment's own header.
        codec = _CODECS[format_version]()
        tail = LogSegment(machine=sample_segment.machine,
                          entries=sample_segment.entries[7:],
                          start_hash=sample_segment.entries[7].previous_hash)
        blobs = [codec.encode_segment(segment)
                 for segment in (sample_segment, tail, sample_segment)]
        assert blobs[0] == blobs[2]
        assert codec.decode_segment(blobs[1]).entries == tail.entries
        assert codec.decode_segment(blobs[0]).entries == sample_segment.entries

    def test_framing_round_trip(self, sample_segment, format_version):
        codec = _CODECS[format_version]()
        data = codec.encode_segment(sample_segment)
        whole = codec.decode_segment(data)
        assert len(whole.entries) == len(sample_segment.entries)

    def test_streaming_decoder_matches_one_shot(self, sample_segment,
                                                format_version):
        data = _CODECS[format_version]().encode_segment(sample_segment)
        for chunk_size in (1, 7, 64, len(data)):
            decoder = SegmentStreamDecoder()
            chunks = (data[offset:offset + chunk_size]
                      for offset in range(0, len(data), chunk_size))
            entries = list(decoder.entries(chunks))
            assert entries == sample_segment.entries
            assert decoder.header["machine"] == sample_segment.machine
            assert decoder.entry_count == len(sample_segment.entries)


class TestExplicitLayoutErrors:
    """The v3 reader's explicit-layout branch (the seed's), on bad bytes."""

    @staticmethod
    def _header_end(segment) -> int:
        # magic + <HH> prefix + machine + 32-byte hash + flags + count
        return MAGIC_LENGTH + 4 + len(segment.machine.encode()) + 32 + 1 + 4

    def test_bad_magic(self, sample_segment):
        # ... the retired format 2 among the magics refused
        for data in (b"WRONGMAG" + b"\x00" * 32,
                     retired_v2_blob(sample_segment)):
            with pytest.raises(LogFormatError, match="magic"):
                TypedCodec().decode_segment(data)

    def test_truncated_header(self, sample_segment):
        data = ExplicitTypedCodec(compress=False).encode_segment(sample_segment)
        with pytest.raises(LogFormatError, match="truncated"):
            TypedCodec().decode_segment(data[:MAGIC_LENGTH + 2])

    def test_truncated_frame(self, sample_segment):
        data = ExplicitTypedCodec(compress=False).encode_segment(sample_segment)
        with pytest.raises(LogFormatError):
            TypedCodec().decode_segment(data[:-3])

    def test_entry_count_mismatch(self, sample_segment):
        data = bytearray(ExplicitTypedCodec(compress=False).encode_segment(sample_segment))
        # Flip the header's entry count (last 4 bytes of the header).
        data[self._header_end(sample_segment) - 1] ^= 0x01
        with pytest.raises(LogFormatError, match="entry count mismatch"):
            TypedCodec().decode_segment(bytes(data))

    def test_unknown_type_tag(self):
        segment = _build_log(entries=1, snapshot_every=0).full_segment()
        data = bytearray(ExplicitTypedCodec(compress=False).encode_segment(segment))
        # header, the frame's u32 length, then the u64 sequence: the tag byte
        data[self._header_end(segment) + 4 + 8] = 0xEE
        with pytest.raises(LogFormatError, match="tag"):
            TypedCodec().decode_segment(bytes(data))

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
        data = bytearray(PerFrameTypedCodec().encode_segment(sample_segment))
        # Clobber the first frame body (after header + 4-byte frame length).
        offset = self._header_end(sample_segment) + 4
        data[offset:offset + 4] = b"\xde\xad\xbe\xef"
        with pytest.raises(LogFormatError,
                           match="corrupt compressed typed log"):
            TypedCodec().decode_segment(bytes(data))

    def test_corrupt_compressed_body(self, sample_segment):
        data = bytearray(get_codec(3).encode_segment(sample_segment))
        # Clobber the zlib stream's header, just after the v3 header.
        offset = self._header_end(sample_segment)
        data[offset:offset + 4] = b"\xde\xad\xbe\xef"
        with pytest.raises(LogFormatError, match="corrupt compressed typed log"):
            TypedCodec().decode_segment(bytes(data))

    def test_unknown_type_tag(self):
        segment = _build_log(entries=1, snapshot_every=0).full_segment()
        data = bytearray(PerFrameTypedCodec(compress=False)
                         .encode_segment(segment))
        # header, the frame's u32 length, then the u64 sequence: the tag
        # byte (its two high bits say which hashes follow; 0x2E is no type)
        data[self._header_end(segment) + 4 + 8] = 0x2E
        with pytest.raises(LogFormatError, match="tag"):
            get_codec(3).decode_segment(bytes(data))

    def test_decode_honours_the_header_flags(self, sample_segment):
        raw = per_frame_v3_blob(sample_segment)
        per_frame = per_frame_v3_blob(sample_segment, compress=True)
        one_stream = get_codec(3).encode_segment(sample_segment)
        assert len(one_stream) < len(per_frame) < len(raw)
        for blob in (raw, per_frame, one_stream):
            assert TypedCodec().decode_segment(blob).entries == \
                sample_segment.entries


def _v1_rewritten(segment: LogSegment, first_row) -> bytes:
    """``segment``'s v1 blob with its first row's text replaced by
    ``first_row(row dict, row text)`` — everything else as the writer lays
    it out."""
    body = json.loads(JsonBz2Codec.prepass(segment))
    rows = [json.dumps(row, sort_keys=True, separators=(",", ":"))
            for row in body["rows"]]
    rows[0] = first_row(body["rows"][0], rows[0])
    text = '{"header":' + json.dumps(
        body["header"], sort_keys=True, separators=(",", ":")) \
        + ',"rows":[' + ",".join(rows) + "]}"
    return JsonBz2Codec.MAGIC + bz2.compress(text.encode("utf-8"), 9)


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


#: v1 blobs the writer never writes: each must be refused by every reader
_NONCANONICAL_V1 = {
    "bytes after the bzip2 stream":
        lambda segment: get_codec(1).encode_segment(segment) + b"\x00junk",
    "a space after a colon in a row": lambda segment: _v1_rewritten(
        segment, lambda row, text: text.replace(":", ": ", 1)),
    "unsorted keys": lambda segment: _v1_rewritten(
        segment, lambda row, text: _compact(dict(reversed(row.items())))),
    # ...which decodes to exactly the entries of the honest blob.
    "a duplicate key": lambda segment: _v1_rewritten(
        segment, lambda row, text: '{"c":' + _compact(row["c"]) + ","
        + text[1:]),
    '"c" as a list of pairs': lambda segment: _v1_rewritten(
        segment, lambda row, text: _compact(
            {**row, "c": sorted(row["c"].items())})),
    '"s": 1.0': lambda segment: _v1_rewritten(
        segment, lambda row, text: _compact({**row, "s": float(row["s"])})),
    "a comma before the closing bracket": lambda segment:
        JsonBz2Codec.MAGIC + bz2.compress(
            JsonBz2Codec.prepass(segment)[:-2] + b",]}", 9),
}


class TestV1Errors:
    def test_bad_magic(self):
        with pytest.raises(LogFormatError, match="magic"):
            JsonBz2Codec().decode_segment(b"WRONGMAG" + b"\x00" * 16)

    def test_corrupt_body_is_log_format_error(self, sample_segment):
        data = get_codec(1).encode_segment(sample_segment)
        with pytest.raises(LogFormatError, match="corrupt"):
            JsonBz2Codec().decode_segment(
                data[:MAGIC_LENGTH] + b"garbage-after-magic")

    @pytest.mark.parametrize("mutation", sorted(_NONCANONICAL_V1))
    def test_both_decoders_refuse_a_noncanonical_blob(self, sample_segment,
                                                      mutation):
        data = _NONCANONICAL_V1[mutation](sample_segment)
        with pytest.raises(LogFormatError):
            decode_segment(data)
        with pytest.raises(LogFormatError):
            list(SegmentStreamDecoder().entries([data]))
        with pytest.raises(LogFormatError):
            _decode_streamed(data)

    @pytest.mark.parametrize("mutation", sorted(_NONCANONICAL_V1))
    def test_the_ingest_door_quarantines_a_noncanonical_blob(
            self, sample_segment, tmp_path, mutation):
        service = AuditIngestService(
            LogArchive(tmp_path / "a", format_version=1))
        ship(service, sample_segment.machine,
             segment=_NONCANONICAL_V1[mutation](sample_segment))
        assert "undecodable segment" in service.quarantine[0].reason
        assert service.archive.machines() == []

    @pytest.mark.parametrize("mutation", sorted(_NONCANONICAL_V1))
    def test_the_archive_stream_refuses_a_noncanonical_payload(
            self, sample_segment, tmp_path, mutation):
        archive = LogArchive(tmp_path / "a", format_version=1)
        record = archive.append_segment(sample_segment)
        replace_payload(archive.root, record,
                        _NONCANONICAL_V1[mutation](sample_segment))
        archive = LogArchive(tmp_path / "a")
        (record,) = archive.segment_records(sample_segment.machine)
        with pytest.raises(ArchiveIntegrityError):
            list(archive.stream_segment(record))


class TestV1TextSplits:
    """bzip2 hands the reader whole blocks (up to 900 kB of text), so only a
    long segment splits its text between pieces; here the text is re-cut at
    random, a few characters a piece, so that every structure — the header's
    literal, a row, a separator, the closing brace — straddles a cut."""

    @staticmethod
    def _resplit(monkeypatch, seed: int) -> None:
        rng, real = random.Random(seed), codec_module._v1_text

        def pieces(compressed, chunks):
            text, position = "".join(real(compressed, chunks)), 0
            while position < len(text):
                size = rng.randint(1, 24)
                yield text[position:position + size]
                position += size
        monkeypatch.setattr(codec_module, "_v1_text", pieces)

    @pytest.mark.parametrize("seed", range(6))
    def test_any_cut_reads_the_same_entries(self, sample_segment, monkeypatch,
                                            seed):
        data = get_codec(1).encode_segment(sample_segment)
        self._resplit(monkeypatch, seed)
        assert decode_segment(data).entries == sample_segment.entries
        empty = LogSegment(machine="m", entries=[],
                           start_hash=sample_segment.start_hash)
        assert decode_segment(get_codec(1).encode_segment(empty)) == empty

    @pytest.mark.parametrize("mutation", sorted(_NONCANONICAL_V1))
    def test_any_cut_refuses_what_the_writer_never_writes(
            self, sample_segment, monkeypatch, mutation):
        data = _NONCANONICAL_V1[mutation](sample_segment)
        for seed in range(3):
            self._resplit(monkeypatch, seed)
            with pytest.raises(LogFormatError):
                decode_segment(data)


def _recut(data: bytes, seed: int):
    """``data`` in pieces of 1 to 24 bytes, cut at random."""
    rng, position = random.Random(seed), 0
    while position < len(data):
        size = rng.randint(1, 24)
        yield data[position:position + size]
        position += size


def _v3_with(segment: LogSegment, *, flags=None, count=None) -> bytes:
    """``segment``'s v3 blob with its header's flags or entry count
    replaced."""
    blob = bytearray(get_codec(3).encode_segment(segment))
    end = TypedCodec._header_size(blob)
    if flags is not None:
        blob[end - 5] = flags
    if count is not None:
        blob[end - 4:end] = struct.pack("<I", count)
    return bytes(blob)


#: one-stream v3 blobs the writer never writes, and what refuses them:
#: both readers, with the same error
_BROKEN_V3 = {
    "bytes after the zlib stream": (
        lambda segment: get_codec(3).encode_segment(segment) + b"\x00junk",
        "not exactly one zlib stream"),
    "a truncated zlib stream": (
        lambda segment: get_codec(3).encode_segment(segment)[:-3],
        "zlib stream did not end"),
    "flags 0x05": (lambda segment: _v3_with(
        segment, flags=V3_FLAG_COMPRESSED | V3_FLAG_ONE_STREAM),
        "both compression bits"),
    "an entry-count mismatch": (lambda segment: _v3_with(
        segment, count=len(segment.entries) + 1), "entry count mismatch"),
}


class TestV3BodySplits:
    """The v3 body is one zlib stream, inflated a piece at a time as chunks
    arrive; here the stored blob is re-cut at random, a few bytes a piece,
    so that the header, the zlib stream's own header and trailer, a frame's
    length prefix and its payload each straddle a cut."""

    @pytest.mark.parametrize("seed", range(6))
    def test_any_cut_reads_the_same_entries(self, sample_segment, seed):
        for segment in (sample_segment, LogSegment(
                machine="m", entries=[], start_hash=sample_segment.start_hash)):
            data = get_codec(3).encode_segment(segment)
            decoder = get_codec(3).stream_decoder()
            assert list(decoder.entries(_recut(data, seed))) == \
                segment.entries
            assert decoder.header == {"machine": segment.machine,
                                      "start_hash": segment.start_hash.hex()}

    @pytest.mark.parametrize("mutation", sorted(_BROKEN_V3))
    def test_any_cut_refuses_what_the_writer_never_writes(
            self, sample_segment, mutation):
        broken, error = _BROKEN_V3[mutation]
        data = broken(sample_segment)
        with pytest.raises(LogFormatError, match=error) as whole:
            decode_segment(data)
        for seed in range(3):
            with pytest.raises(LogFormatError) as cut:
                list(get_codec(3).stream_decoder().entries(
                    _recut(data, seed)))
            assert str(cut.value) == str(whole.value)


class TestPerFrameIsReadOnly:
    """Each frame deflated on its own — the v3 layout before the one
    stream — is read forever and written never: not by the writer, not by
    the ingest door (test_store_service), not by a migration."""

    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_writes_layout_of_refuses_a_per_frame_blob(
            self, sample_segment, compress, explicit):
        codec = get_codec(3)
        per_frame = per_frame_v3_blob(sample_segment, compress, explicit)
        assert decode_segment(per_frame).entries == sample_segment.entries
        assert not codec.writes_layout_of(per_frame)
        assert codec.writes_layout_of(codec.encode_segment(sample_segment))

    def test_reencoding_the_v3_seed_archive_writes_one_stream(self, tmp_path):
        seed = LogArchive(Path(__file__).parent / "data" / "seed_v3_archive")
        migrated = seed.reencode_segments(tmp_path / "v3", format_version=3)
        (machine,) = seed.machines()
        records = migrated.segment_records(machine)
        assert len(records) == len(seed.segment_records(machine))
        for record, seed_record in zip(records,
                                       seed.segment_records(machine)):
            data = migrated.stored_bytes_of(record)
            assert TypedCodec._unpack_header(memoryview(data))[2] == \
                V3_FLAG_CHAIN_BREAKS_ONLY | V3_FLAG_ONE_STREAM
            assert len(data) < seed_record.stored_bytes
            assert migrated.read_segment(record).entries == \
                seed.read_segment(seed_record).entries
        log = archived_log(migrated, machine)
        assert verify_chain_incremental(
            log.entries, log.start_checkpoint()).chain_hash == \
            records[-1].end_hash


class TestCacheSeeding:
    def test_explicit_v3_decode_verifies_wire_bytes_not_reencoding(
            self, sample_segment):
        """A forged frame whose content still parses must fail the chain."""
        codec = ExplicitTypedCodec()
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
        subs = list(split_at_snapshots(sample_segment))
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
                    for sub in split_at_snapshots(sample_segment))
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
        if flags & V3_FLAG_ONE_STREAM:
            data, position = zlib.decompress(data[position:]), 0
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
    "v3-raw": lambda: PerFrameTypedCodec(compress=False),
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
        verify_chain_incremental(segment.entries, segment.start_checkpoint())
        codec = _SHORT_FORM_CODECS[wire]()
        data = codec.encode_segment(segment)
        assert _explicit_hashes(data) == ({0: "h"} if wire == "v1" else {})
        decoded = codec.decode_segment(data)
        assert decoded.entries == [entry]
        verify_chain_incremental(decoded.entries, decoded.start_checkpoint())

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
            raw = per_frame_v3_blob(sample_segment)
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
        codec = get_codec(3)
        assert not codec.writes_layout_of(old)  # re-encoded, if shipped
        short = codec.encode_segment(decode_segment(old))
        assert len(short) < len(old) - 60 * len(sample_segment.entries)
        assert _explicit_hashes(short) == {}
        assert decode_segment(short).entries == sample_segment.entries


def _with_legacy_links(segment: LogSegment, every: int = 7) -> LogSegment:
    """``segment`` re-chained so that every ``every``-th entry commits to
    its content's pre-typed canonical JSON: honest, and a chain break a v1
    row must store (v3 carries the committed bytes themselves)."""
    from repro.log.entries import encode_content_json, lazy_entry
    from repro.log.hashchain import chain_hash, entry_link_hash
    entries, running = [], segment.start_hash
    for index, entry in enumerate(segment.entries):
        if index % every == 3:
            wire = encode_content_json(entry.content)
            entry = lazy_entry(
                entry.sequence, entry.entry_type, wire, entry_link_hash(
                    running, entry.sequence, entry.entry_type,
                    hashing.hash_bytes(wire)), running, entry.timestamp)
        else:
            entry = replace(entry, previous_hash=running, chain_hash=chain_hash(
                running, entry.sequence, entry.entry_type, entry.content))
        entries.append(entry)
        running = entry.chain_hash
    return LogSegment(machine=segment.machine, entries=entries,
                      start_hash=segment.start_hash)


class TestEachLinkOnce:
    """A decoder that derives ``h_i`` memoises the link it hashed, so
    decoding and verifying a segment hashes each link once; where a reader
    did not derive it — a stored chain break, a live log — the chain check
    hashes it."""

    @staticmethod
    def _count_links(monkeypatch) -> list:
        from repro.log import hashchain
        calls, real = [], hashchain.entry_link_hash

        def counting(*args):
            calls.append(args[1])
            return real(*args)
        monkeypatch.setattr(hashchain, "entry_link_hash", counting)
        monkeypatch.setattr(codec_module, "entry_link_hash", counting)
        return calls

    @pytest.mark.parametrize("wire", sorted(_SHORT_FORM_CODECS))
    def test_decode_and_verify_hash_each_link_once(self, sample_segment,
                                                   monkeypatch, wire):
        segment = _with_legacy_links(sample_segment)
        data = _SHORT_FORM_CODECS[wire]().encode_segment(segment)
        breaks = len(_explicit_hashes(data))
        assert breaks == (5 if wire == "v1" else 0)
        calls = self._count_links(monkeypatch)
        decoded = decode_segment(data)
        verify_chain_incremental(decoded.entries, decoded.start_checkpoint())
        assert len(calls) == len(segment.entries) + breaks
        del calls[:]
        verify_chain_incremental(_decode_streamed(data), ChainCheckpoint(
            segment.entries[0].sequence - 1, segment.start_hash))
        assert len(calls) == len(segment.entries) + breaks

    def test_a_live_log_hashes_every_link(self, monkeypatch):
        segment = _build_log().full_segment()
        calls = self._count_links(monkeypatch)
        verify_chain_incremental(segment.entries, segment.start_checkpoint())
        assert sorted(calls) == [entry.sequence for entry in segment.entries]

    @pytest.mark.parametrize("wire", sorted(_SHORT_FORM_CODECS))
    def test_replace_drops_the_memo(self, sample_segment, monkeypatch, wire):
        codec = _SHORT_FORM_CODECS[wire]()
        decoded = codec.decode_segment(codec.encode_segment(sample_segment))
        assert all("_link" in entry.__dict__ for entry in decoded.entries)
        copies = [replace(entry) for entry in decoded.entries]
        assert not any("_link" in entry.__dict__ for entry in copies)
        calls = self._count_links(monkeypatch)
        verify_chain_incremental(copies, decoded.start_checkpoint())
        assert len(calls) == len(copies)
