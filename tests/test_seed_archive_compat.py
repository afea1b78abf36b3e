"""Backwards-compatibility pin: the checked-in seed archives stay readable.

``tests/data/seed_v1_archive`` holds segments the v1 (JSON+bz2) pipeline
wrote before the versioned codec API existed; ``tests/data/seed_v3_archive``
holds their migration through ``reencode_segments(format_version=3)`` at the
time the typed codec landed.  Both were written one data file per record and
have since been migrated, once, into frame files under a format-3
checkpoint: every segment payload byte for byte — pinned below by the sha256
of the data file it came from — and the authenticator batch, then JSON lines
under bzip2, re-stored packed.  Every future codec change must keep decoding
them byte-for-byte: this is the repo's guarantee that a reader of
``format_version`` N decodes every blob ever published under N, forever —
they are *reader* pins (both predate the rule that v1 rows and v3 frames
store the hash chain only where it breaks; what the writer emits today is
pinned separately, by digest).  The tests also pin that merely opening an
intact archive mutates nothing on disk, and that a chain-verify of the v3
seed parses zero content dicts.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import struct
import zlib
from pathlib import Path

import pytest

from archive_tools import archived_entry_count, archived_log
from repro.log.codec import (V3_FLAG_CHAIN_BREAKS_ONLY, V3_FLAG_COMPRESSED,
                             TypedCodec, modelled_compressed_log_bytes,
                             sniff_format_version)
from repro.log.entries import content_materializations_total
from repro.log.hashchain import verify_chain_incremental
from repro.store.archive import LogArchive

from codec_tools import explicit_payload, segment_to_bytes

SEED_ROOT = Path(__file__).parent / "data" / "seed_v1_archive"
SEED_V3_ROOT = Path(__file__).parent / "data" / "seed_v3_archive"
MACHINE = "seed-machine"
FRAME_FILE = f"{MACHINE}/frames-000001.avmf"

#: sha256 of each seed segment's per-record data file as published (before
#: the migration into frame files), oldest segment first
PUBLISHED_SEGMENT_DIGESTS = {
    SEED_ROOT: [
        "6ae16fc67a7b2f9e6314316a2734c643e3aa9505dabb6b5889cac522a928c7f2",
        "63a152dab86d6317ac7fd1641c34a4e54ec08d5f622567d5f77c6d520bcb8af5",
        "0e1db315e430563061a7bbbd179f5a59c806759179b52fa0f061e85236734f60",
        "4e93ab207fa4defe3a0320c679a7ef1c8812095f479c4ea58f00d78b1d52d888",
    ],
    SEED_V3_ROOT: [
        "bf5f6d037c38d5e9f8d2997ed7c89b6cd27e7e017cb7239ec7192d249645a941",
        "4fe3a5e8f66017225d2c1f71f7ee8f28dfa3368eae6931e123564505d7538d4d",
        "a5be9cf6d1c91b38cdf9ac553018d6f6c21f060363264ef762f73119f2ac45f3",
        "d41952f8b55c3197c4f7db9ae818e6676823a662d921d631725351a85c3e9455",
    ],
}
#: sha256 of the key-sorted JSON of ``[auth.to_dict() for auth in
#: authenticators_for(MACHINE)]`` as the per-record seeds served it
PUBLISHED_AUTHENTICATORS_DIGEST = \
    "050af03f98c106bb94e7b3a82e11dfd843e630ec179064d9ab439ea55da16330"


def _tree_digests(root: Path) -> dict:
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.fixture()
def seed_archive():
    before = _tree_digests(SEED_ROOT)
    archive = LogArchive(SEED_ROOT)
    yield archive
    assert _tree_digests(SEED_ROOT) == before, \
        "opening/reading the seed archive modified it on disk"


def test_seed_archive_decodes_byte_identically(seed_archive):
    expected = (SEED_ROOT / "expected_segment.jsonl").read_bytes()
    assert segment_to_bytes(archived_log(seed_archive, MACHINE)) == expected


def test_seed_archive_serves_all_read_paths(seed_archive):
    records = seed_archive.segment_records(MACHINE)
    assert {r.file_name for r in records} == {FRAME_FILE}
    total = 0
    for record in records:
        assert record.format_version == 1
        data = seed_archive.stored_bytes_of(record)
        assert sniff_format_version(data) == 1
        # One-shot and streaming decode agree entry for entry.
        segment = seed_archive.read_segment(record)
        streamed = list(seed_archive.stream_segment(record))
        assert streamed == segment.entries
        total += len(segment.entries)
    assert total == archived_entry_count(seed_archive, MACHINE)
    log = archived_log(seed_archive, MACHINE)
    verify_chain_incremental(log.entries, log.start_checkpoint())
    auths = seed_archive.authenticators_for(MACHINE)
    assert auths and all(auth.machine == MACHINE for auth in auths)


@pytest.mark.parametrize("seed_root", [SEED_ROOT, SEED_V3_ROOT],
                         ids=["v1", "v3"])
def test_seed_segments_are_the_published_bytes(seed_root):
    before = _tree_digests(seed_root)
    archive = LogArchive(seed_root)
    assert archive.recovery.clean
    assert [hashlib.sha256(archive.stored_bytes_of(record)).hexdigest()
            for record in archive.segment_records(MACHINE)] == \
        PUBLISHED_SEGMENT_DIGESTS[seed_root]
    assert _tree_digests(seed_root) == before


@pytest.mark.parametrize("seed_root", [SEED_ROOT, SEED_V3_ROOT],
                         ids=["v1", "v3"])
def test_seed_authenticators_are_the_published_list(seed_root):
    auths = LogArchive(seed_root).authenticators_for(MACHINE)
    assert len(auths) == 18
    assert hashlib.sha256(json.dumps(
        [auth.to_dict() for auth in auths], sort_keys=True).encode()
    ).hexdigest() == PUBLISHED_AUTHENTICATORS_DIGEST


@pytest.fixture()
def seed_v3_archive():
    before = _tree_digests(SEED_V3_ROOT)
    archive = LogArchive(SEED_V3_ROOT)
    yield archive
    assert _tree_digests(SEED_V3_ROOT) == before, \
        "opening/reading the v3 seed archive modified it on disk"


def test_v3_seed_archive_decodes_byte_identically(seed_v3_archive):
    # Same expected segment as the v1 seed: the typed wire is a pure
    # re-encoding of the same log.
    expected = (SEED_V3_ROOT / "expected_segment.jsonl").read_bytes()
    assert segment_to_bytes(archived_log(seed_v3_archive, MACHINE)) == \
        expected
    assert expected == (SEED_ROOT / "expected_segment.jsonl").read_bytes()


def test_v3_seed_archive_serves_all_read_paths(seed_v3_archive):
    records = seed_v3_archive.segment_records(MACHINE)
    assert {r.file_name for r in records} == {FRAME_FILE}
    total = 0
    for record in records:
        assert record.format_version == 3
        data = seed_v3_archive.stored_bytes_of(record)
        assert sniff_format_version(data) == 3
        segment = seed_v3_archive.read_segment(record)
        streamed = list(seed_v3_archive.stream_segment(record))
        assert streamed == segment.entries
        total += len(segment.entries)
    assert total == archived_entry_count(seed_v3_archive, MACHINE)
    log = archived_log(seed_v3_archive, MACHINE)
    verify_chain_incremental(log.entries, log.start_checkpoint())
    auths = seed_v3_archive.authenticators_for(MACHINE)
    assert auths and all(auth.machine == MACHINE for auth in auths)


def test_v3_seed_frames_are_the_explicit_layout(seed_v3_archive):
    # The reader branch the seed needs: flag bit 1 clear, every hash written
    # out — exactly what the test writer of that layout produces, frame by
    # frame (compared inflated: zlib output may vary per build).
    for record in seed_v3_archive.segment_records(MACHINE):
        data = seed_v3_archive.stored_bytes_of(record)
        _, _, flags, _, position = TypedCodec._unpack_header(memoryview(data))
        assert flags == V3_FLAG_COMPRESSED
        assert not flags & V3_FLAG_CHAIN_BREAKS_ONLY
        payloads = []
        while position < len(data):
            (length,) = struct.unpack_from("<I", data, position)
            payloads.append(zlib.decompress(
                data[position + 4:position + 4 + length]))
            position += 4 + length
        assert payloads == [explicit_payload(entry) for entry
                            in seed_v3_archive.read_segment(record).entries]


def test_modelled_size_is_below_the_published_v1_bytes(seed_v3_archive):
    # The modelled figure is what *today's* v1 writer stores for the same
    # entries (no p at all; the seed's chain commits to pre-typed JSON bytes
    # a v1 reader does not rebuild, so its h stays): smaller than the
    # published v1 files, and the same whichever seed it is decoded from.
    v1_seed = LogArchive(SEED_ROOT)
    for record, v1_record in zip(seed_v3_archive.segment_records(MACHINE),
                                 v1_seed.segment_records(MACHINE)):
        modelled = modelled_compressed_log_bytes(
            seed_v3_archive.read_segment(record))
        assert modelled == modelled_compressed_log_bytes(
            v1_seed.read_segment(v1_record))
        assert modelled < 0.9 * v1_record.stored_bytes


def test_v3_seed_chain_verify_is_materialization_free(seed_v3_archive):
    # The lazy-decode contract, pinned against checked-in bytes: a chain
    # verify over the v3 seed never parses a content payload.
    segments = [seed_v3_archive.read_segment(record)
                for record in seed_v3_archive.segment_records(MACHINE)]
    before = content_materializations_total()
    for segment in segments:
        verify_chain_incremental(segment.entries, segment.start_checkpoint())
    assert content_materializations_total() == before
    # First content access *does* materialize — the counter is live.
    _ = segments[0].entries[0].content
    assert content_materializations_total() == before + 1


#: sha256 of today's v1 writer's encoding of each seed segment — the writer
#: pin (the checked-in files are reader pins: they predate the rule that the
#: chain is stored only where it breaks, and decode forever)
SEED_SHORT_FORM_V1_DIGESTS = [
    "43262ef19451607f73aded5565f61101ee127d3854f2c31f3871abb1c9e6f60c",
    "93bc1f932739928a015a0b6d524ff81b4b5edbe2fc47b37787b95662c73be712",
    "05b21a87fea999de1b31fc0f48dc1fe663f59587b3796616ede7336fa4cd46a9",
    "efbbda22124934db4b06faed3591dd6e273afbb53d3c25201a0f3abfae3af600",
]


def test_seed_archive_reencodes_to_v3_and_back(seed_archive, tmp_path):
    # v1 seed -> v3 decodes identically; v3 seed -> v1 yields the pinned
    # short form, smaller than the published files and decoding to the same
    # log.  (Never assert re-encoded v3 bytes equal the checked-in files:
    # zlib output may vary per build.)
    v3 = seed_archive.reencode_segments(tmp_path / "v3", format_version=3)
    expected = (SEED_ROOT / "expected_segment.jsonl").read_bytes()
    assert segment_to_bytes(archived_log(v3, MACHINE)) == expected
    for record, seed_record in zip(
            v3.segment_records(MACHINE),
            LogArchive(SEED_V3_ROOT).segment_records(MACHINE)):
        assert record.format_version == 3
        assert record.stored_bytes < seed_record.stored_bytes
    back = LogArchive(SEED_V3_ROOT).reencode_segments(
        tmp_path / "v1-again", format_version=1)
    assert segment_to_bytes(archived_log(back, MACHINE)) == expected
    for seed_record, record, digest in zip(
            seed_archive.segment_records(MACHINE),
            back.segment_records(MACHINE), SEED_SHORT_FORM_V1_DIGESTS):
        data = back.stored_bytes_of(record)
        assert hashlib.sha256(data).hexdigest() == digest
        assert len(data) < seed_record.stored_bytes


@pytest.mark.parametrize("seed_root", [SEED_ROOT, SEED_V3_ROOT])
def test_seed_archives_accept_an_append(seed_root, tmp_path):
    # A seed is an archive like any other: the next append is one group at
    # the end of its frame file, and the checkpoint is not rewritten.
    work = tmp_path / "seed"
    shutil.copytree(seed_root, work)
    archive = LogArchive(work)
    assert archive.recovery.clean
    records = archive.segment_records(MACHINE)
    stored = [archive.stored_bytes_of(record) for record in records]
    auths = archive.authenticators_for(MACHINE)
    expected = (seed_root / "expected_segment.jsonl").read_bytes()
    checkpoint = (work / "MANIFEST.json").read_bytes()
    frames = (work / FRAME_FILE).read_bytes()
    archive.store_authenticators(MACHINE, auths[:2])
    assert sorted(path.relative_to(work).as_posix()
                  for path in work.rglob("*") if path.is_file()) == [
        "MANIFEST.json", "expected_segment.jsonl", FRAME_FILE]
    assert (work / "MANIFEST.json").read_bytes() == checkpoint
    assert json.loads(checkpoint)["format_version"] == 3
    grown = (work / FRAME_FILE).read_bytes()
    assert grown.startswith(frames) and len(grown) > len(frames)
    for reopened in (archive, LogArchive(work)):
        assert reopened.recovery.clean
        assert segment_to_bytes(archived_log(reopened, MACHINE)) == expected
        assert [reopened.stored_bytes_of(record) for record
                in reopened.segment_records(MACHINE)] == stored
        assert reopened.segment_records(MACHINE) == records
        assert reopened.authenticators_for(MACHINE) == auths + auths[:2]
