"""Backwards-compatibility pin: the checked-in seed archives stay readable.

``tests/data/seed_v1_archive`` was produced by the v1 (JSON+bz2) pipeline
before the versioned codec API existed; ``tests/data/seed_v3_archive`` is
its migration through ``reencode_segments(format_version=3)`` at the time
the typed codec landed.  Both are checked in verbatim.  Every future codec
change must keep decoding them byte-for-byte: this is the repo's guarantee
that a reader of ``format_version`` N decodes every blob ever published
under N, forever — they are *reader* pins (both predate the rule that v1
rows and v3 frames store the hash chain only where it breaks; what the
writer emits today is pinned separately, by digest).  The
tests also pin that merely opening an intact archive mutates nothing on
disk, and that a chain-verify of the v3 seed parses zero content dicts.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.log.codec import modelled_compressed_log_bytes, sniff_format_version
from repro.log.entries import content_materializations_total
from repro.log.storage import segment_to_bytes
from repro.store.archive import LogArchive

SEED_ROOT = Path(__file__).parent / "data" / "seed_v1_archive"
SEED_V3_ROOT = Path(__file__).parent / "data" / "seed_v3_archive"
MACHINE = "seed-machine"


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
    assert segment_to_bytes(seed_archive.materialized_log(MACHINE)) == expected


def test_seed_archive_serves_all_read_paths(seed_archive):
    records = seed_archive.segment_records(MACHINE)
    assert [r.file_name.endswith(".avmlogz") for r in records] == \
        [True] * len(records)
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
    assert total == seed_archive.entry_count(MACHINE)
    seed_archive.materialized_log(MACHINE).verify_hash_chain()
    auths = seed_archive.authenticators_for(MACHINE)
    assert auths and all(auth.machine == MACHINE for auth in auths)


def test_seed_archive_reencodes_to_v2(seed_archive, tmp_path):
    v2 = seed_archive.reencode_segments(tmp_path / "v2", format_version=2)
    expected = (SEED_ROOT / "expected_segment.jsonl").read_bytes()
    assert segment_to_bytes(v2.materialized_log(MACHINE)) == expected
    for record in v2.segment_records(MACHINE):
        assert record.format_version == 2


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
    assert segment_to_bytes(seed_v3_archive.materialized_log(MACHINE)) == \
        expected
    assert expected == (SEED_ROOT / "expected_segment.jsonl").read_bytes()


def test_v3_seed_archive_serves_all_read_paths(seed_v3_archive):
    records = seed_v3_archive.segment_records(MACHINE)
    assert [r.file_name.endswith(".avmlogt") for r in records] == \
        [True] * len(records)
    total = 0
    for record in records:
        assert record.format_version == 3
        data = seed_v3_archive.stored_bytes_of(record)
        assert sniff_format_version(data) == 3
        segment = seed_v3_archive.read_segment(record)
        streamed = list(seed_v3_archive.stream_segment(record))
        assert streamed == segment.entries
        total += len(segment.entries)
    assert total == seed_v3_archive.entry_count(MACHINE)
    seed_v3_archive.materialized_log(MACHINE).verify_hash_chain()
    auths = seed_v3_archive.authenticators_for(MACHINE)
    assert auths and all(auth.machine == MACHINE for auth in auths)


def test_v3_seed_manifest_keeps_its_retired_size_key(seed_v3_archive):
    # The pinned manifest was written when segment records cached their
    # v1-compressed size; the key is still on disk, loads, and is ignored
    # (the fixture also proves opening the archive did not rewrite it).
    manifest = json.loads((SEED_V3_ROOT / "MANIFEST.json").read_text())
    assert all("wire_v1_bytes" in record for record in manifest["segments"])
    for record in seed_v3_archive.segment_records(MACHINE):
        assert not hasattr(record, "wire_v1_bytes")
    # The retired key held what the v1 writer of its day stored — the v1
    # seed's own file sizes, a pin on published bytes.  The figure reported
    # today is what *today's* v1 writer stores for the same entries (no p at
    # all; the seed's chain commits to pre-typed JSON bytes a v1 reader does
    # not rebuild, so its h stays): smaller, and the same whichever seed the
    # entries were decoded from.
    v1_seed = LogArchive(SEED_ROOT)
    for stored, record, v1_record in zip(
            manifest["segments"], seed_v3_archive.segment_records(MACHINE),
            v1_seed.segment_records(MACHINE)):
        assert stored["wire_v1_bytes"] == v1_record.stored_bytes
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
        segment.verify_hash_chain()
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
    assert segment_to_bytes(v3.materialized_log(MACHINE)) == expected
    for record, seed_record in zip(
            v3.segment_records(MACHINE),
            LogArchive(SEED_V3_ROOT).segment_records(MACHINE)):
        assert record.format_version == 3
        assert record.stored_bytes < seed_record.stored_bytes
    back = LogArchive(SEED_V3_ROOT).reencode_segments(
        tmp_path / "v1-again", format_version=1)
    assert segment_to_bytes(back.materialized_log(MACHINE)) == expected
    for seed_record, record, digest in zip(
            seed_archive.segment_records(MACHINE),
            back.segment_records(MACHINE), SEED_SHORT_FORM_V1_DIGESTS):
        data = back.stored_bytes_of(record)
        assert hashlib.sha256(data).hexdigest() == digest
        assert len(data) < seed_record.stored_bytes


@pytest.mark.parametrize("seed_root", [SEED_ROOT, SEED_V3_ROOT])
def test_seed_archives_migrate_on_their_first_append(seed_root, tmp_path):
    # Read-only until then (the fixtures above prove opening writes nothing);
    # the first append rewrites the per-record files into one frame file,
    # once, and everything reads back as it did.
    work = tmp_path / "seed"
    shutil.copytree(seed_root, work)
    archive = LogArchive(work)
    assert archive.recovery.clean
    records = archive.segment_records(MACHINE)
    stored = [archive.stored_bytes_of(record) for record in records]
    auths = archive.authenticators_for(MACHINE)
    expected = (seed_root / "expected_segment.jsonl").read_bytes()
    archive.store_authenticators(MACHINE, auths[:2])
    assert sorted(path.relative_to(work).as_posix()
                  for path in work.rglob("*") if path.is_file()) == [
        "MANIFEST.json", "expected_segment.jsonl",
        f"{MACHINE}/frames-000001.avmf"]
    assert json.loads((work / "MANIFEST.json").read_text())[
        "format_version"] == 3
    for reopened in (archive, LogArchive(work)):
        assert reopened.recovery.clean
        assert segment_to_bytes(reopened.materialized_log(MACHINE)) == expected
        assert [reopened.stored_bytes_of(record) for record
                in reopened.segment_records(MACHINE)] == stored
        assert [(r.first_sequence, r.last_sequence, r.start_hash, r.end_hash,
                 r.sealed_by_snapshot, r.format_version, r.raw_bytes)
                for r in reopened.segment_records(MACHINE)] == \
            [(r.first_sequence, r.last_sequence, r.start_hash, r.end_hash,
              r.sealed_by_snapshot, r.format_version, r.raw_bytes)
             for r in records]
        assert reopened.authenticators_for(MACHINE) == auths + auths[:2]
