"""Seeded-random property tests for the streaming audit pipeline.

Three properties pin the stream's correctness (stdlib ``random`` only — the
container has no network, so no hypothesis):

* **Resumability** — interrupting the chunk stream at any chunk boundary
  and resuming from the persisted
  :class:`~repro.log.hashchain.ChainCheckpoint` yields exactly the entry
  sequence and checkpoints of one uninterrupted pass; a checkpoint off a
  segment boundary, or off the archived chain, is refused.
* **Chunking invariance** — folding the audit kernel over a log cut into one
  chunk, into every snapshot chunk, or into any merge of adjacent chunks gives
  the same verdict and phase, checkpoints that tile, and the same replay
  counters ("checkpoint-resume equals full replay").
* **Corruption parity** — any single-bit flip in an archived segment file
  surfaces through the streaming reader as the same error class the
  in-memory reader raises (and, for hash-chain breaks, at the same sequence
  number); flips that touch only uncovered bookkeeping (the timestamp) leave
  both readers returning identical entries.

Plus the byte-exactness property of the incremental compression meter, which
the cost-model equivalence of the whole pipeline rests on.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.catalog import make_adversary
from repro.adversary.matrix import CellSpec, ScenarioMatrix
from repro.audit.kernel import (BoundaryContext, chunk_job,
                                fetch_verified_snapshot_entry, fold_outcomes,
                                last_snapshot_entry, run_chunk)
from repro.audit.stream import iter_stream_chunks
from repro.audit.verdict import AuditPhase
from repro.errors import HashChainError, ReproError
from repro.log.codec import JsonBz2Codec, SegmentStreamDecoder
from repro.log.entries import EntryType
from repro.log.hashchain import verify_chain_incremental
from repro.log.segments import LogSegment, concatenate_segments
from repro.log.tamper_evident import TamperEvidentLog
from repro.service.fleet import build_fleet
from repro.service.target import ArchiveBackedMachine
from repro.store.archive import LogArchive

from archive_tools import replace_payload
from compression_meter import IncrementalCompressionMeter


@pytest.fixture(scope="module")
def archived_run(tmp_path_factory):
    """A short honest archived run with a dozen-odd segments per machine."""
    root = tmp_path_factory.mktemp("stream-props") / "archive"
    build_fleet(num_machines=2, duration=10.0, seed=13,
                snapshot_interval=1.0, archive=LogArchive(root))
    archive = LogArchive(root)
    machine = archive.machines()[0]
    assert len(archive.segment_records(machine)) >= 8
    return archive, machine


# ---------------------------------------------------------------------------
# Property (a): resuming at any boundary reproduces the uninterrupted pass
# ---------------------------------------------------------------------------

class TestResumeProperty:
    def test_resume_chunk_iterator_at_chunk_boundaries(self, archived_run):
        archive, machine = archived_run
        target = ArchiveBackedMachine(archive, machine)
        chunks = list(iter_stream_chunks(target))
        assert len(chunks) > 2
        rng = random.Random(7)
        for cut in rng.sample(range(1, len(chunks)), min(4, len(chunks) - 1)):
            resumed = list(iter_stream_chunks(
                target, start=chunks[cut - 1].end_checkpoint))
            assert [c.segment.entries for c in resumed] == \
                [c.segment.entries for c in chunks[cut:]]
            assert [c.end_checkpoint for c in resumed] == \
                [c.end_checkpoint for c in chunks[cut:]]

    def test_resume_off_boundary_is_refused(self, archived_run):
        archive, machine = archived_run
        records = archive.segment_records(machine)
        wide = [r for r in records if r.entry_count > 1]
        assert wide
        from repro.log.hashchain import ChainCheckpoint
        mid = ChainCheckpoint(sequence=wide[0].first_sequence,
                              chain_hash=b"\x00" * 32)
        target = ArchiveBackedMachine(archive, machine)
        with pytest.raises(ReproError):
            list(iter_stream_chunks(target, start=mid))
        # Mid-segment inside the LAST record and past-the-end checkpoints
        # must also refuse — an empty stream would let the suffix pass as
        # "fully audited".
        head = records[-1].end_checkpoint()
        inside_last = ChainCheckpoint(sequence=head.sequence - 1,
                                      chain_hash=b"\x11" * 32)
        with pytest.raises(ReproError):
            list(iter_stream_chunks(target, start=inside_last))
        beyond = ChainCheckpoint(sequence=head.sequence + 99,
                                 chain_hash=b"\x22" * 32)
        with pytest.raises(ReproError):
            list(iter_stream_chunks(target, start=beyond))
        # Resume exactly at the head is the legitimate empty suffix...
        assert list(iter_stream_chunks(target, start=head)) == []
        # ...but only with the matching chain hash.
        forged_head = ChainCheckpoint(sequence=head.sequence,
                                      chain_hash=b"\x33" * 32)
        with pytest.raises(ReproError):
            list(iter_stream_chunks(target, start=forged_head))


# ---------------------------------------------------------------------------
# Property: the fold of the kernel does not depend on the chunking
# ---------------------------------------------------------------------------

def _recorded(adversary_name):
    """The kv server of one recorded pair (honest, or running a cheating
    guest), an auditor holding its authenticators, and its segments."""
    matrix = ScenarioMatrix(duration=3.0, snapshot_interval=0.5)
    adversary = make_adversary(adversary_name, seed=5200)
    ctx, run = matrix._build(CellSpec(adversary_name, "kv", "full", 2, 5200),
                             adversary, None)
    adversary.install(ctx)
    run()
    adversary.corrupt(ctx)
    target = ctx.monitor
    return (matrix._make_auditor(ctx, target.identity, adversary), target,
            target.get_snapshot_segments())


def _fold(auditor, target, segments, tiling):
    """Audit ``segments`` grouped as ``tiling`` (lists of adjacent segment
    indices): every group through the kernel under the boundary state and
    context its predecessor leaves, then the one fold."""
    authenticators = auditor.authenticators_for(target.identity)
    audited = []
    state, snapshot_bytes, context, boundary = None, 0, BoundaryContext(), None
    for index, group in enumerate(tiling):
        chunk = concatenate_segments([segments[i] for i in group])
        if index:
            state, snapshot_bytes = fetch_verified_snapshot_entry(target,
                                                                  boundary)
        context.ends_log = group[-1] == len(segments) - 1
        job = chunk_job(
            chunk, authenticators, auditor.keystore, auditor.reference_image,
            chunk_index=index, initial_state=state,
            snapshot_bytes=snapshot_bytes, context=context)
        audited.append((job, run_chunk(job)))
        context = context.after(chunk)
        boundary = last_snapshot_entry(chunk)
    result, failed = fold_outcomes(target.identity, auditor.identity, audited)
    return audited, result, failed


def _tilings(count, rng, merges=6):
    """One chunk, every snapshot chunk, and random merges of adjacent ones."""
    yield [list(range(count))]
    yield [[index] for index in range(count)]
    for _ in range(merges):
        cuts = sorted(rng.sample(range(1, count), rng.randrange(1, count - 1)))
        yield [list(range(start, stop))
               for start, stop in zip([0] + cuts, cuts + [count])]


COUNTERS = ("events_injected", "outputs_checked", "snapshots_checked",
            "clock_reads_served", "instructions_executed",
            "entries_replayed")


class TestChunkingInvariance:
    def test_honest_log_folds_the_same_however_it_is_cut(self):
        auditor, target, segments = _recorded("honest")
        assert len(segments) >= 6
        whole = target.get_log_segment()
        serial = auditor.audit(target)
        # what the serial audit — the kernel over the log as one chunk —
        # reports is what every other cut must fold to
        reference = {name: getattr(serial.replay_report, name)
                     for name in COUNTERS}
        reference["authenticators"] = serial.authenticators_checked
        reference["log_bytes"] = whole.size_bytes()
        for tiling in _tilings(len(segments), random.Random(0xC0FFEE)):
            audited, result, failed = _fold(auditor, target, segments, tiling)
            assert failed is None and result.ok, (tiling, result.reason)
            # checkpoints tile: each chunk starts where the last one ended
            for (_, before), (job, _) in zip(audited, audited[1:]):
                assert job.checkpoint == before.end_checkpoint, tiling
            assert audited[0][0].checkpoint == whole.start_checkpoint()
            assert audited[-1][1].end_checkpoint == whole.end_checkpoint()
            counters = {name: getattr(result.replay_report, name)
                        for name in COUNTERS}
            counters["authenticators"] = result.authenticators_checked
            counters["log_bytes"] = result.cost.log_bytes_downloaded
            assert counters == reference, tiling

    def test_cheating_log_fails_the_same_however_it_is_cut(self):
        auditor, target, segments = _recorded("cheating-guest")
        serial = auditor.audit(target)
        assert serial.phase is AuditPhase.SEMANTIC_CHECK
        keystore, image = auditor.keystore, auditor.reference_image
        for tiling in _tilings(len(segments), random.Random(0xBADC0DE)):
            audited, result, job = _fold(auditor, target, segments, tiling)
            failed = next(outcome for _, outcome in audited if not outcome.ok)
            assert job is audited[failed.chunk_index][0], tiling
            assert result.verdict is failed.verdict is serial.verdict, tiling
            assert result.phase is failed.phase is serial.phase, tiling
            assert result.reason == failed.reason == serial.reason, tiling
            # every chunk before the first failing one passed
            assert all(outcome.ok
                       for _, outcome in audited[:failed.chunk_index])
            # and the failing chunk alone convinces a third party
            evidence = auditor.evidence_for(job, result)
            assert evidence.segment.entries == job.segment.entries
            assert evidence.verify(keystore, image), tiling


# ---------------------------------------------------------------------------
# Property (b): bit flips surface identically on both readers
# ---------------------------------------------------------------------------

def _read_materializing(archive, machine):
    """Entries via the in-memory reader + whole-chain verification."""
    entries = []
    checkpoint = archive.start_checkpoint(machine)
    for record in archive.segment_records(machine):
        segment = archive.read_segment(record)
        checkpoint = verify_chain_incremental(segment.entries, checkpoint)
        entries.extend(segment.entries)
    return entries


def _read_streaming(archive, machine):
    entries = []
    for chunk in iter_stream_chunks(ArchiveBackedMachine(archive, machine)):
        verify_chain_incremental(chunk.segment.entries, chunk.start_checkpoint)
        entries.extend(chunk.segment.entries)
    return entries


class TestBitFlipParity:
    TRIALS = 24

    def test_single_bit_flips_surface_identically(self, archived_run):
        archive, machine = archived_run
        records = archive.segment_records(machine)
        rng = random.Random(0xB17F11B)
        outcomes = {"clean": 0, "error": 0}
        for trial in range(self.TRIALS):
            record = rng.choice(records)
            path = archive.root / record.file_name
            original = path.read_bytes()
            position = rng.randrange(record.stored_bytes)
            bit = 1 << rng.randrange(8)
            corrupted = bytearray(archive.stored_bytes_of(record))
            corrupted[position] ^= bit
            # (with the frame's checksums redone: the decoders, not the
            # crc32 in front of them, are what is being compared)
            replace_payload(archive.root, record, bytes(corrupted))
            try:
                fresh = LogArchive(archive.root)
                materializing_entries = materializing_error = None
                streaming_entries = streaming_error = None
                try:
                    materializing_entries = _read_materializing(fresh, machine)
                except Exception as exc:  # noqa: BLE001 - class parity test
                    materializing_error = exc
                try:
                    streaming_entries = _read_streaming(fresh, machine)
                except Exception as exc:  # noqa: BLE001 - class parity test
                    streaming_error = exc

                context = (f"trial {trial}: flip bit {bit:#x} at byte "
                           f"{position} of {record.label()}")
                if materializing_error is None:
                    assert streaming_error is None, \
                        f"{context}: streaming raised {streaming_error!r}, " \
                        f"in-memory read cleanly"
                    assert streaming_entries == materializing_entries, context
                    outcomes["clean"] += 1
                else:
                    assert streaming_error is not None, \
                        f"{context}: in-memory raised " \
                        f"{materializing_error!r}, streaming read cleanly"
                    assert type(streaming_error) \
                        is type(materializing_error), \
                        f"{context}: class divergence — in-memory " \
                        f"{materializing_error!r}, streaming {streaming_error!r}"
                    if isinstance(materializing_error, HashChainError):
                        # Chain breaks must be attributed to the same entry.
                        assert str(streaming_error) \
                            == str(materializing_error), context
                    outcomes["error"] += 1
            finally:
                path.write_bytes(original)
        # The sweep must have exercised the detection path, not just
        # no-op flips in uncovered bookkeeping bytes.
        assert outcomes["error"] > 0
        print(f"\nbit-flip outcomes: {outcomes}")


# ---------------------------------------------------------------------------
# Meter and decoder properties (randomized)
# ---------------------------------------------------------------------------

def _random_segment(rng: random.Random, entries: int) -> LogSegment:
    log = TamperEvidentLog(f"machine-{rng.randrange(1000)}")
    counter = 0
    for index in range(entries):
        content = {"index": index,
                   "blob": "".join(rng.choice("abcdef0123456789")
                                   for _ in range(rng.randrange(0, 40)))}
        if rng.random() < 0.6:
            counter += rng.randrange(1, 5000)
            content["execution_counter"] = counter
        log.append(EntryType.ANNOTATION, content)
    return LogSegment(machine=log.machine, entries=list(log.entries),
                      start_hash=log.entries[0].previous_hash)


class TestCodecProperties:
    def test_meter_matches_one_shot_compression(self):
        compressor = JsonBz2Codec()
        rng = random.Random(42)
        for _ in range(8):
            segment = _random_segment(rng, rng.randrange(1, 120))
            meter = IncrementalCompressionMeter(segment.machine,
                                                segment.start_hash)
            for entry in segment.entries:
                meter.add(entry)
            assert meter.finish() == len(compressor.encode_segment(segment))
            assert meter.raw_bytes == segment.size_bytes()

    def test_stream_decoder_matches_one_shot_decode(self):
        compressor = JsonBz2Codec()
        rng = random.Random(43)
        for _ in range(6):
            segment = _random_segment(rng, rng.randrange(1, 80))
            data = compressor.encode_segment(segment)
            size = rng.choice([1, 7, 64, 4096, len(data)])
            decoder = SegmentStreamDecoder()
            chunks = [data[i:i + size] for i in range(0, len(data), size)]
            assert list(decoder.entries(chunks)) == segment.entries
            assert decoder.header["machine"] == segment.machine
