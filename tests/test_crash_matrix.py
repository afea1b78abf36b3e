"""The crash matrix: the store is killed at every ``os``-level call it makes.

For each mutating operation of :mod:`repro.store` and of the ingest service —
the shipment append (onto a new machine, onto an existing one), the
checkpoint, GC, re-encoding into another archive, an
append onto a checked-in seed archive, the quarantine write and recovery
itself — the operation runs once under :class:`crash_harness.FaultyOS` to
enumerate its calls, then once more per call (and per byte class of every
``write``) with the process model killed there, under the strictest disk
(nothing un-fsynced survives: "fsync returned, rename not durable") and the
laziest (everything did).  After every kill the archive is reopened and must
be: chain-continuous and index-consistent (``deep_verify``, every payload
against its checksum), **atomic** — exactly the state before the operation
or exactly the state after, no shipment half-visible, nothing committed
lost — free of the three states a crash must not be able to produce
(*segment without its sealing snapshot*, *index record without its data*,
*data without its index record*), willing to accept the interrupted shipment
afresh with nothing quarantined, and ``recovery.clean`` on the open after.
The enumeration is asserted complete: every call of the clean run is
visited, and a mutating call the model does not know fails the test.

``TestByHand`` is the hand-written head of the matrix (what a commit costs,
a tail torn at *every* byte, damage before it, a stale generation).
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

from crash_harness import Crash, FaultyOS, crash_points, trace_of
from repro.errors import ArchiveIntegrityError, LogFormatError
from repro.log.codec import require_format_version
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive
from repro.store.manifest import MANIFEST_NAME

from archive_tools import World, shipment, summary

@pytest.fixture(scope="module")
def world():
    return World()


def recovered(root, sealed_have_snapshots=True):
    """Reopen after a kill; everything that must hold at every point."""
    archive = LogArchive(root, deep_verify=True)  # chains, segment payloads
    for record in archive._all_records():  # noqa: SLF001
        archive.stored_bytes_of(record)    # no index record without its data
    for holder, file_name in archive._files.items():  # noqa: SLF001
        # ... and no data without its index record
        assert (Path(root) / file_name).stat().st_size == \
            archive._ends[holder]  # noqa: SLF001
    for machine in archive.machines():
        snapshots = set(archive.snapshot_store(machine).snapshot_ids())
        for record in archive.segment_records(machine):
            if sealed_have_snapshots and record.sealed_by_snapshot is not None:
                assert record.sealed_by_snapshot in snapshots, \
                    f"segment of {machine} without its sealing snapshot"
    again = LogArchive(root)
    assert again.recovery.clean, again.recovery
    assert summary(again) == summary(archive)
    return archive


def run_matrix(tmp_path, base, action, allowed, redo=None, check=recovered):
    """Kill ``action(root)`` at every point of its clean run on a copy of
    ``base``; after each, the reopened archive's summary must be one of
    ``allowed(clean run's summary)`` and ``redo(root)`` (if the operation did
    not happen) must bring it to the clean run's.  Returns the clean trace."""
    clean = tmp_path / "clean"
    shutil.copytree(base, clean)
    model = trace_of(clean, lambda: action(clean))
    opened = LogArchive(clean)
    assert opened.recovery.clean, opened.recovery
    after = summary(check(clean))
    # nothing committed lost: once the call has returned, losing everything
    # that was never fsynced (an unlink at most) loses nothing of it
    model.power_loss()
    assert summary(check(clean)) == after, "the operation was not durable"
    allowed = allowed(after)
    visited = set()
    for number, (crash_at, cut, what) in enumerate(crash_points(model)):
        for lose in ((True, False) if cut is None else (False,)):
            work = tmp_path / f"kill-{number}-{int(lose)}"
            shutil.copytree(base, work)
            faulty = FaultyOS(work, crash_at, cut, lose)
            with faulty.installed(), pytest.raises(Crash):
                action(work)
            assert faulty.trace == model.trace[:crash_at + 1], what
            visited.add(crash_at)
            context = f"killed {what}, un-fsynced effects " \
                      f"{'lost' if lose else 'kept'}"
            state = summary(check(work))
            assert state in allowed, context
            if state != after and redo is not None:
                redo(work)
                assert summary(check(work)) == after, context
            shutil.rmtree(work)
    assert visited == set(range(len(model.trace))), "a call was never visited"
    return model.trace


def deliver(message):
    """An action: a new ingest service over the root takes ``message`` —
    accepted whole, nothing quarantined."""
    def action(root):
        service = AuditIngestService(LogArchive(root))
        service.on_message(message)
        assert not service.quarantine, service.quarantine
    return action


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------

class TestCrashMatrix:
    def test_shipment_onto_a_fresh_archive(self, world, tmp_path):
        base = tmp_path / "base"
        base.mkdir()
        message = world.shipments["alpha"][0]
        trace = run_matrix(tmp_path, base, deliver(message),
                           lambda after: [{}, after], redo=deliver(message))
        # the machine's directory and file, then the checkpoint naming them
        assert [operation for operation, _ in trace] == [
            "mkdir", "open", "write", "fsync", "fsync",
            "open", "write", "fsync", "replace", "fsync"]

    def test_shipment_onto_an_existing_machine(self, world, tmp_path):
        base = tmp_path / "base"
        world.ingest(base, seals=2)
        before = summary(LogArchive(base))
        message = world.shipments["alpha"][2]
        trace = run_matrix(tmp_path, base, deliver(message),
                           lambda after: [before, after], redo=deliver(message))
        assert trace == [("write", "alpha/frames-000001.avmf"),
                         ("fsync", "alpha/frames-000001.avmf")]

    def test_second_machine_in_an_existing_archive(self, world, tmp_path):
        base = tmp_path / "base"
        world.ingest(base, seals=2, machines=("alpha",))
        before = summary(LogArchive(base))
        message = world.shipments["beta"][0]
        run_matrix(tmp_path, base, deliver(message),
                   lambda after: [before, after], redo=deliver(message))

    def test_shipment_with_a_refused_part_and_the_quarantine_write(
            self, world, tmp_path):
        base = tmp_path / "base"
        world.ingest(base, seals=1)
        before = summary(LogArchive(base))
        good = world.shipments["alpha"][1]
        from repro.network.shipment import (ShipmentPart, PartKind,
                                            decode_shipment)
        lying = shipment("alpha", parts=[
            ShipmentPart(PartKind.SNAPSHOT, b"not a page file"),
            *decode_shipment(good.payload)[1:]])

        def action(root):
            service = AuditIngestService(LogArchive(root))
            service.on_message(lying)
            assert [q.reason[:20] for q in service.quarantine] == \
                ["undecodable snapshot"]

        def check(root):
            # a segment sealed by the snapshot this shipper withheld: the
            # one such state there is, and a lie's doing, not a crash's
            archive = recovered(root, sealed_have_snapshots=False)
            quarantine = AuditIngestService(archive).quarantine
            # the refusal is on file, whole, at most once — and if the parts
            # it rode with are archived, it is (it was fsynced before them)
            assert [q.machine for q in quarantine] in ([], ["alpha"])
            if summary(archive) != before:
                assert len(quarantine) == 1
            return archive

        trace = run_matrix(tmp_path, base, action,
                           lambda after: [before, after], check=check)
        assert ("open", "quarantine.jsonl") in trace
        assert trace.index(("fsync", "quarantine.jsonl")) < \
            trace.index(("write", "alpha/frames-000001.avmf"))

    def test_checkpoint(self, world, tmp_path):
        base = tmp_path / "base"
        world.ingest(base, seals=2)
        anchor = LogArchive(base).head_checkpoint("alpha")
        before = summary(LogArchive(base))

        def action(root):
            LogArchive(root).adopt_retention_checkpoint("gamma", anchor)

        def check(root):
            archive = recovered(root)
            assert archive.retained_checkpoint("gamma") in (None, anchor)
            return archive
        trace = run_matrix(tmp_path, base, action,
                           lambda after: [before, after], check=check)
        assert [operation for operation, _ in trace] == [
            "open", "write", "fsync", "replace", "fsync"]
        assert LogArchive(tmp_path / "clean").retained_checkpoint("gamma") \
            == anchor

    def test_gc(self, world, tmp_path):
        base = tmp_path / "base"
        world.ingest(base)
        opened = LogArchive(base)
        before = summary(opened)
        boundary = opened.segment_records("alpha")[1]
        assert opened._snapshot_index["alpha"][2].kind == "delta"  # noqa: SLF001

        def action(root):
            checkpoint = LogArchive(root).truncate("alpha",
                                                   boundary.last_sequence)
            assert checkpoint == boundary.end_checkpoint()

        trace = run_matrix(tmp_path, base, action,
                           lambda after: [before, after], redo=action)
        after = summary(LogArchive(tmp_path / "clean"))
        assert after["alpha"]["retained"] == boundary.end_checkpoint()
        assert sorted(after["alpha"]["snapshots"]) == [2, 3, 4]
        assert after["alpha"]["snapshots"] == {
            key: before["alpha"]["snapshots"][key] for key in (2, 3, 4)}
        assert after["beta"] == before["beta"]
        # the next generation's file whole, then the checkpoint, then the
        # old file's unlink — the one place temp + rename survives
        assert [operation for operation, _ in trace] == [
            "open", "write", "fsync", "replace", "fsync",
            "open", "write", "fsync", "replace", "fsync", "unlink"]

    def test_across_a_truncate_appends_resume(self, world, tmp_path):
        base = tmp_path / "base"
        world.ingest(base, seals=3)
        boundary = LogArchive(base).segment_records("alpha")[1]
        LogArchive(base).truncate("alpha", boundary.last_sequence)
        before = summary(LogArchive(base))
        message = world.shipments["alpha"][3]
        trace = run_matrix(tmp_path, base, deliver(message),
                           lambda after: [before, after], redo=deliver(message))
        assert trace == [("write", "alpha/frames-000003.avmf"),
                         ("fsync", "alpha/frames-000003.avmf")]

    def test_reencode_into_another_archive(self, world, tmp_path):
        source = tmp_path / "source"
        world.ingest(source, seals=3)
        LogArchive(source).truncate(
            "alpha", LogArchive(source).segment_records("alpha")[0].last_sequence)
        listing = {path: path.read_bytes() for path in source.rglob("*")
                   if path.is_file()}
        base = tmp_path / "base"
        base.mkdir()

        def action(root):
            LogArchive(source).reencode_segments(root, format_version=3)

        def prefixes(after):
            # one group per machine, in name order (an anchor adopted ahead
            # of its machine's group indexes nothing yet)
            return [{}, {"alpha": after["alpha"]}, after]

        def check(root):
            archive = recovered(root)
            # (an adopted anchor alone makes no machine: nothing is indexed)
            assert archive.retained_checkpoint("alpha") in (
                None, LogArchive(source).retained_checkpoint("alpha"))
            return archive
        run_matrix(tmp_path, base, action, prefixes, check=check)
        assert {path: path.read_bytes() for path in source.rglob("*")
                if path.is_file()} == listing
        expected = {machine: {**state, "segments": [
            (*segment[:4], 3) for segment in state["segments"]]}
            for machine, state in summary(LogArchive(source)).items()}
        assert summary(LogArchive(tmp_path / "clean")) == expected

    def test_a_migrated_seed_archive(self, tmp_path):
        base = tmp_path / "base"
        shutil.copytree(Path(__file__).parent / "data" / "seed_v1_archive", base)
        before = summary(LogArchive(base))
        auths = LogArchive(base).authenticators_for("seed-machine")[:2]

        def action(root):
            LogArchive(root).store_authenticators("seed-machine", auths)
        # (the seed holds no snapshot at all: its seals name none archived)
        trace = run_matrix(tmp_path, base, action,
                           lambda after: [before, after], redo=action,
                           check=lambda root: recovered(root, False))
        assert trace == [("write", "seed-machine/frames-000001.avmf"),
                         ("fsync", "seed-machine/frames-000001.avmf")]
        after = summary(LogArchive(tmp_path / "clean"))["seed-machine"]
        assert after["authenticators"] == \
            before["seed-machine"]["authenticators"] + auths

    def test_recovery_itself(self, world, tmp_path):
        # What a kill inside an append and one inside GC leave behind at
        # once: a torn tail to cut and a generation to sweep — and then the
        # process dies again, inside the open that was cleaning up.
        base = tmp_path / "base"
        world.ingest(base, seals=2)
        before = summary(LogArchive(base))
        frames = base / "alpha" / "frames-000001.avmf"
        with open(frames, "ab") as handle:
            handle.write(world.shipments["alpha"][2].payload[40:300])
        (base / "alpha" / "frames-000002.avmf").write_bytes(frames.read_bytes())
        (base / "beta" / "frames-000002.avmf.tmp").write_bytes(b"half")

        def action(root):
            report = LogArchive(root).recovery
            assert report.torn_tails == ["alpha/frames-000001.avmf"]
            assert report.orphan_files == ["alpha/frames-000002.avmf",
                                           "beta/frames-000002.avmf.tmp"]

        def check(root):
            LogArchive(root)  # the open after the kill finishes the job
            return recovered(root)
        trace = run_matrix(tmp_path, base, action, lambda after: [before],
                           check=check)
        assert [operation for operation, _ in trace] == [
            "truncate", "unlink", "unlink"]


# ---------------------------------------------------------------------------
# The hand-written head of the matrix
# ---------------------------------------------------------------------------

class TestByHand:
    """What a crash at each step of an append or a rewrite leaves, and that
    opening recovers from it (docs/log-archive.md, "Write protocol")."""

    @staticmethod
    def _listing(root):
        return {path.relative_to(root).as_posix(): path.read_bytes()
                for path in Path(root).rglob("*") if path.is_file()}

    def test_a_shipment_is_one_write_and_one_fsync(self, world, tmp_path,
                                                   monkeypatch):
        calls = []
        real_fsync, real_write = os.fsync, os.write

        def recording_fsync(fd):
            calls.append(("fsync", os.path.basename(
                os.readlink(f"/proc/self/fd/{fd}"))))
            real_fsync(fd)

        def recording_write(fd, data):
            calls.append(("write", os.path.basename(
                os.readlink(f"/proc/self/fd/{fd}"))))
            return real_write(fd, data)
        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "write", recording_write)
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        service.on_message(world.shipments["alpha"][0])
        # Once per name: the file, the machine directory it is new in, the
        # checkpoint that lists it, the root both are new in.
        assert calls == [
            ("write", "frames-000001.avmf"), ("fsync", "frames-000001.avmf"),
            ("fsync", "alpha"),
            ("write", MANIFEST_NAME + ".tmp"), ("fsync", MANIFEST_NAME + ".tmp"),
            ("fsync", "a")]
        del calls[:]
        service.on_message(world.shipments["alpha"][1])
        # three parts — page file, segment, batch — one write, one fsync
        assert calls == [("write", "frames-000001.avmf"),
                         ("fsync", "frames-000001.avmf")]
        # ... and all of it is on disk when the call returns.
        reopened = LogArchive(tmp_path / "a")
        assert reopened.entry_count("alpha") == 12
        assert reopened.snapshot_store("alpha").snapshot_ids() == [1, 2]
        assert len(reopened.authenticators_for("beta")) == 3

    def test_torn_tail_is_dropped_at_every_cut(self, world, tmp_path):
        root = tmp_path / "a"
        world.ingest(root, seals=3, machines=("alpha",))
        frames = root / "alpha" / "frames-000001.avmf"
        whole = frames.read_bytes()
        two_seals = tmp_path / "two"
        world.ingest(two_seals, seals=2, machines=("alpha",))
        committed = (two_seals / "alpha" / "frames-000001.avmf").read_bytes()
        assert whole.startswith(committed) and len(committed) < len(whole)
        before = summary(LogArchive(two_seals))
        flipped = bytearray(whole)
        flipped[-3] ^= 0x40  # a whole last group, its commit record off: torn
        for torn in [whole[:cut] for cut in range(len(committed) + 1, len(whole))] \
                + [bytes(flipped)]:
            frames.write_bytes(torn)
            reopened = LogArchive(root)
            # every earlier group intact, the torn one gone — cut off
            assert reopened.recovery.torn_tails == ["alpha/frames-000001.avmf"]
            assert not reopened.recovery.clean
            assert frames.read_bytes() == committed
            assert summary(reopened) == before
            # ... and the same shipment is accepted afresh
            deliver(world.shipments["alpha"][2])(root)
            assert frames.read_bytes() == whole
        assert LogArchive(root).recovery.clean

    def test_damage_before_the_last_commit_is_refused_and_nothing_deleted(
            self, world, tmp_path):
        root = tmp_path / "a"
        world.ingest(root, seals=3, machines=("alpha",))
        frames = root / "alpha" / "frames-000001.avmf"
        whole = frames.read_bytes()
        archive = LogArchive(root)
        payloads = [range(record.offset, record.offset + record.stored_bytes)
                    for record in archive._all_records()]  # noqa: SLF001
        last_group = min(record.offset for record
                         in archive._all_records()  # noqa: SLF001
                         if record.commit == 3) - 100
        refused = 0
        for offset in range(0, last_group, 7):
            damaged = bytearray(whole)
            damaged[offset] ^= 0x01
            frames.write_bytes(bytes(damaged))
            before = self._listing(root)
            if any(offset in payload for payload in payloads):
                # payloads are not read at open: caught when read, by the
                # checksum its frame header carries
                opened = LogArchive(root)
                with pytest.raises(ArchiveIntegrityError, match="checksum"):
                    for record in opened._all_records():  # noqa: SLF001
                        opened.stored_bytes_of(record)
            else:
                with pytest.raises(ArchiveIntegrityError,
                                   match="frame file|contiguous"):
                    LogArchive(root)
                refused += 1
            assert self._listing(root) == before
        assert refused > 20

    def test_a_stale_generation_is_ignored_and_swept(self, world, tmp_path):
        root = tmp_path / "a"
        world.ingest(root, seals=3)
        archive = LogArchive(root)
        old = (root / "alpha" / "frames-000001.avmf").read_bytes()
        records = archive.segment_records("alpha")
        archive.truncate("alpha", records[0].last_sequence)
        assert not (root / "alpha" / "frames-000001.avmf").exists()
        # The crash between "checkpoint switched" and "old file unlinked".
        (root / "alpha" / "frames-000001.avmf").write_bytes(old)
        reopened = LogArchive(root)
        assert reopened.recovery.orphan_files == ["alpha/frames-000001.avmf"]
        assert not (root / "alpha" / "frames-000001.avmf").exists()
        assert [r.first_sequence for r in reopened.segment_records("alpha")] \
            == [r.first_sequence for r in records[1:]]
        assert reopened.retained_checkpoint("alpha") == \
            records[0].end_checkpoint()
        # A checkpoint *behind* its files means the checkpoint was lost.
        (root / reopened.segment_records("alpha")[0].file_name).unlink()
        with pytest.raises(ArchiveIntegrityError, match="missing"):
            LogArchive(root)

    def test_opening_is_deterministic(self, world, tmp_path):
        root = tmp_path / "a"
        world.ingest(root)
        indexes = [sorted(map(repr, LogArchive(root)._all_records()))  # noqa: SLF001
                   for _ in range(4)]
        assert all(index == indexes[0] for index in indexes[1:])

    def test_rewrites_take_the_next_generation_and_appends_resume(
            self, world, tmp_path):
        import json
        root = tmp_path / "a"
        world.ingest(root, seals=3)
        archive = LogArchive(root)
        records = archive.segment_records("alpha")
        archive.truncate("alpha", records[1].last_sequence)
        beta = archive.segment_records("beta")
        beta_anchor = archive.truncate("beta", beta[0].last_sequence)
        stored = json.loads((root / MANIFEST_NAME).read_text())
        assert stored["generation"] == 4  # two machines, then GC of each
        assert stored["machines"]["alpha"]["file"] == "alpha/frames-000003.avmf"
        assert stored["machines"]["beta"]["file"] == "beta/frames-000004.avmf"
        reopened = LogArchive(root)
        assert reopened.recovery.clean
        assert [r.first_sequence for r in reopened.segment_records("alpha")] \
            == [records[2].first_sequence]
        # beta's chain starts at its anchor; what it shipped about alpha's
        # retained range is still there
        assert [r.first_sequence for r in reopened.segment_records("beta")] \
            == [r.first_sequence for r in beta[1:]]
        assert reopened.retained_checkpoint("beta") == beta_anchor
        assert beta_anchor.sequence == beta[0].last_sequence
        assert reopened.authenticators_for("alpha")
        # The next append goes to the file of the generation in force.
        deliver(world.shipments["alpha"][3])(root)
        again = LogArchive(root)
        assert again.recovery.clean
        assert again.head_checkpoint("alpha").sequence == len(world.logs["alpha"])
        assert {r.file_name for r in again.segment_records("alpha")} == \
            {"alpha/frames-000003.avmf"}

    def test_a_reader_of_format_2_refuses_a_new_archive(self, world, tmp_path):
        import json
        root = tmp_path / "a"
        world.ingest(root, seals=1)
        stored = json.loads((root / MANIFEST_NAME).read_text())
        # What the reader before the frame file does first; were it to go
        # on, it would find no record and sweep nothing it knows — and
        # every frame it cannot see.
        assert "segments" not in stored and stored["format_version"] == 3
        with pytest.raises(LogFormatError, match="manifest"):
            require_format_version(stored["format_version"], what="manifest",
                                   supported=(1, 2))
