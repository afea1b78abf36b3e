"""The archive's two packed file kinds, as formats: round-trip, strict, bounded.

The snapshot page file (:meth:`repro.vm.snapshot.IncrementalSnapshot.to_bytes`
— keyframes and deltas, on the wire and on disk) and the packed authenticator
batch (:func:`repro.log.storage.authenticators_to_bytes`) are decoded at the
ingest door from whatever a shipper sends, so beyond
``from_bytes(to_bytes(x)) == x`` these tests pin that a decoder only ever
fails *typed* (``SnapshotError`` / ``LogFormatError``), never allocates on a
header's word, and that the forms older archives hold — JSON-lines batches
under bz2, JSON snapshot files, a format-1 manifest — still open, audit to
the same verdicts and accept appends.
"""

from __future__ import annotations

import bz2
import json
import shutil
import struct
import tracemalloc
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.engine import AuditScheduler
from repro.audit.stream import stream_audit
from repro.errors import LogFormatError, SnapshotError
from repro.experiments.parallel_audit import build_fleet
from repro.log.authenticator import Authenticator
from repro.log.entries import EntryType, nondet_content
from repro.log.storage import (AUTH_BATCH_MAGIC, authenticators_from_bytes,
                               authenticators_to_bytes)
from repro.log.tamper_evident import TamperEvidentLog
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive
from repro.vm.execution import ExecutionTimestamp
from repro.vm.snapshot import (SNAPSHOT_MAGIC, IncrementalSnapshot,
                               SnapshotManager, apply_delta, serialize_state)

_HEADER = struct.Struct("<8sBQqIIIQQQ32s")  # the page file's, spelled out


def _managed_snapshots():
    """Every shape the manager produces: the first snapshot (a keyframe by
    construction), deltas that grow and shrink the page count, an empty
    delta, and an interval keyframe re-shipped with every page."""
    manager = SnapshotManager(page_size=64, keyframe_interval=3)
    rows = {f"r{i}": "x" * 30 for i in range(8)}
    for step, mutate in enumerate((
            lambda: None,
            lambda: rows.update({f"n{i}": "y" * 40 for i in range(6)}),
            lambda: [rows.pop(f"n{i}") for i in range(6)],
            lambda: None,
            lambda: rows.update(r7="z" * 30))):
        mutate()
        manager.take({"rows": rows, "step": step // 4},
                     ExecutionTimestamp(step * 10, step))
    snapshots = [manager.get_incremental(i) for i in manager.snapshot_ids()]
    shipped = [IncrementalSnapshot.from_bytes(manager.ship_payload(i))
               for i in manager.snapshot_ids()]
    return manager, snapshots, shipped


def _batch(keypair=None):
    log = TamperEvidentLog("alice", keypair=keypair)
    for index in range(4):
        log.append(EntryType.NONDET, nondet_content("x", index))
    honest = [log.authenticator_for(entry) for entry in log.entries]
    def consistent(auth):
        return replace(auth, chain_hash=auth.implied_chain_hash())
    return [honest[0],
            replace(honest[1], chain_hash=bytes(32)),        # forged
            consistent(replace(honest[2], entry_type="not-an-entry-type")),
            consistent(replace(honest[3], machine="bob",
                               sequence=(1 << 64) - 1))]


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

class TestSnapshotPageFile:
    def test_every_managed_snapshot_round_trips(self):
        manager, snapshots, shipped = _managed_snapshots()
        counts = [snapshot.page_count for snapshot in snapshots]
        assert counts[1] > counts[0] and counts[2] < counts[1]  # grew, shrank
        assert snapshots[3].changed_pages == {}                  # empty delta
        for snapshot in snapshots:
            data = snapshot.to_bytes()
            assert data.startswith(SNAPSHOT_MAGIC)
            assert IncrementalSnapshot.from_bytes(data) == snapshot
        # What ships is the same thing, except that a keyframe names no base
        # and carries every page — at its delta's price.
        assert [s.base_snapshot_id for s in shipped] == [None, 1, 2, None, 4]
        assert len(shipped[3].changed_pages) == shipped[3].page_count
        assert shipped[3].transfer_bytes == manager.transfer_cost_bytes(4)
        assert shipped[1] == snapshots[1]
        # ... and the shipped chain materialises every state, verified.
        pages = []
        for snapshot_id, delta in enumerate(shipped, start=1):
            pages = apply_delta([] if delta.base_snapshot_id is None
                                else pages, delta)
            assert pages == manager.get(snapshot_id).pages

    def test_an_empty_page_and_an_empty_state_round_trip(self):
        empty = IncrementalSnapshot(
            snapshot_id=1, execution=ExecutionTimestamp(0, 0),
            base_snapshot_id=None, changed_pages={0: b""}, page_count=1,
            state_root=bytes(32), transfer_bytes=0)
        assert IncrementalSnapshot.from_bytes(empty.to_bytes()) == empty

    def test_values_the_header_cannot_hold_are_refused_by_the_writer(self):
        snapshot = _managed_snapshots()[1][0]
        for broken in (replace(snapshot, state_root=b"short"),
                       replace(snapshot, snapshot_id=-1),
                       replace(snapshot, transfer_bytes=1 << 64),
                       replace(snapshot, changed_pages={-1: b""})):
            with pytest.raises(SnapshotError):
                broken.to_bytes()

    def test_strict(self):
        snapshot = _managed_snapshots()[1][4]  # a delta carrying a few pages
        assert 0 < len(snapshot.changed_pages) < snapshot.page_count
        data = snapshot.to_bytes()
        size = _HEADER.size
        body = zlib.decompress(data[size:])

        def rebuilt(new_body=body, compress=True, **header):
            fields = dict(zip(
                ("magic", "flags", "id", "base", "count", "page_size",
                 "carried", "instructions", "branches", "transfer", "root"),
                _HEADER.unpack_from(data)))
            fields.update(header)
            return _HEADER.pack(*fields.values()) + (
                zlib.compress(new_body) if compress else new_body)

        assert IncrementalSnapshot.from_bytes(rebuilt()) == snapshot
        # the deflate bit off: the same body, raw
        assert IncrementalSnapshot.from_bytes(
            rebuilt(compress=False, flags=0)) == snapshot
        first_index, first_length = struct.unpack_from("<II", body)
        duplicate = body + body[:8 + first_length]
        refused = {
            "wrong magic": b"AVMSNAP9" + data[8:],
            "truncated header": data[:size - 1],
            "unknown flag": rebuilt(flags=0x03),
            "zero page size": rebuilt(page_size=0),
            "page size over the cap": rebuilt(page_size=(1 << 20) + 1),
            "page count over the cap": rebuilt(count=(1 << 24) + 1),
            "more carried than pages": rebuilt(carried=snapshot.page_count + 1),
            "base below none": rebuilt(base=-2),
            "keyframe missing pages": rebuilt(base=-1),
            "fewer pages than carried": rebuilt(
                carried=len(snapshot.changed_pages) + 1),
            "more pages than carried": rebuilt(
                carried=len(snapshot.changed_pages) - 1),
            "duplicate index": rebuilt(
                duplicate, carried=len(snapshot.changed_pages) + 1),
            "index out of range": rebuilt(
                struct.pack("<II", snapshot.page_count, first_length)
                + body[8:]),
            "page longer than a page": rebuilt(page_size=first_length - 1),
            "page past the end": rebuilt(body[:-1]),
            "trailing body bytes": rebuilt(body + b"\0"),
            "truncated deflate stream": data[:-4],
            "bytes after the deflate stream": data + b"\0",
            "not deflate at all": data[:size] + b"\xff" * 20,
        }
        for what, blob in refused.items():
            with pytest.raises(SnapshotError):
                IncrementalSnapshot.from_bytes(blob)
                pytest.fail(f"accepted: {what}")

    def test_nothing_is_allocated_on_the_header_s_word(self):
        snapshot = _managed_snapshots()[1][0]
        fields = list(_HEADER.unpack_from(snapshot.to_bytes()))
        # 1 kB claiming 2^24 pages of 1 MiB, all carried
        fields[4:7] = [1 << 24, 1 << 20, 1 << 24]
        huge_claim = (_HEADER.pack(*fields)
                      + zlib.compress(bytes(200_000)))[:1024].ljust(1024, b"\0")
        # a stream that inflates to 64 MB where the geometry allows 4 kB
        fields[4:7] = [1, 4096, 1]
        bomb = _HEADER.pack(*fields) + zlib.compress(bytes(64 << 20))
        assert len(bomb) < 100_000
        # ... and a delta that "grows" a snapshot by 2^24 pages it does not
        # supply is refused before any list is sized by it.
        grows = replace(_managed_snapshots()[1][4], page_count=1 << 24)
        for attempt in (
                lambda: IncrementalSnapshot.from_bytes(huge_claim),
                lambda: IncrementalSnapshot.from_bytes(bomb),
                lambda: apply_delta([b"page"], grows)):
            tracemalloc.start()
            with pytest.raises(SnapshotError):
                attempt()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 4_000_000, peak


class TestPackedAuthenticatorBatch:
    def test_round_trip(self, ca):
        for keypair in (ca.issue("alice"), None):  # signed; avmm-nosig
            batch = _batch(keypair)
            assert (batch[0].signature == b"") == (keypair is None)
            data = authenticators_to_bytes(batch)
            assert data.startswith(AUTH_BATCH_MAGIC)
            restored = authenticators_from_bytes(data)
            assert restored == batch
            # a forged chain hash survives as forged; the rest are recomputed
            assert [auth.is_consistent() for auth in restored] == \
                [True, False, True, True]
            # names once, not per row: mixed machines and an entry type the
            # log layer does not know are just table entries
            assert data.count(b"alice") == 1 and data.count(b"bob") == 1
            assert data.count(b"not-an-entry-type") == 1
        assert authenticators_from_bytes(authenticators_to_bytes([])) == []

    def test_odd_width_fields_round_trip(self):
        # Nothing upstream pins a forged authenticator's field widths.
        odd = Authenticator(machine="", sequence=0, chain_hash=b"\1" * 5,
                            signature=b"\2" * 300, previous_hash=b"",
                            entry_type="", content_hash=b"\3" * 31)
        assert authenticators_from_bytes(authenticators_to_bytes([odd])) == [odd]

    def test_values_a_row_cannot_hold_are_refused_by_the_writer(self):
        auth = _batch()[0]
        with pytest.raises(LogFormatError):
            authenticators_to_bytes([replace(auth, sequence=1 << 64)])
        with pytest.raises(LogFormatError):
            authenticators_to_bytes([replace(auth, sequence=-1)])
        with pytest.raises(LogFormatError):
            authenticators_to_bytes(
                [replace(auth, entry_type=f"type-{i}") for i in range(129)])

    def test_strict(self):
        batch = _batch()
        data = authenticators_to_bytes(batch)
        one = authenticators_to_bytes(batch[:1])
        rows = one.index(b"nondet") + len(b"nondet")  # both tables end here
        assert one[rows] == 1                          # the row count
        refused = {
            "truncated": data[:-1],
            "trailing bytes": data + b"\0",
            "row count beyond the bytes": (
                one[:rows] + b"\xff\xff\x03" + one[rows + 1:]),
            "machine index out of range": (
                one[:rows + 1] + b"\x01" + one[rows + 2:]),
            "type index out of range": (
                one[:rows + 3] + b"\x01" + one[rows + 4:]),
            "overlong varint (padded)": (
                one[:rows] + b"\x81\x00" + one[rows + 1:]),
            "overlong varint (65 bits)": (
                one[:rows] + b"\xff" * 9 + b"\x03" + one[rows + 1:]),
            "field longer than the batch": (
                one[:rows + 4] + b"\xff\x7f" + one[rows + 5:]),
            "table count beyond the bytes": (
                AUTH_BATCH_MAGIC + b"\xff\xff\xff\x7f"),
            "table not UTF-8": AUTH_BATCH_MAGIC + b"\x01\x01\xff\x00\x00",
            "magic only": AUTH_BATCH_MAGIC,
        }
        for what, blob in refused.items():
            with pytest.raises(LogFormatError):
                authenticators_from_bytes(blob)
                pytest.fail(f"accepted: {what}")

    def test_nothing_is_allocated_on_a_count_s_word(self):
        claim = AUTH_BATCH_MAGIC + b"\x00\x00" + b"\xff" * 8 + b"\x7f"
        tracemalloc.start()
        with pytest.raises(LogFormatError):
            authenticators_from_bytes(claim.ljust(1024, b"\0"))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 4_000_000, peak


# ---------------------------------------------------------------------------
# Single-byte mutation: typed error or a different valid value (or, in
# deflate's unused bits, the same one) — never a stray exception
# ---------------------------------------------------------------------------

_SNAPSHOT_BLOBS = [snapshot.to_bytes() for snapshot in _managed_snapshots()[2]]
_BATCH_BLOB = authenticators_to_bytes(_batch())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_byte_mutations_of_a_page_file_fail_typed(data):
    blob = data.draw(st.sampled_from(_SNAPSHOT_BLOBS))
    offset = data.draw(st.integers(0, len(blob) - 1))
    value = data.draw(st.integers(1, 255))
    mutated = bytearray(blob)
    mutated[offset] ^= value
    original = IncrementalSnapshot.from_bytes(blob)
    try:
        decoded = IncrementalSnapshot.from_bytes(bytes(mutated))
    except SnapshotError:
        return
    # A header field changed the value.  Inside the deflate stream only the
    # few bits the format leaves unused (padding before the checksum) can
    # flip unnoticed, and then the pages are the ones that were written.
    assert decoded != original or offset >= _HEADER.size


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(_BATCH_BLOB) - 1), st.integers(1, 255))
def test_single_byte_mutations_of_a_batch_fail_typed(offset, value):
    mutated = bytearray(_BATCH_BLOB)
    mutated[offset] ^= value
    try:
        decoded = authenticators_from_bytes(bytes(mutated))
    except LogFormatError:
        return
    assert decoded != authenticators_from_bytes(_BATCH_BLOB)


# ---------------------------------------------------------------------------
# What older archives hold still opens, audits the same, and accepts appends
# ---------------------------------------------------------------------------

def _rewrite_as_before_the_packed_forms(root):
    """Rewrite a freshly recorded archive, in place, into the files an
    archive of the previous format holds: hex-in-JSON snapshot files,
    JSON-lines batches under bz2, one indented format-1 manifest, no journal
    — the deleted writers, kept here as the reference."""
    archive = LogArchive(root)
    manifest = archive._manifest.to_dict()  # noqa: SLF001 - the index, whole
    manifest["format_version"] = 1
    del manifest["generation"]
    for stored in manifest["snapshots"]:
        path = root / stored["file"]
        snapshot = IncrementalSnapshot.from_bytes(path.read_bytes())
        common = {"machine": stored["machine"],
                  "snapshot_id": snapshot.snapshot_id,
                  "state_root": snapshot.state_root.hex(),
                  "transfer_bytes": snapshot.transfer_bytes,
                  "execution": snapshot.execution.to_dict()}
        if snapshot.base_snapshot_id is None:
            pages = [snapshot.changed_pages[i]
                     for i in range(snapshot.page_count)]
            payload = {**common, "kind": "keyframe",
                       "state": json.loads(b"".join(pages))}
        else:
            payload = {**common, "kind": "delta",
                       "base_snapshot_id": snapshot.base_snapshot_id,
                       "page_count": snapshot.page_count,
                       "changed_pages": {
                           str(index): page.hex() for index, page
                           in sorted(snapshot.changed_pages.items())}}
        path.unlink()
        stored["file"] = stored["file"].replace(".avmsnap", ".json")
        (root / stored["file"]).write_bytes(serialize_state(payload))
    for stored in manifest["auth_batches"]:
        path = root / stored["file"]
        lines = ['{"format_version": 1, "kind": "authenticators"}']
        for auth in authenticators_from_bytes(path.read_bytes()):
            row = auth.to_dict()
            if auth.is_consistent():
                del row["chain_hash"]
            lines.append(json.dumps(row, sort_keys=True))
        path.unlink()
        stored["file"] = stored["file"].replace(".avmauth", ".jsonl.bz2")
        (root / stored["file"]).write_bytes(
            bz2.compress(("\n".join(lines) + "\n").encode()))
    (root / "MANIFEST.journal").unlink()
    (root / "MANIFEST.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True))


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    root = tmp_path_factory.mktemp("formats") / "archive"
    fleet = build_fleet(num_machines=2, duration=6.0, seed=29,
                        snapshot_interval=1.0, archive=LogArchive(root))
    old_root = root.with_name("archive-old-forms")
    shutil.copytree(root, old_root)
    _rewrite_as_before_the_packed_forms(old_root)
    return fleet, root, old_root


def _audits(fleet, root):
    """{(front-end, machine): what the audit concluded}."""
    service = AuditIngestService(LogArchive(root))
    front_ends = {
        "serial": lambda auditor, target: auditor.audit(target, streaming=False),
        "stream": lambda auditor, target: stream_audit(auditor, target).result,
        "engine": AuditScheduler(workers=1).audit_machine,
    }
    concluded = {}
    for machine in fleet.machines:
        for name, audit in front_ends.items():
            auditor = fleet.make_auditor(machine, collect=False)
            service.prepare_auditor(auditor, machine)
            result = audit(auditor, service.target_for(machine))
            concluded[name, machine] = (
                result.verdict, result.phase, result.reason, result.cost)
    return concluded


class TestOlderArchiveForms:
    def test_the_rewrite_produced_the_old_forms(self, recorded):
        _, root, old_root = recorded
        names = {path.suffix for path in root.rglob("*") if path.is_file()}
        old_names = {path.name.split(".", 1)[1]
                     for path in old_root.rglob("*") if path.is_file()}
        assert {".avmsnap", ".avmauth", ".journal"} <= names
        assert old_names == {"json", "jsonl.bz2", "avmlogz"}
        kinds = {snap.kind for snap in
                 LogArchive(old_root)._manifest.snapshots}  # noqa: SLF001
        assert kinds == {"keyframe", "delta"}

    def test_same_contents_and_same_audits_on_every_front_end(self, recorded):
        fleet, root, old_root = recorded
        new, old = LogArchive(root), LogArchive(old_root)
        assert old.recovery.clean
        for machine in fleet.machines:
            assert old.authenticators_for(machine) == \
                new.authenticators_for(machine)
            for snapshot_id in new.snapshot_store(machine).snapshot_ids():
                ours = new.load_snapshot(machine, snapshot_id)
                theirs = old.load_snapshot(machine, snapshot_id)
                assert theirs.pages == ours.pages and theirs.verify_root()
                assert old.snapshot_transfer_bytes(machine, snapshot_id) == \
                    new.snapshot_transfer_bytes(machine, snapshot_id)
        concluded = _audits(fleet, root)
        assert {verdict.value for verdict, *_ in concluded.values()} == {"pass"}
        assert _audits(fleet, old_root) == concluded

    def test_appends_checkpoint_once_then_journal(self, recorded, tmp_path):
        fleet, _, old_root = recorded
        work = tmp_path / "appended"
        shutil.copytree(old_root, work)
        before = _audits(fleet, work)
        archive = LogArchive(work)
        machine = fleet.machines[0]
        auths = archive.authenticators_for(machine)[:3]
        archive.store_authenticators(machine, auths)       # first append
        checkpoint = (work / "MANIFEST.json").read_bytes()
        stored = json.loads(checkpoint)
        assert (stored["format_version"], stored["generation"]) == (2, 1)
        assert len((work / "MANIFEST.journal").read_bytes().splitlines()) == 2
        archive.store_authenticators(machine, auths)       # second: journal only
        assert (work / "MANIFEST.json").read_bytes() == checkpoint
        assert len((work / "MANIFEST.journal").read_bytes().splitlines()) == 3
        reopened = LogArchive(work)
        assert reopened.recovery.clean
        assert reopened.authenticators_for(machine)[-6:] == auths + auths
        # (the six extra authenticators are six more signatures to check)
        assert {key: value[:3] for key, value in _audits(fleet, work).items()} \
            == {key: value[:3] for key, value in before.items()}
        # GC of an old-form archive: its delta boundary becomes a page file
        sealed = [record for record in reopened.segment_records(machine)
                  if record.sealed_by_snapshot]
        reopened.truncate(machine, sealed[2].last_sequence)
        state, _ = LogArchive(work).initial_state_for(machine)
        assert state == fleet.monitors[machine].snapshots.get(
            sealed[2].sealed_by_snapshot).state
