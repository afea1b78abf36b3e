"""The archive's packed formats: round-trip, strict, bounded.

The snapshot page file (:meth:`repro.vm.snapshot.IncrementalSnapshot.to_bytes`
— keyframes and deltas, on the wire and on disk) and the packed authenticator
batch (:func:`repro.log.storage.authenticators_to_bytes`) are decoded at the
ingest door from whatever a shipper sends, so beyond
``from_bytes(to_bytes(x)) == x`` these tests pin that a decoder only ever
fails *typed* (``SnapshotError`` / ``LogFormatError``), never allocates on a
header's word, and that what the system no longer writes — format-2 log
segments, JSON-lines authenticator batches, per-record archives — is refused
typed wherever it arrives, with nothing on disk touched.
"""

from __future__ import annotations

import bz2
import hashlib
import json
import shutil
import struct
import tempfile
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import LogFormatError, SnapshotError, StoreError
from repro.log import codec
from repro.log.authenticator import Authenticator
from repro.log.entries import EntryType, nondet_content
from repro.log.storage import (AUTH_BATCH_MAGIC, authenticators_from_bytes,
                               authenticators_to_bytes)
from repro.log.tamper_evident import TamperEvidentLog
from repro.network.message import MessageKind, NetworkMessage
from repro.network.shipment import (PartKind, ShipmentPart, decode_shipment,
                                    encode_shipment)
from repro.service.ingest import AuditIngestService
from repro.store.archive import _OWNED_NAME_RE, LogArchive
from repro.store.manifest import COMMIT_SIZE, file_header, read_frames
from repro.vm.execution import ExecutionTimestamp
from repro.vm.snapshot import (SNAPSHOT_MAGIC, IncrementalSnapshot,
                               SnapshotManager, apply_delta)

from archive_tools import World, ship, shipment, summary
from codec_tools import per_frame_v3_blob, retired_v2_blob, segment_to_bytes

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
# The shipment container and the frame file: untrusted bytes, strict and
# bounded from their first commit
# ---------------------------------------------------------------------------

_WORLD = World()
_GENUINE_SHIPMENT = _WORLD.shipments["beta"][0].payload
_GENUINE_PARTS = decode_shipment(_GENUINE_SHIPMENT)


def _traced(attempt, cap=4_000_000):
    tracemalloc.start()
    try:
        return attempt()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < cap, peak


class TestShipmentContainer:
    def test_round_trip(self):
        assert [part.kind for part in _GENUINE_PARTS] == [
            PartKind.SNAPSHOT, PartKind.SEGMENT, PartKind.AUTHENTICATORS]
        assert _GENUINE_PARTS[1].sealed_by_snapshot == 1
        assert _GENUINE_PARTS[2].subject == "alpha"
        assert encode_shipment(_GENUINE_PARTS) == _GENUINE_SHIPMENT
        odd = [ShipmentPart(PartKind.SEGMENT, b"", sealed_by_snapshot=0),
               ShipmentPart(PartKind.SNAPSHOT, b"x"),
               ShipmentPart(PartKind.SNAPSHOT, b"x"),
               ShipmentPart(PartKind.AUTHENTICATORS, b"", subject="")]
        assert decode_shipment(encode_shipment(odd)) == odd
        for twice in (odd[:1] * 2, odd[3:] * 2):
            with pytest.raises(LogFormatError, match="a second"):
                decode_shipment(encode_shipment(twice))
        assert decode_shipment(encode_shipment([])) == []

    def test_strict(self):
        data = _GENUINE_SHIPMENT
        body = len(b"AVMSHIP1")
        refused = {
            "wrong magic": b"AVMSHIP9" + data[body:],
            "magic only": data[:body],
            "truncated": data[:-1],
            "trailing byte": data + b"\0",
            "one part too many announced": (
                data[:body] + bytes([data[body] + 1]) + data[body + 1:]),
            "one part too few announced": (
                data[:body] + bytes([data[body] - 1]) + data[body + 1:]),
            "unknown part kind": data[:body + 1] + b"\x09" + data[body + 2:],
            "part kind zero": data[:body + 1] + b"\x00" + data[body + 2:],
            "payload longer than the shipment": (
                data[:body + 2] + b"\xff\xff\x7f" + data[body + 4:]),
            "part count beyond the bytes": data[:body] + b"\xff\xff\xff\x7f",
            "part count beyond the bound": (
                data[:body] + b"\x81\x20" + bytes(5000)),
            "overlong varint": data[:body] + b"\x83\x00" + data[body + 1:],
            "subject not UTF-8": encode_shipment([ShipmentPart(
                PartKind.AUTHENTICATORS, b"", subject="s")])[:-3]
            + b"\x01\xff\x00",
        }
        for what, blob in refused.items():
            with pytest.raises(LogFormatError):
                decode_shipment(blob)
                pytest.fail(f"accepted: {what}")

    def test_nothing_is_allocated_on_a_count_s_word(self):
        for claim in (b"AVMSHIP1" + b"\xff" * 9 + b"\x01",
                      b"AVMSHIP1\x01\x01" + b"\xff" * 8 + b"\x7f"):
            with pytest.raises(LogFormatError):
                _traced(lambda: decode_shipment(claim.ljust(1024, b"\0")))

    @pytest.mark.parametrize("version", [1, 3, "3-per-frame"])
    def test_a_small_bomb_is_refused_inside_the_bound(self, version,
                                                      monkeypatch, tmp_path):
        """The segment decoders inflate a shipper's bytes before any chain
        check runs: a blob of a few kB that inflates to 64 MB is refused
        typed, at ``MAX_INFLATED_BYTES`` — a bound, not an option; shrunk
        here so that the allocation cap can show it is what stops it.  The
        bound counts the whole body: v1's bzip2 stream, v3's one zlib
        stream (inflated a piece of the bound's size at a time, so only
        the sum can trip it), or one frame of v3's per-frame layout."""
        monkeypatch.setattr(codec, "MAX_INFLATED_BYTES", 1 << 20)
        segment = _WORLD.logs["alpha"].segment(1, 6)
        genuine = codec.encode_segment(segment, 1 if version == 1 else 3)
        assert codec.decode_segment(genuine) == segment
        header = codec.TypedCodec._header_size(genuine)
        if version == 1:
            bomb = genuine[:8] + bz2.compress(
                b'{"header":{"machine":"' + b"a" * (64 << 20), 9)
        elif version == 3:  # (one frame announcing all of it)
            bomb = genuine[:header] + zlib.compress(
                struct.pack("<I", 64 << 20) + bytes(64 << 20), 9)
        else:
            frame = zlib.compress(bytes(64 << 20), 9)
            bomb = per_frame_v3_blob(segment, compress=True)[:header] \
                + struct.pack("<I", len(frame)) + frame
        assert len(bomb) < 80_000
        cap = 8 << 20  # a few copies of the bound; the bomb is 64 MB
        with pytest.raises(LogFormatError, match="inflates past"):
            _traced(lambda: codec.decode_segment(bomb), cap)
        with pytest.raises(LogFormatError, match="inflates past"):
            _traced(lambda: list(codec.SegmentStreamDecoder().entries(
                iter([bomb[:100], bomb[100:]]))), cap)
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        _traced(lambda: ship(service, "alpha", segment=bomb), cap)
        assert "inflates past" in service.quarantine[0].reason
        assert service.archive.machines() == []


def _mutations(draw, units, blob_of):
    """A structure-aware mutation of ``units`` (parts or groups), as bytes:
    flip, truncate, duplicate, drop, reorder, or lie in a length."""
    how = draw(st.sampled_from(
        ["flip", "truncate", "duplicate", "drop", "swap", "lie"]))
    units = list(units)
    index = draw(st.integers(0, len(units) - 1))
    if how == "duplicate":
        units.insert(index, units[index])
    elif how == "drop":
        del units[index]
    elif how == "swap" and len(units) > 1:
        other = draw(st.integers(0, len(units) - 1))
        units[index], units[other] = units[other], units[index]
    blob = bytearray(blob_of(units))
    if how in ("flip", "lie", "swap") and blob:
        # (a lie: a byte in the first few of a unit, where the lengths are)
        offset = draw(st.integers(0, min(len(blob) - 1, 40) if how == "lie"
                                  else len(blob) - 1))
        blob[offset] ^= draw(st.integers(1, 255))
    elif how == "truncate":
        del blob[draw(st.integers(0, len(blob))):]
    return how, bytes(blob)


def _only_genuine(archive, genuine, altered):
    """Everything ``archive`` holds is what the genuine archive holds.  With
    bytes ``altered`` that holds for what the hash chain protects, the log:
    a page file or a batch altered into another well-formed one is *its*
    claim — under another id, about another sequence — for the hash tree
    (when the snapshot is materialised) and the audit's signature check to
    judge, as they judge what an honest-looking liar ships."""
    try:
        held = summary(archive)
    except SnapshotError:
        assert altered
        return None
    for machine, state in held.items():
        theirs = genuine[machine]
        for ours, genuine_segment in zip(state["segments"], theirs["segments"]):
            # (which snapshot seals it is the shipper's word, too)
            assert ours[:3] == genuine_segment[:3]
        assert len(state["segments"]) <= len(theirs["segments"])
        if not altered:
            assert state["segments"] == \
                theirs["segments"][:len(state["segments"])]
            assert state["snapshots"].items() <= theirs["snapshots"].items()
            assert all(auth in theirs["authenticators"]
                       for auth in state["authenticators"])
    return held


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_mutated_shipment_is_refused_quarantined_or_genuine(data):
    how, mutated = _mutations(data.draw, _GENUINE_PARTS, encode_shipment)
    with tempfile.TemporaryDirectory() as tmp:
        genuine = AuditIngestService(LogArchive(Path(tmp) / "genuine"))
        genuine.on_message(_WORLD.shipments["beta"][0])
        service = AuditIngestService(LogArchive(Path(tmp) / "mutated"))
        _traced(lambda: service.on_message(NetworkMessage(  # never raises
            "beta", "audit-ingest", mutated,
            kind=MessageKind.ARCHIVE_SHIPMENT)))
        expected = summary(genuine.archive)
        altered = how in ("flip", "lie", "swap")
        held = _only_genuine(LogArchive(Path(tmp) / "mutated"), expected,
                             altered)
        # nothing refused and no byte altered: every genuine part landed (a
        # duplicated snapshot or a reordering of independent parts changes
        # nothing) — unless one was left out, which is a smaller shipment,
        # not a damaged one
        if not service.quarantine and how in ("duplicate", "truncate"):
            assert held == expected
        assert LogArchive(Path(tmp) / "mutated").recovery.clean


def _groups_of(root, machine):
    """``machine``'s frame file as ``[file header, group, group, …]``."""
    file_name = LogArchive(root).segment_records(machine)[0].file_name
    raw = (root / file_name).read_bytes()
    records, end, _ = read_frames(root, file_name, machine, bytes(32))
    assert end == len(raw)
    cuts = [len(file_header(machine))]
    for record, following in zip(records, records[1:] + [None]):
        if following is None or following.commit != record.commit:
            cuts.append(record.offset + record.stored_bytes + COMMIT_SIZE)
    return [raw[:cuts[0]]] + [raw[a:b] for a, b in zip(cuts, cuts[1:])]


@pytest.fixture(scope="module")
def genuine_archive(tmp_path_factory):
    """A recorded archive, alpha's file group by group, and what the archive
    holds with alpha's file cut after each of its commits."""
    root = tmp_path_factory.mktemp("frames") / "genuine"
    _WORLD.ingest(root)
    groups = _groups_of(root, "alpha")
    states = []
    for committed in range(1, len(groups) + 1):
        cut = root.with_name(f"cut-{committed}")
        shutil.copytree(root, cut)
        (cut / "alpha" / "frames-000001.avmf").write_bytes(
            b"".join(groups[:committed]))
        states.append(summary(LogArchive(cut)))
    assert states[-1] == summary(LogArchive(root))
    return root, groups, _groups_of(root, "beta")[1:], states


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_frame_file_is_refused_cut_or_genuine(data, genuine_archive):
    root, groups, foreign, states = genuine_archive
    if data.draw(st.booleans()):  # a committed group of another machine's file
        position = data.draw(st.integers(1, len(groups)))
        mutated = b"".join(groups[:position]
                           + [data.draw(st.sampled_from(foreign))]
                           + groups[position:])
    else:
        mutated = groups[0] + _mutations(data.draw, groups[1:], b"".join)[1]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "a"
        shutil.copytree(root, work)
        (work / "alpha" / "frames-000001.avmf").write_bytes(mutated)

        def opened_and_read():
            archive = LogArchive(work)
            for record in archive._all_records():  # noqa: SLF001
                archive.stored_bytes_of(record)
            return archive
        try:
            archive = _traced(opened_and_read)
        except StoreError:   # typed refusal (ArchiveIntegrityError is one)
            return
        # ... or what it serves is the genuine archive as of one of its
        # commits: whole, or with a (torn) tail cut
        assert summary(archive) in states


# ---------------------------------------------------------------------------
# What is no longer written is refused wherever it arrives, typed
# ---------------------------------------------------------------------------

def _json_lines_batch(batch):
    """The authenticator-batch form archives held before the packed one."""
    lines = ['{"format_version": 1, "kind": "authenticators"}']
    for auth in batch:
        row = auth.to_dict()
        if auth.is_consistent():
            del row["chain_hash"]
        lines.append(json.dumps(row, sort_keys=True))
    return ("\n".join(lines) + "\n").encode()


def _per_record_layout(root, journal):
    """A per-record archive, as formats 1 and 2 laid it out: alpha's first
    six entries in one data file, listed by a format-1 manifest, or by the
    journal of a format-2 checkpoint."""
    segment = _WORLD.logs["alpha"].segment(1, 6)
    data = codec.encode_segment(segment, 1)
    name = "alpha/segment-00000001-00000006.avmlogz"
    (root / "alpha").mkdir(parents=True)
    (root / name).write_bytes(data)
    record = {"machine": "alpha", "file": name, "first_sequence": 1,
              "last_sequence": 6, "start_hash": segment.start_hash.hex(),
              "end_hash": segment.end_hash.hex(), "entry_count": 6,
              "raw_bytes": segment.size_bytes(), "stored_bytes": len(data),
              "sealed_by_snapshot": None, "format_version": 1}
    manifest = {"format_version": 1, "kind": "avm_log_archive",
                "segments": [record], "auth_batches": [], "snapshots": [],
                "retained": {}}
    if journal:
        manifest.update(format_version=2, generation=1, segments=[])
        lines = [json.dumps(line, sort_keys=True, separators=(",", ":"))
                 .encode() for line in ({"generation": 1}, {"segment": record})]
        (root / "MANIFEST.journal").write_bytes(b"".join(
            b"%08x %s\n" % (zlib.crc32(line), line) for line in lines))
    (root / "MANIFEST.json").write_text(json.dumps(manifest, indent=1,
                                                   sort_keys=True))


def _digests(root):
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestRetiredFormats:
    @pytest.mark.parametrize("journal", [False, True],
                             ids=["format-1", "format-2-journal"])
    def test_a_per_record_archive_is_refused_and_left_alone(self, tmp_path,
                                                            journal):
        root = tmp_path / "old"
        _per_record_layout(root, journal)
        # ... with a stray frame file the sweep of a current archive deletes
        (root / "alpha" / "frames-000099.avmf").write_bytes(b"half")
        before = _digests(root)
        with pytest.raises(LogFormatError, match="manifest format version"):
            LogArchive(root)
        with pytest.raises(LogFormatError):
            AuditIngestService(LogArchive(root))
        assert _digests(root) == before  # nothing swept, cut or rewritten

    def test_no_sweep_can_take_an_old_archive_s_files(self):
        assert _OWNED_NAME_RE.match("frames-000001.avmf")
        for name in ("MANIFEST.journal", "segment-00000001-00000006.avmlogz",
                     "segment-00000001-00000006.avmlogb",
                     "segment-00000001-00000006.avmlogt", "auths-000001.avmauth",
                     "auths-000001.jsonl.bz2", "snapshot-000001.avmsnap",
                     "snapshot-000001-kf.avmsnap", "snapshot-000001.json"):
            assert not _OWNED_NAME_RE.match(name), name

    def test_retired_codec_version_is_refused(self, tmp_path):
        for version in (2, 99):
            with pytest.raises(LogFormatError, match="format version"):
                codec.get_codec(version)
            with pytest.raises(LogFormatError, match="format version"):
                LogArchive(tmp_path / f"v{version}", format_version=version)

    @pytest.mark.parametrize("retired", [
        "v2-segment", "json-lines-segment", "json-lines-batch",
        "bzip2-json-lines-batch"])
    def test_the_door_quarantines_a_retired_part_and_lands_the_rest(
            self, tmp_path, retired):
        snapshot, segment, batch = _GENUINE_PARTS  # beta's first seal
        log = _WORLD.logs["beta"]
        own = [log.authenticator_for(entry) for entry in log.entries[:3]]
        parts = [snapshot, segment, batch,
                 ShipmentPart(PartKind.AUTHENTICATORS,
                              authenticators_to_bytes(own), subject="beta")]
        decoded = codec.decode_segment(segment.payload)
        retired_form = {
            "v2-segment": lambda: retired_v2_blob(decoded),
            "json-lines-segment": lambda: segment_to_bytes(decoded),
            "json-lines-batch": lambda: _json_lines_batch(own),
            "bzip2-json-lines-batch": lambda: bz2.compress(
                _json_lines_batch(own))}[retired]()
        if retired.endswith("segment"):
            parts[1] = replace(segment, payload=retired_form)
            reason = "undecodable segment"
        else:
            parts[3] = replace(parts[3], payload=retired_form)
            reason = "undecodable authenticator batch"
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        service.on_message(shipment("beta", parts=parts))
        assert [q.reason.split(":")[0] for q in service.quarantine] == [reason]
        assert "magic" in service.quarantine[0].reason
        landed = LogArchive(tmp_path / "a")
        assert landed.recovery.clean
        held = summary(landed)
        assert landed.snapshot_store("beta").snapshot_ids() == [1]
        assert held["alpha"]["authenticators"] == \
            authenticators_from_bytes(batch.payload)
        if retired.endswith("segment"):
            assert landed.segment_records("beta") == []
            assert held["beta"]["authenticators"] == own
        else:
            assert landed.entry_count("beta") == 6
            assert held["beta"]["authenticators"] == []
