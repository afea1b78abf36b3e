"""Tests for the incremental snapshot engine (Section 4.4).

Covers the incremental Merkle tree, the keyframe + delta-chain storage of
:class:`~repro.vm.snapshot.SnapshotManager` (including verified shrink
handling), VM snapshots against a from-scratch serialisation, the root a
snapshot logs being the root of the state the machine holds, the archive's
delta-chain materialisation, and the picklable monitor log clock.
"""

import json
import pickle
import random

import pytest

from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.avmm.replayer import DeterministicReplayer, _SnapshotItem
from repro.crypto.merkle import MerkleTree
from repro.errors import ArchiveIntegrityError, SnapshotError
from repro.log.entries import EntryType
from repro.service.ingest import AuditIngestService
from repro.sim.scheduler import Scheduler
from repro.store.archive import LogArchive
from repro.vm.events import PacketDelivery, TimerInterrupt
from repro.vm.execution import ExecutionTimestamp
from repro.vm.machine import FixedNondeterminismSource, VirtualMachine
from repro.vm.snapshot import (
    IncrementalSnapshot,
    IncrementalStateHasher,
    SnapshotManager,
    apply_delta,
    paginate,
    serialize_state,
)
from repro.workloads.echo import make_echo_image
from repro.workloads.kvstore import make_kvserver_image

from archive_tools import replace_payload, scribble, ship


def merkle_root(leaves) -> bytes:
    return MerkleTree(list(leaves)).root


def ts(i):
    return ExecutionTimestamp(i, 0)


# ---------------------------------------------------------------------------
# Incremental Merkle tree
# ---------------------------------------------------------------------------

class TestMerkleIncremental:
    def test_update_leaf_matches_rebuild(self):
        leaves = [b"a", b"b", b"c", b"d", b"e"]
        tree = MerkleTree(leaves)
        leaves[2] = b"C!"
        tree.update_leaf(2, b"C!")
        assert tree.root == merkle_root(leaves)

    def test_append_leaf_matches_rebuild(self):
        leaves = [b"only"]
        tree = MerkleTree(leaves)
        for extra in (b"x", b"y", b"z", b"w"):
            leaves.append(extra)
            tree.append_leaf(extra)
            assert tree.root == merkle_root(leaves)

    def test_truncate_matches_rebuild(self):
        leaves = [bytes([i]) for i in range(11)]
        tree = MerkleTree(list(leaves))
        for size in (7, 4, 3, 1):
            tree.truncate(size)
            assert tree.root == merkle_root(leaves[:size])

    def test_truncate_bounds_checked(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(SnapshotError):
            tree.truncate(0)
        with pytest.raises(SnapshotError):
            tree.truncate(3)

    def test_update_leaf_bounds_checked(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(SnapshotError):
            tree.update_leaf(1, b"x")

    def test_randomized_against_scratch_rebuild(self):
        rng = random.Random(1234)
        leaves = [b"seed"]
        tree = MerkleTree(list(leaves))
        for step in range(300):
            choice = rng.random()
            if choice < 0.4:
                index = rng.randrange(len(leaves))
                leaves[index] = bytes([rng.randrange(256)]) * rng.randrange(1, 40)
                tree.update_leaf(index, leaves[index])
            elif choice < 0.75:
                leaves.append(b"n" * rng.randrange(1, 30))
                tree.append_leaf(leaves[-1])
            elif len(leaves) > 1:
                size = rng.randrange(1, len(leaves))
                del leaves[size:]
                tree.truncate(size)
            assert tree.root == merkle_root(leaves), step
            probe = rng.randrange(len(leaves))
            assert tree.proof(probe).verify(tree.root), step


# ---------------------------------------------------------------------------
# Delta application (shrink handling) and chain verification
# ---------------------------------------------------------------------------

class TestApplyDelta:
    def _delta(self, pages, base_pages, snapshot_id=2):
        changed = {i: p for i, p in enumerate(pages)
                   if i >= len(base_pages) or base_pages[i] != p}
        return IncrementalSnapshot(
            snapshot_id=snapshot_id, execution=ts(1), base_snapshot_id=1,
            changed_pages=changed, page_count=len(pages),
            state_root=merkle_root(pages), page_size=4)

    def test_shrink_is_verified_not_silently_truncated(self):
        base = [b"aaaa", b"bbbb", b"cccc", b"dddd"]
        small = [b"aaaa", b"BB"]
        delta = self._delta(small, base)
        assert apply_delta(base, delta) == small
        # Lying about the page count must be caught by the root check, not
        # silently accepted.
        delta.page_count = 3
        with pytest.raises(SnapshotError):
            apply_delta(base, delta)

    def test_tampered_page_rejected(self):
        base = [b"aaaa", b"bbbb"]
        new = [b"aaaa", b"ZZZZ"]
        delta = self._delta(new, base)
        delta.changed_pages[1] = b"QQQQ"
        with pytest.raises(SnapshotError):
            apply_delta(base, delta)

    def test_growth_with_missing_pages_rejected(self):
        base = [b"aaaa"]
        new = [b"aaaa", b"bbbb", b"cccc"]
        delta = self._delta(new, base)
        del delta.changed_pages[1]
        with pytest.raises(SnapshotError):
            apply_delta(base, delta)

    def test_out_of_range_page_rejected(self):
        base = [b"aaaa"]
        delta = self._delta([b"aaaa"], base)
        delta.changed_pages[5] = b"zzzz"
        with pytest.raises(SnapshotError):
            apply_delta(base, delta)


# ---------------------------------------------------------------------------
# SnapshotManager: keyframes, delta chains, bounded memory
# ---------------------------------------------------------------------------

class TestSnapshotManagerCow:
    def test_keyframe_layout(self):
        manager = SnapshotManager(page_size=32, keyframe_interval=4)
        for i in range(9):
            manager.take({"v": i}, ts(i))
        assert [sid for sid in manager.snapshot_ids()
                if manager.is_keyframe(sid)] == [1, 5, 9]

    def test_reconstruct_across_keyframe_boundaries_and_eviction(self):
        rng = random.Random(42)
        manager = SnapshotManager(page_size=64, keyframe_interval=5,
                                  materialized_cache=1)
        state = {"rows": {f"r{i}": "x" * 40 for i in range(30)}, "n": 0}
        expected = []
        for step in range(23):
            state["n"] += 1
            name = f"r{rng.randrange(40)}"
            if name in state["rows"] and rng.random() < 0.4:
                del state["rows"][name]
            else:
                state["rows"][name] = "y" * rng.randrange(0, 90)
            manager.take(state, ts(step))
            expected.append(json.loads(serialize_state(state)))
        # every snapshot id, including mid-chain ids materialised after the
        # tiny LRU evicted them, must reconstruct the exact historical state
        for snapshot_id in manager.snapshot_ids():
            assert manager.get(snapshot_id).state == \
                expected[snapshot_id - 1]
            root = manager.get_incremental(snapshot_id).state_root
            reference = merkle_root(
                paginate(serialize_state(expected[snapshot_id - 1]), 64))
            assert root == reference

    def test_corrupted_delta_chain_raises(self):
        manager = SnapshotManager(page_size=32, keyframe_interval=10,
                                  materialized_cache=1)
        state = {"k": "a" * 200}
        manager.take(state, ts(1))
        state["k"] = "b" * 200
        manager.take(state, ts(2))
        state["k"] = "c" * 150  # shrink
        victim = manager.take(state, ts(3))
        state["k"] = "d" * 150
        manager.take(state, ts(4))  # victim not latest
        delta = manager.get_incremental(victim.snapshot_id)
        first = min(delta.changed_pages)
        delta.changed_pages[first] = b"tampered!" * 3
        manager.get(2)  # fill + roll the 1-entry LRU so 3 re-materialises
        with pytest.raises(SnapshotError):
            manager.get(victim.snapshot_id).state

    def test_resident_bytes_bounded(self):
        manager = SnapshotManager(page_size=256, keyframe_interval=25,
                                  materialized_cache=2)
        state = {"blob": {f"b{i}": "z" * 100 for i in range(50)}, "n": 0}
        state_bytes = len(serialize_state(state))
        for step in range(200):
            state["n"] = step
            state["blob"][f"b{step % 50}"] = "w" * 100
            manager.take(state, ts(step))
        # 200 full snapshots would hold ~200 x state_bytes; the CoW layout
        # holds 8 keyframes + small deltas + the working copy + the LRU.
        full_retention = 200 * state_bytes
        assert manager.resident_bytes() < full_retention / 10
        assert manager.count == 200

    def test_resident_bytes_are_keyframes_deltas_and_working_copy(self):
        # A kv-server-shaped state of many mostly-idle tables, one table
        # rewritten per snapshot: the spot-check regime of Section 6.
        tables, row_bytes, keyframe_interval, cache = 500, 256, 25, 2
        state = {
            "guest": {"tables": {f"table-{i:04d}": {"row": "x" * row_bytes}
                                 for i in range(tables)},
                      "operations": 10_000_000},
            "instruction_count": 10 ** 12,
        }
        manager = SnapshotManager(keyframe_interval=keyframe_interval,
                                  materialized_cache=cache)
        state_bytes = len(serialize_state(state))
        for step in range(200):
            if step:
                state["guest"]["tables"][f"table-{step % tables:04d}"] = {
                    "row": "abcdefghij"[step % 10] * row_bytes}
                state["guest"]["operations"] += 1
                state["instruction_count"] += 137
            manager.take(state, ts(step))
        ids = manager.snapshot_ids()
        keyframes = sum(1 for sid in ids if manager.is_keyframe(sid))
        delta_bytes = sum(manager.get_incremental(sid).incremental_bytes
                          for sid in ids)
        # Nothing but keyframes, deltas, the working copy and the LRU stays
        # resident.
        cap = (keyframes + 1 + cache) * state_bytes + delta_bytes
        assert keyframes == 200 // keyframe_interval
        assert manager.resident_bytes() <= cap * 1.05
        assert manager.get(ids[len(ids) // 2]).verify_root()

    def test_resident_bytes_count_the_materialised_lru(self):
        manager = SnapshotManager(page_size=64, keyframe_interval=10,
                                  materialized_cache=2)
        state = {"k": "a" * 300, "n": 0}
        for step in range(12):
            state["n"] = step
            manager.take(state, ts(step))
        before = manager.resident_bytes()
        first = manager.get(3)
        second = manager.get(7)
        held = sum(len(page) for page in first.pages + second.pages)
        assert held > 0
        assert manager.resident_bytes() == before + held
        manager.get(5)  # the two-entry LRU drops snapshot 3
        assert manager.resident_bytes() == before + held - sum(
            len(page) for page in first.pages) + sum(
            len(page) for page in manager.get(5).pages)

    def test_legacy_take_signature_still_works(self):
        # take(state, execution) is the whole signature: no dirt to report.
        manager = SnapshotManager(page_size=64)
        state = {"a": 1, "nested": {"b": [1, 2, 3]}}
        snapshot = manager.take(state, ts(10))
        assert snapshot.verify_root()
        assert manager.get(snapshot.snapshot_id).state == state

    def test_changed_pages_cover_all_byte_differences(self):
        rng = random.Random(99)
        manager = SnapshotManager(page_size=32, keyframe_interval=7)
        state = {"guest": {"tables": {f"t{i}": {"k": "v" * i} for i in range(12)},
                           "ops": 0},
                 "counter": 0, "tail": "z" * 100}
        previous = paginate(serialize_state(state), 32)
        manager.take(state, ts(0))
        for step in range(1, 200):
            state["counter"] += rng.choice((1, 10 ** rng.randrange(1, 6)))
            if rng.random() < 0.6:
                name = f"t{rng.randrange(15)}"
                tables = state["guest"]["tables"]
                if name in tables and rng.random() < 0.35:
                    del tables[name]
                else:
                    tables[name] = {"k": "x" * rng.randrange(0, 80)}
            manager.take(state, ts(step))
            current = paginate(serialize_state(state), 32)
            delta = manager.get_incremental(step + 1)
            # Exactly the pages whose bytes differ from the previous
            # snapshot's are shipped, each as it now reads.
            differing = {index: page for index, page in enumerate(current)
                         if index >= len(previous) or previous[index] != page}
            assert delta.changed_pages == differing, step
            assert delta.page_count == len(current), step
            previous = current

    def test_non_string_keyed_dicts(self):
        manager = SnapshotManager(page_size=16)
        state = {"blocks": {2: "b", 10: "a"}}
        first = manager.take(state, ts(1))
        assert first.pages == paginate(serialize_state(state), 16)
        state["blocks"][7] = "c"
        second = manager.take(state, ts(2))
        assert second.pages == paginate(serialize_state(state), 16)
        assert manager.get(second.snapshot_id).state == \
            json.loads(serialize_state(state))

    def test_unreported_in_place_write_is_in_the_next_snapshot(self):
        manager = SnapshotManager(page_size=64)
        state = {"a": {"row": "x" * 40}, "b": 1}
        manager.take(state, ts(1))
        state["a"]["row"] = "y" * 40  # same length, nothing told the manager
        second = manager.take(state, ts(2))
        assert manager.get_incremental(second.snapshot_id).changed_pages
        assert second.state_root == \
            merkle_root(paginate(serialize_state(state), 64))
        assert manager.get(second.snapshot_id).state == state


# ---------------------------------------------------------------------------
# VM state feeding the manager
# ---------------------------------------------------------------------------

def _query(op, table, key, value=None):
    payload = {"op": op, "table": table, "key": key, "request_id": 1}
    if value is not None:
        payload["value"] = value
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _held_root(vm):
    """The root of the state ``vm`` holds, from a from-scratch serialisation."""
    return MerkleTree(paginate(serialize_state(vm.get_full_state()))).root


def _rewrite_idle_row_in_place(vm):
    """Rewrite the ``idle`` table's row at equal length, outside any handler
    (no later query touches that table)."""
    row = vm.guest.tables["idle"]
    row["k"] = "b" * len(row["k"])


class TestVmDirtyTracking:
    """Dirty pages are found by diffing: each take serialises the VM's whole
    state and keeps the pages that differ from the previous snapshot's."""

    def test_randomized_vm_equivalence(self):
        rng = random.Random(7)
        vm = VirtualMachine(make_kvserver_image(),
                            nondet_source=FixedNondeterminismSource(default=1.0))
        vm.start()
        manager = SnapshotManager(page_size=128, keyframe_interval=4,
                                  materialized_cache=2)
        expected = []
        tick = 0
        for step in range(120):
            op = rng.choice(("insert", "insert", "update", "delete", "tick"))
            if op == "tick":
                tick += 1
                vm.deliver_event(TimerInterrupt(tick_number=tick))
            else:
                table = f"t{rng.randrange(6)}"
                key = f"k{rng.randrange(20)}"
                value = "v" * rng.randrange(0, 60)
                vm.deliver_event(PacketDelivery(
                    source="client", payload=_query(op, table, key, value),
                    message_id=f"m{step}"))
            if step % 5 == 4:
                snapshot = manager.take(vm.get_full_state(),
                                        vm.execution_timestamp)
                reference_pages = paginate(
                    serialize_state(vm.get_full_state()), 128)
                assert snapshot.pages == reference_pages, step
                assert snapshot.state_root == \
                    merkle_root(reference_pages), step
                expected.append(json.loads(serialize_state(vm.get_full_state())))
        for snapshot_id in manager.snapshot_ids():
            assert manager.get(snapshot_id).state == \
                expected[snapshot_id - 1]

    def test_idle_vm_produces_empty_delta(self):
        vm = VirtualMachine(make_echo_image(),
                            nondet_source=FixedNondeterminismSource())
        vm.start()
        manager = SnapshotManager(page_size=64)
        manager.take(vm.get_full_state(), vm.execution_timestamp)
        # No events in between: the second snapshot must ship zero pages.
        second = manager.take(vm.get_full_state(), vm.execution_timestamp)
        assert manager.get_incremental(second.snapshot_id).changed_pages == {}

    def test_replayer_incremental_root_matches(self):
        # The hasher the replayer uses must agree with a scratch rebuild at
        # every snapshot point of a live guest run.
        vm = VirtualMachine(make_kvserver_image(),
                            nondet_source=FixedNondeterminismSource(default=2.0))
        vm.start()
        hasher = IncrementalStateHasher()
        for step in range(20):
            vm.deliver_event(PacketDelivery(
                source="c", payload=_query("insert", "t0", f"k{step}", "x" * 30),
                message_id=f"m{step}"))
            _, _, root = hasher.update(vm.get_full_state())
            assert root == _held_root(vm)


class TestSnapshotRootIsTheStateHeld:
    """A snapshot commits to the state the machine holds, however that state
    was written: a root of anything else convicts an honest machine."""

    def test_logged_root_covers_an_in_place_write(self):
        scheduler, monitor = _build_monitor()
        monitor.start()

        def query(op, table, value, message_id):
            monitor.deliver_event(PacketDelivery(
                source="client", payload=_query(op, table, "k", value),
                message_id=message_id))
        query("insert", "idle", "a" * 24, "m0")
        query("insert", "busy", "x", "m1")
        monitor.take_snapshot()
        _rewrite_idle_row_in_place(monitor.vm)
        query("update", "busy", "y", "m2")
        monitor.take_snapshot()
        seal = [entry for entry in monitor.log
                if entry.entry_type is EntryType.SNAPSHOT][-1]
        assert seal.content["state_root"] == _held_root(monitor.vm).hex()

    def test_replayed_root_covers_an_in_place_write(self):
        vm = VirtualMachine(make_kvserver_image(),
                            nondet_source=FixedNondeterminismSource())
        vm.start()
        hasher = IncrementalStateHasher()

        def query(op, table, value, message_id):
            vm.deliver_event(PacketDelivery(
                source="client", payload=_query(op, table, "k", value),
                message_id=message_id))

        def check(snapshot_id):
            item = _SnapshotItem(sequence=snapshot_id, snapshot_id=snapshot_id,
                                 state_root=_held_root(vm).hex())
            return DeterministicReplayer._check_snapshot(vm, item, hasher)
        query("insert", "idle", "a" * 24, "m0")
        query("insert", "busy", "x", "m1")
        assert check(1) is None
        _rewrite_idle_row_in_place(vm)
        query("update", "busy", "y", "m2")
        assert check(2) is None


# ---------------------------------------------------------------------------
# Archive delta chains
# ---------------------------------------------------------------------------

def _ship_all(manager, service, machine="m"):
    for snapshot_id in manager.snapshot_ids():
        ship(service, machine, snapshots=[manager.ship_payload(snapshot_id)])


class TestArchiveDeltaChain:
    def _manager_with_history(self, steps=9):
        manager = SnapshotManager(page_size=64, keyframe_interval=4)
        state = {"rows": {f"r{i}": "x" * 30 for i in range(12)}, "n": 0}
        states = []
        for step in range(steps):
            state["n"] = step
            state["rows"][f"r{step % 14}"] = "y" * (10 + step)
            manager.take(state, ts(step))
            states.append(json.loads(serialize_state(state)))
        return manager, states

    def test_shipped_deltas_materialise_identically(self, tmp_path):
        manager, states = self._manager_with_history()
        archive = LogArchive(tmp_path / "a")
        service = AuditIngestService(archive)
        _ship_all(manager, service)
        assert not service.quarantine
        store = archive.snapshot_store("m")
        assert store.snapshot_ids() == manager.snapshot_ids()
        for snapshot_id in manager.snapshot_ids():
            restored = archive.load_snapshot("m", snapshot_id)
            assert restored.state == states[snapshot_id - 1]
            assert restored.verify_root()
            assert store.transfer_cost_bytes(snapshot_id) == \
                manager.transfer_cost_bytes(snapshot_id)
        # deltas survive a reopen from the manifest
        reopened = LogArchive(tmp_path / "a")
        assert reopened.recovery.clean
        assert reopened.load_snapshot("m", 7).state == states[6]

    def test_delta_without_base_quarantined(self, tmp_path):
        manager, _ = self._manager_with_history()
        service = AuditIngestService(LogArchive(tmp_path / "a"))
        # a delta; its base, 5, never shipped
        ship(service, "m", snapshots=[manager.ship_payload(6)])
        assert len(service.quarantine) == 1
        assert "base" in service.quarantine[0].reason

    def test_corrupt_delta_file_detected(self, tmp_path):
        manager, _ = self._manager_with_history()
        archive = LogArchive(tmp_path / "a")
        service = AuditIngestService(archive)
        _ship_all(manager, service)
        record = archive._snapshot_index["m"][6]  # noqa: SLF001 - test hook
        assert record.kind == "delta"
        # A well-formed page file with one page's content swapped (and the
        # frame's checksums redone): only the Merkle root can tell.
        delta = IncrementalSnapshot.from_bytes(archive.stored_bytes_of(record))
        delta.changed_pages[min(delta.changed_pages)] = b"EVIL"
        replace_payload(archive.root, record, delta.to_bytes())
        archive = LogArchive(archive.root)
        with pytest.raises(SnapshotError, match="hash-tree"):
            archive.load_snapshot("m", 7)
        # ... and a damaged one is refused by the reader: by the page file's
        # decoder, and before it by the frame's checksum.
        record = archive._snapshot_index["m"][6]  # noqa: SLF001 - test hook
        replace_payload(archive.root, record,
                        archive.stored_bytes_of(record)[:-3])
        with pytest.raises(ArchiveIntegrityError, match="corrupt"):
            LogArchive(archive.root).load_snapshot("m", 7)
        scribble(archive.root, LogArchive(archive.root)  # noqa: SLF001
                 ._snapshot_index["m"][5], b"\0\0\0", at=90)
        with pytest.raises(ArchiveIntegrityError, match="checksum"):
            LogArchive(archive.root).load_snapshot("m", 7)

    def test_truncation_boundary_becomes_keyframe(self, tmp_path):
        from repro.log.entries import snapshot_content
        from repro.log.tamper_evident import TamperEvidentLog

        manager, states = self._manager_with_history(steps=3)
        log = TamperEvidentLog("m")
        for snapshot_id in (1, 2, 3):
            log.append(EntryType.TIMETRACKER, {
                "event_kind": "clock_read", "execution_counter": snapshot_id,
                "branch_counter": 0, "value": 0.5})
            delta = manager.get_incremental(snapshot_id)
            log.append(EntryType.SNAPSHOT, snapshot_content(
                snapshot_id, delta.state_root, snapshot_id))
        archive = LogArchive(tmp_path / "a")
        service = AuditIngestService(archive)
        _ship_all(manager, service)
        for segment in log.segments_between_snapshots():
            seals = segment.entries_of_type(EntryType.SNAPSHOT)
            sealed = int(seals[-1].content["snapshot_id"]) \
                if seals and seals[-1] is segment.entries[-1] else None
            archive.append_segment(segment, sealed_by_snapshot=sealed)

        assert archive._snapshot_index["m"][2].kind == "delta"  # noqa: SLF001
        checkpoint = archive.truncate("m", log.entry_at(4).sequence)
        assert checkpoint.sequence == 4
        record = archive._snapshot_index["m"][2]  # noqa: SLF001
        assert record.kind == "keyframe"
        assert sorted(archive._snapshot_index["m"]) == [2, 3]  # noqa: SLF001
        # both survivors still materialise and verify after reopening
        reopened = LogArchive(tmp_path / "a")
        assert reopened.recovery.clean
        for snapshot_id, expected in ((2, states[1]), (3, states[2])):
            snapshot = reopened.load_snapshot("m", snapshot_id)
            assert snapshot.state == expected
            assert snapshot.verify_root()
        state, transfer = reopened.initial_state_for("m")
        assert state == states[1]
        assert transfer == manager.transfer_cost_bytes(2)


# ---------------------------------------------------------------------------
# Monitor integration: picklable log clock, CoW snapshot tick, delta shipping
# ---------------------------------------------------------------------------

def _build_monitor(snapshot_interval=1.0):
    scheduler = Scheduler()
    config = AvmmConfig.for_configuration(Configuration.AVMM_NOSIG,
                                          snapshot_interval=snapshot_interval)
    monitor = AccountableVMM("kv", make_kvserver_image(), config, scheduler)
    return scheduler, monitor


def _build_shipping_monitor(tmp_path, snapshot_interval=1.0):
    from repro.network.simnet import SimulatedNetwork

    scheduler = Scheduler()
    network = SimulatedNetwork(scheduler)
    config = AvmmConfig.for_configuration(Configuration.AVMM_NOSIG,
                                          snapshot_interval=snapshot_interval)
    monitor = AccountableVMM("kv", make_kvserver_image(), config, scheduler,
                             network=network)
    archive = LogArchive(tmp_path / "archive")
    service = AuditIngestService(archive, network=network)
    return scheduler, network, monitor, service


class TestMonitorIntegration:
    def test_log_clock_is_picklable_and_reads_scheduler_time(self):
        scheduler, monitor = _build_monitor()
        scheduler.clock.advance_to(12.5)
        entry = monitor.log.append(
            __import__("repro.log.entries", fromlist=["EntryType"]).EntryType.NONDET,
            {"event_kind": "probe", "execution_counter": 0, "data": {}})
        assert entry.timestamp == 12.5
        clone = pickle.loads(pickle.dumps(monitor.log))
        assert len(clone) == len(monitor.log)
        assert clone.entries[-1].timestamp == 12.5

    def test_snapshot_tick_uses_cow_and_charges_dirty_bytes(self):
        scheduler, monitor = _build_monitor()
        monitor.start()
        scheduler.run_until(3.1)
        monitor.stop()
        assert monitor.snapshots.count >= 3
        first = monitor.snapshots.get_incremental(1)
        later = monitor.snapshots.get_incremental(monitor.snapshots.count)
        # after the first (full) snapshot, deltas must be much smaller than
        # the whole paginated state
        assert later.incremental_bytes < sum(
            len(p) for p in monitor.snapshots.get(1).pages) or \
            later.page_count == 1
        assert first.base_snapshot_id is None
        assert monitor.stats.vmm_cpu_seconds > 0
        # roots logged in the tamper-evident stream match the managers' roots
        seals = [e for e in monitor.log if e.entry_type is EntryType.SNAPSHOT]
        assert len(seals) == monitor.snapshots.count
        for entry in seals:
            snapshot_id = int(entry.content["snapshot_id"])
            assert entry.content["state_root"] == \
                monitor.snapshots.get_incremental(snapshot_id).state_root.hex()

    def test_a_dropped_shipment_moves_no_cursor(self, tmp_path):
        """A shipment is one message: dropped, nothing it carried counts as
        shipped; accepted, everything queued behind the drops goes with it."""
        scheduler, network, monitor, service = _build_shipping_monitor(tmp_path)
        monitor.attach_archive_shipper(service.identity)
        monitor.start()
        network.cut_links.add(("kv", service.identity))
        scheduler.run_until(3.1)  # 3 snapshots, every shipment dropped
        monitor.stop()
        assert len(monitor._pending_snapshot_ships) == 3  # noqa: SLF001
        assert monitor.shipped_through == 0
        assert not monitor.ship_archive_tail()  # still partitioned
        assert len(monitor._pending_snapshot_ships) == 3  # noqa: SLF001
        assert not monitor.archive_shipping_complete
        network.cut_links.clear()

        sent = network.stats_for("kv").messages_sent
        assert monitor.ship_archive_tail()
        assert network.stats_for("kv").messages_sent == sent + 1
        assert monitor.archive_shipping_complete
        assert not monitor.ship_archive_tail()  # nothing left to ship
        scheduler.run_until(scheduler.clock.now + 1.0)
        assert not service.quarantine
        assert service.archive.snapshot_store("kv").snapshot_ids() == \
            monitor.snapshots.snapshot_ids()
        # one group: the three page files (the first forced to a keyframe)
        # and one segment spanning all three seals — a tail, so not a GC
        # boundary, exactly as when the link dropped them one by one
        (record,) = service.archive.segment_records("kv")
        assert record.last_sequence == len(monitor.log)
        assert record.sealed_by_snapshot is None
        commits = {snap.commit for snap in
                   service.archive._snapshot_index["kv"].values()}  # noqa: SLF001
        assert commits == {record.commit}
        assert LogArchive(service.archive.root).recovery.clean

    def test_mid_run_attach_ships_keyframe_anchor(self, tmp_path):
        """Attaching the shipper after snapshots already exist must anchor
        the archive with a full keyframe, not an unusable dangling delta."""
        scheduler, network, monitor, service = _build_shipping_monitor(tmp_path)
        monitor.start()
        scheduler.run_until(2.1)  # snapshots 1..2 taken, nothing shipped
        assert monitor.snapshots.count == 2
        monitor.attach_archive_shipper(service.identity)
        scheduler.run_until(4.1)  # snapshots 3..4 ship on their ticks
        monitor.stop()
        assert not service.quarantine
        store = service.archive.snapshot_store("kv")
        assert store.snapshot_ids() == [3, 4]
        index = service.archive._snapshot_index["kv"]  # noqa: SLF001
        assert index[3].kind == "keyframe"  # forced anchor (3 is not a
        assert index[4].kind == "delta"     # manager keyframe; 4 bases on 3)
        for snapshot_id in (3, 4):
            restored = service.archive.load_snapshot("kv", snapshot_id)
            assert restored.verify_root()
            assert restored.state == \
                monitor.snapshots.get(snapshot_id).state
