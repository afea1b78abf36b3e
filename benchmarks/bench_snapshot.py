"""Incremental snapshots (Section 4.4).

*"To save space, snapshots are incremental ... the AVMM also maintains a
hash tree over the state; after each snapshot, it updates the tree."*  This
benchmark takes 200 snapshots of a large, mostly-idle database state — the
Section 6.12 spot-check regime — and asserts that the manager's resident
bytes stay bounded (keyframes + deltas + working copy), an order of
magnitude under the retain-every-full-snapshot design it replaces, with
every snapshot still reachable on demand.
"""

from _bench_utils import scaled

from repro.vm.execution import ExecutionTimestamp
from repro.vm.snapshot import SnapshotManager, serialize_state


def _build_state(tables, row_bytes):
    """A kv-server-shaped state: many tables, most of them idle."""
    return {
        "guest": {
            "tables": {f"table-{i:04d}": {"row": "x" * row_bytes}
                       for i in range(tables)},
            "operations": 10_000_000,
            "ticks": 10_000_000,
        },
        "disk": {"0": "00ff" * 8},
        "instruction_count": 10 ** 12,
        "branch_count": 10 ** 9,
        "frames": 0,
        "timer_interval": 0.5,
        "started": True,
    }


def _mutate(state, step, row_bytes):
    """Rewrite one table, plus the counters."""
    table = f"table-{step % len(state['guest']['tables']):04d}"
    fill = "abcdefghij"[step % 10]
    state["guest"]["tables"][table] = {"row": fill * row_bytes}
    state["guest"]["operations"] += 1
    state["instruction_count"] += 137


def test_resident_memory_bounded_over_200_snapshots(benchmark):
    tables = scaled(1000, 500)
    row_bytes = scaled(512, 256)
    snapshots = 200  # the acceptance criterion names a 200-snapshot run
    keyframe_interval = 25

    def run():
        state = _build_state(tables, row_bytes)
        manager = SnapshotManager(keyframe_interval=keyframe_interval,
                                  materialized_cache=2)
        state_bytes = len(serialize_state(state))
        for step in range(snapshots):
            if step:
                _mutate(state, step, row_bytes)
            manager.take(state, ExecutionTimestamp(step, 0))
        return manager, state_bytes

    manager, state_bytes = benchmark.pedantic(run, rounds=1, iterations=1)
    keyframes = sum(1 for sid in manager.snapshot_ids()
                    if manager.is_keyframe(sid))
    delta_bytes = sum(manager.get_incremental(sid).incremental_bytes
                      for sid in manager.snapshot_ids())
    resident = manager.resident_bytes()
    naive = snapshots * state_bytes  # retain-every-full-snapshot design
    print()
    print(f"{snapshots} snapshots of a {state_bytes:,} B state: "
          f"{keyframes} keyframes, resident {resident:,} B "
          f"(naive full retention {naive:,} B, {naive / resident:.1f}x more)")
    assert manager.count == snapshots
    # Bounded *structurally*: what stays resident is keyframes + deltas +
    # the working copy + the small materialisation LRU — nothing else.
    cap = (keyframes + 1 + 2) * state_bytes + delta_bytes  # +working +LRU
    assert resident <= cap * 1.05
    # And the delta layout stays well under full retention.
    assert resident < naive / 6
    # Every snapshot is still reachable (spot-checkable) on demand.
    probe = manager.snapshot_ids()[len(manager.snapshot_ids()) // 2]
    assert manager.get(probe).verify_root()
