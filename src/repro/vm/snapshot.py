"""VM snapshots with hash trees, stored as page deltas.

Section 4.4: *To enable spot checking and incremental audits, the AVMM
periodically takes a snapshot of the AVM's current state.  To save space,
snapshots are incremental... The AVMM also maintains a hash tree over the
state; after each snapshot, it updates the tree and then records the top-level
value in the log.*

A snapshot is the serialised VM state split into fixed-size pages; the Merkle
root over the page list is what gets logged, and the auditor can download
either the whole snapshot or individual pages with inclusion proofs.

The manager implements the paper's design literally:

* every snapshot serialises the whole state and diffs its pages against the
  previous snapshot's, so a snapshot *records* only the pages that changed;
* one persistent :class:`~repro.crypto.merkle.MerkleTree` per machine is
  *updated* (``update_leaf``/``append_leaf``/``truncate``, O(log n) each)
  instead of rebuilt from all leaves;
* storage is a **delta chain**: every snapshot is kept as its changed pages
  (:class:`IncrementalSnapshot`); full page lists exist only at periodic
  *keyframes* plus a small LRU of materialised states, so resident memory is
  bounded for unbounded runs.  :func:`materialize` is the one walk of a
  delta chain — here and in the archive — back to the nearest keyframe and
  forward again, verifying the page count and Merkle root at every step.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.crypto.hashing import HASH_SIZE_BYTES
from repro.crypto.merkle import MerkleTree
from repro.errors import SnapshotError
from repro.vm.execution import ExecutionTimestamp

#: bytes per page of a serialised state
PAGE_SIZE = 4096

#: full snapshots are materialised on demand; this many stay cached
MATERIALIZED_CACHE = 4

#: a full page list (keyframe) is retained every this-many snapshots;
#: everything in between lives as deltas only
KEYFRAME_INTERVAL = 16

# The paper notes (Section 6.12) that VMware Workstation dumps the AVM's full
# main memory (512 MB) for every snapshot; we carry that figure in the cost
# model so the Figure 9 fixed per-chunk cost has the right magnitude.
FULL_MEMORY_DUMP_BYTES = 512 * 1024 * 1024

#: the snapshot page file — keyframes and deltas, on the wire and in the
#: archive (docs/snapshots.md): the fixed header below, then one
#: ``(index, length)``-prefixed raw page per page carried, under zlib when
#: the flags byte says so
SNAPSHOT_MAGIC = b"AVMSNAP1"
SNAPSHOT_FLAG_DEFLATE = 0x01
#: caps on the header's own fields, so a reader's bounds follow from it
MAX_PAGE_SIZE = 1 << 20
MAX_PAGE_COUNT = 1 << 24
#: magic, flags, snapshot id, base id (-1: none — a keyframe), page count,
#: page size, pages carried, instructions, branches, transfer bytes, root
_PAGE_FILE_HEADER = struct.Struct("<8sBQqIIIQQQ32s")
_PAGE_HEADER = struct.Struct("<II")


def serialize_state(state: Dict[str, Any]) -> bytes:
    """Canonical byte serialisation of a VM state dictionary."""
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode("utf-8")


def paginate(data: bytes) -> List[bytes]:
    """Split ``data`` into :data:`PAGE_SIZE` pages (last page may be short)."""
    if not data:
        return [b""]
    return [data[i:i + PAGE_SIZE] for i in range(0, len(data), PAGE_SIZE)]


class Snapshot:
    """A full snapshot of VM state at a point in the execution.

    The ``state`` dictionary is materialised lazily from the page bytes, so
    producing a :class:`Snapshot` on the hot path costs nothing beyond the
    page list itself.
    """

    def __init__(self, snapshot_id: int, execution: ExecutionTimestamp,
                 pages: List[bytes], state_root: bytes) -> None:
        self.snapshot_id = snapshot_id
        self.execution = execution
        self.pages = pages
        self.state_root = state_root
        self._state: Optional[Dict[str, Any]] = None

    @property
    def state(self) -> Dict[str, Any]:
        """The state dictionary (decoded from the pages on first access)."""
        if self._state is None:
            self._state = json.loads(b"".join(self.pages).decode("utf-8"))
        return self._state

    def verify_root(self) -> bool:
        """Recompute the Merkle root and compare with the recorded one."""
        return MerkleTree(self.pages).root == self.state_root


@dataclass
class IncrementalSnapshot:
    """Pages that changed since the previous snapshot, plus the new root.

    This is the durable form of every snapshot: the delta an auditor
    downloads (Section 4.4, "to save space, snapshots are incremental") and
    the record the manager replays to materialise full state on demand.
    """

    snapshot_id: int
    execution: ExecutionTimestamp
    #: the snapshot ``changed_pages`` applies on top of; ``None`` for a
    #: keyframe, which carries every page
    base_snapshot_id: Optional[int]
    changed_pages: Dict[int, bytes]
    page_count: int
    state_root: bytes
    page_size: int = PAGE_SIZE
    #: what an auditor downloads to start replay here, as the source
    #: machine's manager priced it (a delta re-shipped as a keyframe still
    #: costs its delta)
    transfer_bytes: int = 0

    @property
    def incremental_bytes(self) -> int:
        """Size of the incremental (changed-page) data."""
        return sum(len(page) for page in self.changed_pages.values())

    def as_keyframe(self, pages: List[bytes]) -> "IncrementalSnapshot":
        """This snapshot as a keyframe: every page of ``pages`` (its state,
        materialised) and no base.  Its transfer price stays its own."""
        return replace(self, base_snapshot_id=None,
                       changed_pages=dict(enumerate(pages)),
                       page_count=len(pages))

    def to_bytes(self) -> bytes:
        """This snapshot as a page file (pages in index order, deflated)."""
        base = -1 if self.base_snapshot_id is None else self.base_snapshot_id
        if len(self.state_root) != HASH_SIZE_BYTES:  # "32s" would pad or cut
            raise SnapshotError(f"snapshot {self.snapshot_id} carries a "
                                f"{len(self.state_root)}-byte state root")
        try:
            header = _PAGE_FILE_HEADER.pack(
                SNAPSHOT_MAGIC, SNAPSHOT_FLAG_DEFLATE, self.snapshot_id, base,
                self.page_count, self.page_size, len(self.changed_pages),
                self.execution.instruction_count, self.execution.branch_count,
                self.transfer_bytes, self.state_root)
            body = b"".join(
                part for index, page in sorted(self.changed_pages.items())
                for part in (_PAGE_HEADER.pack(index, len(page)), page))
        except struct.error as exc:
            raise SnapshotError(f"snapshot {self.snapshot_id} does not fit "
                                f"a page file: {exc}") from exc
        return header + zlib.compress(body)

    @staticmethod
    def from_bytes(data: bytes) -> "IncrementalSnapshot":
        """Strict, bounded inverse of :meth:`to_bytes`.

        Untrusted input: nothing is allocated on the header's word — the
        body may inflate to at most what the (capped) geometry allows, every
        page is checked against the bytes that remain — and every refusal is
        a :class:`SnapshotError`.
        """
        if len(data) < _PAGE_FILE_HEADER.size \
                or data[:len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
            raise SnapshotError("not a snapshot page file")
        (_, flags, snapshot_id, base, page_count, page_size, carried,
         instructions, branches, transfer_bytes, state_root) = \
            _PAGE_FILE_HEADER.unpack_from(data)

        def refused(why: str) -> SnapshotError:
            return SnapshotError(f"page file of snapshot {snapshot_id}: {why}")
        if flags & ~SNAPSHOT_FLAG_DEFLATE \
                or not (0 < page_size <= MAX_PAGE_SIZE
                        and 0 < page_count <= MAX_PAGE_COUNT
                        and carried <= page_count and base >= -1) \
                or (base < 0 and carried != page_count):  # a keyframe: all
            raise refused(f"impossible header (flags {flags:#04x}, {carried} "
                          f"of {page_count} pages of {page_size} bytes, "
                          f"base {base})")
        body = memoryview(data)[_PAGE_FILE_HEADER.size:]
        limit = carried * (_PAGE_HEADER.size + page_size)
        if flags & SNAPSHOT_FLAG_DEFLATE:
            inflater = zlib.decompressobj()
            try:
                body = inflater.decompress(body, limit + 1)
            except zlib.error as exc:
                raise refused(str(exc)) from exc
            if not inflater.eof or inflater.unused_data:
                raise refused(f"not one zlib stream of at most {limit} bytes")
        pages: Dict[int, bytes] = {}
        offset = 0
        for _ in range(carried):
            if offset + _PAGE_HEADER.size > len(body):
                raise refused(f"{len(pages)} pages carried, not {carried}")
            index, length = _PAGE_HEADER.unpack_from(body, offset)
            offset += _PAGE_HEADER.size + length
            if index >= page_count or index in pages or length > page_size \
                    or offset > len(body):
                raise refused(f"bad page {index} ({length} bytes)")
            pages[index] = bytes(body[offset - length:offset])
        if offset != len(body):
            raise refused(f"{len(body) - offset} trailing bytes")
        return IncrementalSnapshot(
            snapshot_id=snapshot_id,
            execution=ExecutionTimestamp(instructions, branches),
            base_snapshot_id=base if base >= 0 else None,
            changed_pages=pages, page_count=page_count,
            state_root=state_root, page_size=page_size,
            transfer_bytes=transfer_bytes)


def apply_delta(pages: List[bytes], delta: IncrementalSnapshot) -> List[bytes]:
    """Apply one delta to a base page list, verifying the result.

    Removed trailing pages are implied by ``delta.page_count``; rather than
    truncating silently, the reconstruction is checked twice — the page list
    must tile exactly (no holes, no stray indices) and its Merkle root must
    equal the delta's recorded ``state_root``.  Any mismatch raises
    :class:`SnapshotError`.
    """
    result: List[Optional[bytes]] = list(pages)
    if delta.page_count < 1:
        raise SnapshotError(
            f"delta {delta.snapshot_id} advertises page count {delta.page_count}")
    if delta.page_count - len(result) > len(delta.changed_pages):
        # refused before the list is grown on the delta's word
        raise SnapshotError(
            f"delta {delta.snapshot_id} grows the snapshot to "
            f"{delta.page_count} pages but supplies "
            f"{len(delta.changed_pages)}")
    if delta.page_count < len(result):
        del result[delta.page_count:]
    elif delta.page_count > len(result):
        result.extend([None] * (delta.page_count - len(result)))
    for index, page in delta.changed_pages.items():
        if index < 0 or index >= delta.page_count:
            raise SnapshotError(
                f"delta {delta.snapshot_id} contains page {index} outside "
                f"its advertised page count {delta.page_count}")
        result[index] = page
    if any(page is None for page in result):
        missing = [i for i, page in enumerate(result) if page is None]
        raise SnapshotError(
            f"delta {delta.snapshot_id} grows the snapshot but does not "
            f"supply pages {missing[:5]}")
    applied: List[bytes] = result  # type: ignore[assignment]
    if MerkleTree(applied).root != delta.state_root:
        raise SnapshotError(
            f"delta {delta.snapshot_id} reconstruction fails hash-tree "
            f"verification (page count {delta.page_count})")
    return applied


def materialize(snapshot_id: int,
                held: Callable[[int], Optional[List[bytes]]],
                base_of: Callable[[int], Optional[int]],
                delta: Callable[[int], IncrementalSnapshot]
                ) -> Tuple[List[bytes], int]:
    """The one walk of a delta chain: the pages of ``snapshot_id``.

    It walks back through each snapshot's base (``base_of``) to one whose
    every page is at hand — ``held`` (a keyframe kept whole, a
    reconstruction still cached) or a keyframe's page file (no base: its
    ``delta`` carries every page) — then forward, each ``delta`` applied by
    :func:`apply_delta`, which checks the page count and the Merkle root.
    Returns the pages (a list of the caller's own) and how many deltas were
    applied; pages taken as they were held are the caller's to check.
    """
    chain: List[int] = []
    while (pages := held(snapshot_id)) is None:
        base = base_of(snapshot_id)
        if base is None:
            keyframe = delta(snapshot_id)
            pages = [keyframe.changed_pages[index]
                     for index in range(keyframe.page_count)]
            break
        chain.append(snapshot_id)
        snapshot_id = base
    for step in reversed(chain):
        pages = apply_delta(pages, delta(step))
    return list(pages), len(chain)


def remember(recent: "OrderedDict[Hashable, Any]", key: Hashable,
             value: Any) -> None:
    """Keep ``value`` as the most recent of at most
    :data:`MATERIALIZED_CACHE` reconstructions."""
    recent[key] = value
    recent.move_to_end(key)
    while len(recent) > MATERIALIZED_CACHE:
        recent.popitem(last=False)


class IncrementalStateHasher:
    """Maintains canonical pages and their Merkle tree across state changes.

    One instance follows one machine's state.  Each :meth:`update` call
    serialises the whole state, paginates it, byte-compares every page
    against the previous page list, and repairs the persistent tree with
    O(changed x log n) hash work.  The replayer keeps a private instance per
    replay, so both sides compute the root by the same steps.

    Nothing is told what changed: the diff finds it, so the logged root is
    always the root of the state the machine holds.
    """

    def __init__(self) -> None:
        self._tree: Optional[MerkleTree] = None
        self._pages: Optional[List[bytes]] = None

    @property
    def pages(self) -> Optional[List[bytes]]:
        """The current page list (treat as read-only)."""
        return self._pages

    def update(self, state: Dict[str, Any]
               ) -> Tuple[List[bytes], Dict[int, bytes], bytes]:
        """Bring pages and tree up to date with ``state``.

        Returns ``(pages, changed_pages, root)``: a page is in
        ``changed_pages`` iff its bytes differ from the previous snapshot's
        page at the same index, or it lies beyond the previous page count.
        """
        pages = paginate(serialize_state(state))
        changed = self._diff_pages(pages)
        self._apply_to_tree(pages, changed)
        self._pages = pages
        assert self._tree is not None
        return pages, changed, self._tree.root

    # -- internals -----------------------------------------------------------

    def _diff_pages(self, pages: List[bytes]) -> Dict[int, bytes]:
        previous = self._pages or []
        return {i: page for i, page in enumerate(pages)
                if i >= len(previous) or previous[i] != page}

    def _apply_to_tree(self, pages: List[bytes],
                       changed: Dict[int, bytes]) -> None:
        if self._tree is None or self._pages is None:
            self._tree = MerkleTree(pages)
            return
        tree = self._tree
        if len(pages) < tree.size:
            tree.truncate(len(pages))
        for index in sorted(changed):
            if index < tree.size:
                tree.update_leaf(index, pages[index])
            elif index == tree.size:
                tree.append_leaf(pages[index])
            else:  # pragma: no cover - the diff yields dense tail indices
                raise SnapshotError(
                    f"page {index} appended beyond the tree's {tree.size} leaves")


@dataclass
class SnapshotStats:
    """Work and storage counters (drives the snapshot benchmark's table)."""

    takes: int = 0
    pages_hashed: int = 0
    dirty_bytes_total: int = 0
    keyframes: int = 0
    materializations: int = 0


class SnapshotManager:
    """Takes incremental snapshots and reconstructs full state for audits.

    Storage layout: every snapshot is a delta (changed pages); every
    :data:`KEYFRAME_INTERVAL`-th snapshot additionally pins its full page
    list.  Materialising snapshot *s* loads the nearest keyframe at or below
    *s* and applies at most ``KEYFRAME_INTERVAL - 1`` deltas, verifying page
    count and Merkle root at each step; a bounded LRU keeps recently
    materialised snapshots hot for audit bursts.  Resident memory is
    therefore O(keyframes + deltas), not O(snapshots x state).
    """

    def __init__(self) -> None:
        self.stats = SnapshotStats()
        self._hasher = IncrementalStateHasher()
        self._deltas: Dict[int, IncrementalSnapshot] = {}
        self._keyframes: Dict[int, List[bytes]] = {}
        self._executions: Dict[int, ExecutionTimestamp] = {}
        self._materialized: "OrderedDict[int, Snapshot]" = OrderedDict()
        self._next_id = 1

    # -- taking snapshots -----------------------------------------------------

    def take(self, state: Dict[str, Any],
             execution: ExecutionTimestamp) -> Snapshot:
        """Snapshot ``state``: serialise it, keep the pages that changed.

        Serialisation and the page diff cost O(state); hashing and storage
        cost O(changed pages), because the Merkle tree is repaired rather
        than rebuilt and only the changed pages are kept (Section 4.4).
        """
        snapshot_id = self._next_id
        pages, changed, root = self._hasher.update(state)
        dirty_bytes = sum(len(page) for page in changed.values())
        delta = IncrementalSnapshot(
            snapshot_id=snapshot_id,
            execution=execution,
            base_snapshot_id=snapshot_id - 1 if snapshot_id > 1 else None,
            changed_pages=changed,
            page_count=len(pages),
            state_root=root,
            page_size=PAGE_SIZE,
            transfer_bytes=dirty_bytes + FULL_MEMORY_DUMP_BYTES,
        )
        self._deltas[snapshot_id] = delta
        self._executions[snapshot_id] = execution
        if self._is_keyframe(snapshot_id):
            self._keyframes[snapshot_id] = list(pages)
            self.stats.keyframes += 1
        self._next_id += 1
        self.stats.takes += 1
        self.stats.pages_hashed += len(changed)
        self.stats.dirty_bytes_total += dirty_bytes
        return Snapshot(snapshot_id=snapshot_id, execution=execution,
                        pages=list(pages), state_root=root)

    def _is_keyframe(self, snapshot_id: int) -> bool:
        return (snapshot_id - 1) % KEYFRAME_INTERVAL == 0

    # -- queries --------------------------------------------------------------

    @property
    def count(self) -> int:
        return len(self._deltas)

    def __contains__(self, snapshot_id: object) -> bool:
        return snapshot_id in self._deltas

    def get(self, snapshot_id: int) -> Snapshot:
        """Materialise the full snapshot ``snapshot_id`` (LRU-cached)."""
        cached = self._materialized.get(snapshot_id)
        if cached is not None:
            self._materialized.move_to_end(snapshot_id)
            return cached
        delta = self._deltas.get(snapshot_id)
        if delta is None:
            raise SnapshotError(f"no snapshot with id {snapshot_id}")
        if snapshot_id == self._next_id - 1 and self._hasher.pages is not None:
            pages = list(self._hasher.pages)
        else:
            self.stats.materializations += 1
            pages, applied = materialize(
                snapshot_id, self._held,
                lambda step: self._deltas[step].base_snapshot_id,
                self._deltas.__getitem__)
            if not applied and MerkleTree(pages).root != delta.state_root:
                raise SnapshotError(
                    f"keyframe {snapshot_id} fails hash-tree verification")
        snapshot = Snapshot(snapshot_id=snapshot_id,
                            execution=self._executions[snapshot_id],
                            pages=pages, state_root=delta.state_root)
        remember(self._materialized, snapshot_id, snapshot)
        return snapshot

    def _held(self, snapshot_id: int) -> Optional[List[bytes]]:
        """A snapshot's every page, if kept: a reconstruction, a keyframe."""
        cached = self._materialized.get(snapshot_id)
        return cached.pages if cached is not None \
            else self._keyframes.get(snapshot_id)

    def get_incremental(self, snapshot_id: int) -> IncrementalSnapshot:
        incremental = self._deltas.get(snapshot_id)
        if incremental is None:
            raise SnapshotError(f"no incremental snapshot with id {snapshot_id}")
        return incremental

    def is_keyframe(self, snapshot_id: int) -> bool:
        """Whether ``snapshot_id`` is stored as a full keyframe."""
        if snapshot_id not in self._deltas:
            raise SnapshotError(f"no snapshot with id {snapshot_id}")
        return snapshot_id in self._keyframes

    def transfer_cost_bytes(self, snapshot_id: int) -> int:
        """Bytes an auditor must download to start replay at ``snapshot_id``
        (its incremental pages and the memory dump)."""
        return self.get_incremental(snapshot_id).transfer_bytes

    # -- memory accounting ----------------------------------------------------

    def resident_bytes(self) -> int:
        """Approximate bytes the manager keeps resident.

        Counts keyframe pages, delta pages, the current working page list
        and the materialisation cache.  Bounded by O(keyframes + deltas) —
        the point of the delta layout — where the historical design
        held every full snapshot forever.
        """
        total = sum(len(page) for pages in self._keyframes.values()
                    for page in pages)
        total += sum(delta.incremental_bytes for delta in self._deltas.values())
        if self._hasher.pages is not None:
            total += sum(len(page) for page in self._hasher.pages)
        total += sum(len(page) for snapshot in self._materialized.values()
                     for page in snapshot.pages)
        return total

    # -- shipping (archive / ingest payloads) ---------------------------------

    def ship_payload(self, snapshot_id: int,
                     force_keyframe: bool = False) -> bytes:
        """The page file that ships ``snapshot_id`` to an archive.

        A snapshot ships as the manager keeps it — its changed pages over
        its base (Section 4.4's space argument); the archive re-materialises
        on demand from its own copy of the chain.  A keyframe — and, with
        ``force_keyframe``, the first snapshot a fresh archive ever sees,
        whose base it would not hold — ships every page and names no base.
        """
        delta = self.get_incremental(snapshot_id)
        if delta.base_snapshot_id is not None \
                and (force_keyframe or self.is_keyframe(snapshot_id)):
            delta = delta.as_keyframe(self.get(snapshot_id).pages)
        return delta.to_bytes()
