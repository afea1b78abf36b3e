"""Merkle hash trees over VM state.

Section 4.4: *the AVMM also maintains a hash tree over the state; after each
snapshot, it updates the tree and then records the top-level value in the
log.*  The auditor uses the tree to authenticate whole snapshots or individual
pages she downloads incrementally, and (Section 7.3) to *remove any part of
the snapshot that is not necessary to replay the relevant segment* while still
letting a third party check the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.crypto import hashing
from repro.errors import SnapshotError

_LEAF_PREFIX = b"\x00leaf"
_NODE_PREFIX = b"\x01node"


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for a single leaf.

    ``path`` lists sibling hashes from the leaf up to (not including) the
    root; ``index`` is the leaf position, which determines on which side each
    sibling sits.
    """

    index: int
    leaf_hash: bytes
    path: tuple[bytes, ...]
    tree_size: int

    def verify(self, root: bytes) -> bool:
        """Check the proof against an expected root hash."""
        if self.index < 0 or self.index >= self.tree_size:
            return False
        node = self.leaf_hash
        index = self.index
        for sibling in self.path:
            if index % 2 == 1:
                node = hashing.hash_concat(_NODE_PREFIX, sibling, node)
            else:
                node = hashing.hash_concat(_NODE_PREFIX, node, sibling)
            index //= 2
        return node == root


class MerkleTree:
    """A Merkle tree built over an ordered sequence of leaf byte strings."""

    def __init__(self, leaves: Sequence[bytes]) -> None:
        if not leaves:
            raise SnapshotError("cannot build a Merkle tree over zero leaves")
        self._leaf_hashes: List[bytes] = [
            hashing.hash_concat(_LEAF_PREFIX, leaf) for leaf in leaves
        ]
        self._levels: List[List[bytes]] = [list(self._leaf_hashes)]
        current = self._leaf_hashes
        while len(current) > 1:
            parent: List[bytes] = []
            for i in range(0, len(current), 2):
                # An unpaired last node is hashed with itself so every level
                # pairs fully and every proof carries one sibling per level.
                right = current[i + 1] if i + 1 < len(current) else current[i]
                parent.append(hashing.hash_concat(_NODE_PREFIX, current[i], right))
            self._levels.append(parent)
            current = parent

    # -- queries ------------------------------------------------------------

    @property
    def root(self) -> bytes:
        """The top-level hash recorded in the tamper-evident log."""
        return self._levels[-1][0]

    @property
    def size(self) -> int:
        """Number of leaves."""
        return len(self._leaf_hashes)

    def leaf_hash(self, index: int) -> bytes:
        return self._leaf_hashes[index]

    def proof(self, index: int) -> MerkleProof:
        """Inclusion proof for the leaf at ``index``."""
        if index < 0 or index >= self.size:
            raise SnapshotError(f"leaf index {index} out of range (size {self.size})")
        path: List[bytes] = []
        level_index = index
        for level in self._levels[:-1]:
            sibling_index = level_index ^ 1
            if sibling_index >= len(level):
                sibling_index = level_index  # unpaired node pairs with itself
            path.append(level[sibling_index])
            level_index //= 2
        return MerkleProof(index=index, leaf_hash=self._leaf_hashes[index],
                           path=tuple(path), tree_size=self.size)

    # -- incremental maintenance (Section 4.4: *after each snapshot, it
    # -- updates the tree*) --------------------------------------------------

    def update_leaf(self, index: int, leaf: bytes) -> bytes:
        """Replace the leaf at ``index`` and repair the root in O(log n).

        Only the hashes on the leaf-to-root path are recomputed, so a
        snapshot that dirtied ``d`` of ``n`` pages costs ``d log n`` hash
        operations instead of the ``2n`` a full rebuild pays.  Returns the
        new root.
        """
        if index < 0 or index >= self.size:
            raise SnapshotError(f"leaf index {index} out of range (size {self.size})")
        leaf_hash = hashing.hash_concat(_LEAF_PREFIX, leaf)
        self._leaf_hashes[index] = leaf_hash
        self._levels[0][index] = leaf_hash
        self._fix_up(index)
        return self.root

    def append_leaf(self, leaf: bytes) -> bytes:
        """Append a leaf at the end and repair the root in O(log n).

        Growing the tree only perturbs the right spine: the new leaf's
        ancestors, plus any formerly-unpaired node that now has a real
        sibling (which is the same path).  Returns the new root.
        """
        leaf_hash = hashing.hash_concat(_LEAF_PREFIX, leaf)
        self._leaf_hashes.append(leaf_hash)
        self._levels[0].append(leaf_hash)
        self._fix_up(len(self._leaf_hashes) - 1)
        return self.root

    def truncate(self, size: int) -> bytes:
        """Shrink the tree to its first ``size`` leaves in O(log n) hashes.

        Interior nodes over surviving leaves are unaffected except along the
        new right spine (the last node of each level, which may have lost a
        child); those are exactly the ancestors of the new last leaf, so one
        fix-up pass repairs them.  Returns the new root.
        """
        if size < 1 or size > self.size:
            raise SnapshotError(
                f"cannot truncate a {self.size}-leaf tree to {size} leaves")
        if size == self.size:
            return self.root
        del self._leaf_hashes[size:]
        widths = [size]
        while widths[-1] > 1:
            widths.append((widths[-1] + 1) // 2)
        del self._levels[len(widths):]
        for level, width in zip(self._levels, widths):
            del level[width:]
        self._fix_up(size - 1)
        return self.root

    def _fix_up(self, index: int) -> None:
        """Recompute the ancestors of leaf ``index`` level by level."""
        level = 0
        while len(self._levels[level]) > 1:
            nodes = self._levels[level]
            parent_index = index // 2
            left = nodes[parent_index * 2]
            right_index = parent_index * 2 + 1
            right = nodes[right_index] if right_index < len(nodes) else left
            parent = hashing.hash_concat(_NODE_PREFIX, left, right)
            if level + 1 >= len(self._levels):
                self._levels.append([parent])
            elif parent_index == len(self._levels[level + 1]):
                self._levels[level + 1].append(parent)
            else:
                self._levels[level + 1][parent_index] = parent
            index = parent_index
            level += 1
