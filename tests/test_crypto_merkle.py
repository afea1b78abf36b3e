"""Tests for Merkle hash trees: roots, and property-based tamper checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import hashing
from repro.crypto.merkle import _LEAF_PREFIX, MerkleTree
from repro.errors import SnapshotError


class TestMerkleTree:
    def test_empty_rejected(self):
        with pytest.raises(SnapshotError):
            MerkleTree([])

    def test_single_leaf_root_is_leaf_hash(self):
        tree = MerkleTree([b"only"])
        assert tree.root == hashing.hash_concat(_LEAF_PREFIX, b"only")

    def test_root_deterministic(self):
        leaves = [b"a", b"b", b"c"]
        assert MerkleTree(leaves).root == MerkleTree(leaves).root

    def test_root_depends_on_content(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"a", b"c"]).root

    def test_root_depends_on_order(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_root_depends_on_length(self):
        assert MerkleTree([b"a"]).root != MerkleTree([b"a", b"a"]).root



class TestMerkleProperties:
    @given(st.lists(st.binary(min_size=1, max_size=32), min_size=2, max_size=20),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_modified_leaf_changes_root(self, leaves, data):
        index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
        original = MerkleTree(leaves).root
        mutated = list(leaves)
        mutated[index] = mutated[index] + b"\x00tampered"
        assert MerkleTree(mutated).root != original

    @given(st.lists(st.binary(max_size=32), min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_size_matches_leaf_count(self, leaves):
        assert MerkleTree(leaves).size == len(leaves)
