"""Tests for Merkle hash trees, including property-based inclusion proofs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.merkle import MerkleTree
from repro.errors import SnapshotError


class TestMerkleTree:
    def test_empty_rejected(self):
        with pytest.raises(SnapshotError):
            MerkleTree([])

    def test_single_leaf_root_is_leaf_hash(self):
        tree = MerkleTree([b"only"])
        assert tree.root == tree.leaf_hash(0)

    def test_root_deterministic(self):
        leaves = [b"a", b"b", b"c"]
        assert MerkleTree(leaves).root == MerkleTree(leaves).root

    def test_root_depends_on_content(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"a", b"c"]).root

    def test_root_depends_on_order(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_root_depends_on_length(self):
        assert MerkleTree([b"a"]).root != MerkleTree([b"a", b"a"]).root

    def test_proof_verifies(self):
        leaves = [bytes([i]) * 10 for i in range(7)]
        tree = MerkleTree(leaves)
        for i in range(len(leaves)):
            assert tree.proof(i).verify(tree.root)

    def test_proof_fails_against_wrong_root(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        other = MerkleTree([b"a", b"b", b"d"])
        assert not tree.proof(0).verify(other.root)

    def test_proof_index_out_of_range(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(SnapshotError):
            tree.proof(1)

    def test_proof_is_for_its_leaf_only(self):
        pages = [bytes([i]) * 4 for i in range(5)]
        tree = MerkleTree(pages)
        assert tree.proof(1).leaf_hash == tree.leaf_hash(1)
        assert MerkleTree([b"XXXX"] + pages[1:]).leaf_hash(0) != tree.leaf_hash(0)


class TestMerkleProperties:
    @given(st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=40),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_every_proof_verifies(self, leaves, data):
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
        assert tree.proof(index).verify(tree.root)

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
