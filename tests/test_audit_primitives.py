"""The primitives a live-log audit runs per entry, against what they replace.

* The chain link packs its buffer with one ``struct`` call per entry type
  when both hashes are 32 bytes long; it must equal the chain formula as
  ``hash_concat`` frames it, part by part, for any hash length, any 64-bit
  sequence and every entry type.
* ``LogSegment.size_bytes`` sums the content bytes and one fixed overhead
  per entry; it must equal the sum of ``LogEntry.size_bytes``.
* The per-entry layers of the audit import nothing inside a function: an
  import statement runs on every call.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import hashing
from repro.log.codec import decode_segment, encode_segment
from repro.log.entries import EntryType
from repro.log.hashchain import entry_link_hash
from repro.log.segments import LogSegment
from repro.log.tamper_evident import TamperEvidentLog

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

_HASHES = st.one_of(st.binary(min_size=32, max_size=32),
                    st.binary(max_size=64))


class TestPackedLink:
    @settings(max_examples=400, deadline=None)
    @given(previous=_HASHES, sequence=st.integers(0, (1 << 64) - 1),
           entry_type=st.sampled_from(list(EntryType)), content=_HASHES)
    def test_equals_the_framed_concatenation(self, previous, sequence,
                                             entry_type, content):
        assert entry_link_hash(previous, sequence, entry_type, content) == \
            hashing.hash_concat(previous, hashing.encode_int(sequence),
                                entry_type.wire_name.encode("utf-8"), content)

    @pytest.mark.parametrize("sequence", [1 << 64, -1])
    def test_a_sequence_past_64_bits_overflows_on_both_paths(self, sequence):
        # the packed path hands it to the joined one, which refuses it
        for length in (32, 31):
            with pytest.raises(OverflowError):
                entry_link_hash(b"\x01" * length, sequence, EntryType.SEND,
                                b"\x02" * 32)


_CONTENT = st.dictionaries(
    st.text(max_size=8),
    st.one_of(st.none(), st.booleans(), st.integers(-(1 << 70), 1 << 70),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=20)),
    max_size=5)


class TestSegmentSize:
    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(list(EntryType)), _CONTENT),
                         max_size=12))
    def test_equals_the_sum_over_entries(self, rows):
        log = TamperEvidentLog("m")
        for entry_type, content in rows:
            log.append(entry_type, content)
        segment = log.full_segment()
        expected = sum(entry.size_bytes() for entry in segment.entries)
        assert segment.size_bytes() == expected
        if segment.entries:
            for version in (1, 3):  # eager v1 rows, lazy v3 frames
                decoded = decode_segment(encode_segment(segment, version))
                assert decoded.size_bytes() == expected

    def test_an_empty_segment_is_zero_bytes(self):
        assert LogSegment("m", [], hashing.ZERO_HASH).size_bytes() == 0

    def test_a_recorded_log(self, honest_session):
        segment = honest_session.monitors["server"].get_log_segment()
        assert segment.size_bytes() == sum(
            entry.size_bytes() for entry in segment.entries) > 0


#: the layers a live-log audit walks once per entry
PER_ENTRY_MODULES = ("vm/machine.py", "avmm/replayer.py", "audit/syntactic.py",
                     "audit/kernel.py", "log/hashchain.py")


def function_level_imports(path: Path):
    """``(line, function)`` of every import statement inside a function."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and function:
                found.append((child.lineno, function))
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                inner = getattr(child, "name", "<lambda>")
            visit(child, inner)

    visit(ast.parse(path.read_text()), None)
    return found


class TestNoFunctionLevelImports:
    @pytest.mark.parametrize("module", PER_ENTRY_MODULES)
    def test_none_in(self, module):
        assert function_level_imports(SRC / module) == []

    def test_the_scan_finds_one(self, tmp_path):
        planted = tmp_path / "planted.py"
        planted.write_text("import os\n\n\nclass A:\n    def f(self):\n"
                           "        if self:\n            from os import path\n"
                           "        return path\n")
        assert function_level_imports(planted) == [(7, "f")]
