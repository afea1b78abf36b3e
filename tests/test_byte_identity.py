"""Byte identity of the log layer's fast paths against the code they replaced.

The compiled content packers, the one-buffer chain link and the packed
authenticator reader were rewritten for speed; the references in
``codec_tools`` are what they replaced.  Every hash already recorded or
signed was made over the old bytes, so the new code must produce the same
bytes — and the same errors — for every input, not only the inputs the
recorder happens to log.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import hashing
from repro.errors import LogFormatError
from repro.log.authenticator import Authenticator
from repro.log.entries import (
    _SHAPE_SPECS, TAG_ACK, TAG_SEND, EntryType, encode_content,
)
from repro.log.hashchain import entry_link_hash, link_hash
from repro.log.storage import authenticators_from_bytes, authenticators_to_bytes

from codec_tools import (
    ReferenceReader, reference_authenticators_from_bytes,
    reference_encode_content, reference_link_hash,
)

DIGEST = hashing.hash_bytes(b"digest").hex()


def _outcome(function, *args):
    """What ``function(*args)`` returns, or the type and text of what it
    raises — so two implementations can be compared error for error."""
    try:
        return function(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


# -- typed content packers --------------------------------------------------------

_SCALARS = st.one_of(st.none(), st.booleans(),
                     st.integers(-(1 << 70), 1 << 70), st.floats(),
                     st.text(max_size=8))
#: values a field of each kind takes from an honest recorder
_GOOD = {
    "s": st.text(max_size=12),
    "u64": st.integers(0, (1 << 64) - 1),
    "f64": st.floats(),
    "h32": st.binary(min_size=32, max_size=32).map(bytes.hex),
    "hex": st.binary(max_size=40).map(bytes.hex),
    "dir": st.sampled_from(["sent", "received"]),
    "row": st.dictionaries(st.text(max_size=5), _SCALARS, max_size=4),
}
#: values one check or another must refuse: wrong types, bools for ints,
#: out-of-range integers, non-canonical hex, lone surrogates, nesting
_NEAR_MISS = st.one_of(
    _SCALARS, st.just("\ud800"), st.just(DIGEST.upper()), st.just("abc"),
    st.just(" " + DIGEST[1:]), st.sampled_from(["in", "out", "sideways"]),
    st.lists(st.integers(), max_size=2), st.binary(max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.dictionaries(st.integers(), st.integers(), min_size=1, max_size=2))


def _field(kind: str, near_misses: bool):
    good = st.just(kind[6:]) if kind.startswith("const:") else _GOOD[kind]
    return st.one_of(good, good, _NEAR_MISS) if near_misses else good


class TestCompiledPackers:
    @pytest.mark.parametrize("tag", sorted(_SHAPE_SPECS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_shape_packs_like_the_interpreter(self, tag, data):
        near_misses = data.draw(st.booleans())
        content = data.draw(st.fixed_dictionaries(
            {key: _field(kind, near_misses) for key, kind in _SHAPE_SPECS[tag]}))
        assert _outcome(encode_content, content) == \
            _outcome(reference_encode_content, content)

    @pytest.mark.parametrize("tag, mutation", [
        (TAG_SEND, {"payload_size": -1}),
        (TAG_SEND, {"payload_size": True}),
        (TAG_SEND, {"payload_hash": DIGEST.upper()}),
        (TAG_SEND, {"destination": {"host": "m2"}}),
        (TAG_SEND, {"message_id": ["a"]}),
        (TAG_ACK, {"extra": 1}),
        (TAG_ACK, {"direction": "sideways"}),
    ])
    def test_the_fallback_tiers_near_misses(self, tag, mutation):
        content = {key: {"s": "m2", "u64": 7, "f64": 0.5, "h32": DIGEST,
                         "hex": "00ff", "dir": "sent", "row": {"a": 1}
                         }.get(kind, kind[6:])
                   for key, kind in _SHAPE_SPECS[tag]}
        assert encode_content(content)[0] == tag
        content.update(mutation)
        assert encode_content(content)[0] != tag
        assert encode_content(content) == reference_encode_content(content)

    @settings(max_examples=200, deadline=None)
    @given(content=st.dictionaries(
        st.text(max_size=6), st.one_of(_SCALARS, _NEAR_MISS), max_size=6))
    def test_the_row_and_json_tiers(self, content):
        assert _outcome(encode_content, content) == \
            _outcome(reference_encode_content, content)


# -- the chain link ---------------------------------------------------------------

class TestOneBufferLink:
    @pytest.mark.parametrize("sequence", [0, 1, (1 << 64) - 1])
    @pytest.mark.parametrize("entry_type", list(EntryType))
    def test_equal_at_the_ends_of_the_sequence_range(self, sequence,
                                                     entry_type):
        previous, content = hashing.hash_bytes(b"p"), hashing.hash_bytes(b"c")
        expected = reference_link_hash(
            previous, sequence, entry_type.wire_name.encode(), content)
        assert link_hash(previous, sequence, entry_type.wire_name.encode(),
                         content) == expected
        assert entry_link_hash(previous, sequence, entry_type,
                               content) == expected

    @pytest.mark.parametrize("sequence", [1 << 64, -1])
    def test_the_same_error_past_them(self, sequence):
        args = (hashing.ZERO_HASH, sequence, b"send", hashing.ZERO_HASH)
        expected = _outcome(reference_link_hash, *args)
        assert expected[0] is OverflowError
        assert _outcome(link_hash, *args) == expected
        assert _outcome(entry_link_hash, hashing.ZERO_HASH, sequence,
                        EntryType.SEND, hashing.ZERO_HASH) == expected

    @given(previous=st.binary(max_size=40),
           sequence=st.integers(0, (1 << 64) - 1),
           type_name=st.binary(max_size=12), content=st.binary(max_size=40))
    def test_any_parts(self, previous, sequence, type_name, content):
        assert link_hash(previous, sequence, type_name, content) == \
            reference_link_hash(previous, sequence, type_name, content)


# -- the packed authenticator reader -----------------------------------------------

@st.composite
def _authenticators(draw):
    previous = draw(st.binary(max_size=40))
    sequence = draw(st.integers(0, (1 << 64) - 1))
    entry_type = draw(st.sampled_from(["send", "recv", "ack", "é"]))
    content = draw(st.binary(max_size=40))
    chain = draw(st.one_of(
        st.just(link_hash(previous, sequence, entry_type.encode(), content)),
        st.binary(max_size=40)))
    return Authenticator(
        machine=draw(st.sampled_from(["m1", "m2", "web-server"])),
        sequence=sequence, chain_hash=chain,
        signature=draw(st.binary(max_size=200)), previous_hash=previous,
        entry_type=entry_type, content_hash=content)


def _sample_batch() -> bytes:
    rng = random.Random(7)
    batch = []
    for index in range(6):
        previous = rng.randbytes(32)
        content = rng.randbytes(32)
        sequence = [0, 5, 127, 128, 300, (1 << 64) - 1][index]
        chain = link_hash(previous, sequence, b"send", content) \
            if index % 3 else rng.randbytes(32)
        batch.append(Authenticator(
            machine=f"m{index % 2}", sequence=sequence, chain_hash=chain,
            signature=rng.randbytes(96 + index * 10), previous_hash=previous,
            entry_type="send" if index % 2 else "recv",
            content_hash=content))
    return authenticators_to_bytes(batch)


def _varint_offsets(blob: bytes):
    """Where the reference reader starts a varint, and how long each is."""
    starts = []

    class Recording(ReferenceReader):
        def varint(self):
            start = self.offset
            value = super().varint()
            starts.append((start, self.offset - start, value))
            return value

    reference_authenticators_from_bytes(blob, reader=Recording)
    return starts


class TestPackedAuthenticatorReader:
    @settings(max_examples=100, deadline=None)
    @given(batch=st.lists(_authenticators(), max_size=6))
    def test_round_trips_read_back_equal(self, batch):
        blob = authenticators_to_bytes(batch)
        assert authenticators_from_bytes(blob) == batch
        assert reference_authenticators_from_bytes(blob) == batch

    def test_every_truncation_fails_the_same_way(self):
        blob = _sample_batch()
        for cut in range(len(blob)):
            expected = _outcome(reference_authenticators_from_bytes,
                                blob[:cut])
            assert expected[0] is LogFormatError
            assert _outcome(authenticators_from_bytes, blob[:cut]) == expected

    def test_every_overlong_varint_fails_the_same_way(self):
        blob = _sample_batch()
        offsets = _varint_offsets(blob)
        assert len(offsets) > 40
        for start, length, value in offsets:
            canonical = blob[start:start + length]
            for overlong in (
                    # a trailing zero group: the same value, one byte longer
                    canonical[:-1] + bytes([canonical[-1] | 0x80, 0]),
                    # more than ten bytes of continuation
                    b"\xff" * 10 + b"\x01",
                    # 2**64, one past the largest sequence
                    b"\x80" * 9 + b"\x02"):
                mutated = blob[:start] + overlong + blob[start + length:]
                expected = _outcome(reference_authenticators_from_bytes,
                                    mutated)
                assert expected == (LogFormatError, "overlong varint")
                assert _outcome(authenticators_from_bytes, mutated) == \
                    expected

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_spliced_bytes_read_the_same(self, data):
        blob = _sample_batch()
        start = data.draw(st.integers(8, len(blob)))
        end = data.draw(st.integers(start, min(len(blob), start + 4)))
        mutated = blob[:start] + data.draw(st.binary(max_size=4)) + blob[end:]
        assert _outcome(authenticators_from_bytes, mutated) == \
            _outcome(reference_authenticators_from_bytes, mutated)
