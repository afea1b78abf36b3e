"""The v3 typed content layer: struct-packed shapes + lazy materialization.

Three contracts under test, entirely below the codec layer:

* **Round-trip**: ``decode_content(encode_content(d)) == d`` for every
  dict, whichever encoding tier it lands on — a dedicated typed shape, the
  generic row codec, or the canonical-JSON fallback — and the typed and
  JSON encodings of the same dict decode to the same dict.
* **Strictness**: a dict only gets a typed tag when the typed encoding
  reproduces it *exactly*; near-misses (wrong value type, non-canonical
  hex, nested structure) fall through a tier instead of being coerced.
* **Laziness**: entries built by :func:`~repro.log.entries.lazy_entry`
  parse content only on first access, exactly once, and forged/``replace``d
  entries never inherit a stale materialized dict or encoding cache.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from repro.crypto import hashing
from repro.log import entries as entries_module
from repro.log.authenticator import Authenticator
from repro.log.codec import TypedCodec
from repro.log.entries import (
    EntryType,
    TAG_ACK,
    TAG_MACLAYER_IN,
    TAG_MACLAYER_OUT,
    TAG_NONDET,
    TAG_RECV,
    TAG_RECV_COMMITMENT,
    TAG_RECV_PAYLOAD,
    TAG_ROW,
    TAG_SEND,
    TAG_SNAPSHOT,
    TAG_TIMETRACKER_TICK,
    TAG_TIMETRACKER_VALUE,
    content_materializations_total,
    decode_content,
    encode_content,
    encode_content_json,
    encode_recv_content,
    lazy_entry,
    recv_content,
)
from repro.log.hashchain import verify_chain_incremental
from repro.log.tamper_evident import TamperEvidentLog

DIGEST = hashing.hash_bytes(b"typed").hex()
DIGEST2 = hashing.hash_bytes(b"typed-2").hex()

#: one representative content dict per dedicated wire tag
SHAPED_CONTENTS = {
    TAG_SEND: {"destination": "m2", "message_id": "m1-17",
               "payload_hash": DIGEST, "payload_size": 512},
    TAG_RECV: {"source": "m1", "message_id": "m1-17",
               "payload_hash": DIGEST, "payload_size": 512,
               "sender_signature": "deadbeef00"},
    TAG_RECV_PAYLOAD: {"source": "m1", "message_id": "m1-17",
                       "payload_hash": DIGEST, "payload_size": 4,
                       "sender_signature": "deadbeef00",
                       "payload": "cafef00d", "kind": "request"},
    TAG_ACK: {"peer": "m2", "message_id": "m1-17", "direction": "sent",
              "acked_sequence": 99},
    TAG_SNAPSHOT: {"snapshot_id": 7, "state_root": DIGEST,
                   "execution_counter": 123456},
    TAG_TIMETRACKER_VALUE: {"event_kind": "cpu", "execution_counter": 10,
                            "branch_counter": 3, "value": 0.25},
    TAG_TIMETRACKER_TICK: {"event_kind": "tick", "execution_counter": 10,
                           "branch_counter": 3, "tick_number": 42},
    TAG_MACLAYER_IN: {"direction": "in", "message_id": "m2-4",
                      "source": "m2", "payload_size": 64,
                      "execution_counter": 8, "branch_counter": 2},
    TAG_MACLAYER_OUT: {"direction": "out", "message_id": "m1-5",
                       "destination": "m2", "payload_hash": DIGEST2,
                       "payload_size": 64, "execution_counter": 9,
                       "branch_counter": 2},
    TAG_NONDET: {"event_kind": "rng", "execution_counter": 77,
                 "data": {"draw": 0.5, "source": "prng", "n": 3}},
    TAG_RECV_COMMITMENT: {"source": "m1", "message_id": "m1-17",
                          "payload_size": 4, "sender_sequence": 31,
                          "sender_previous_hash": DIGEST2,
                          "sender_signature": "deadbeef00",
                          "payload": "cafef00d", "kind": "data"},
}


class TestShapeRoundTrips:
    @pytest.mark.parametrize(
        "tag,content",
        sorted(SHAPED_CONTENTS.items()),
        ids=[f"0x{tag:02x}" for tag in sorted(SHAPED_CONTENTS)])
    def test_dedicated_shape_round_trips_under_its_tag(self, tag, content):
        wire = encode_content(content)
        assert wire[0] == tag, "content did not land on its dedicated shape"
        assert decode_content(wire) == content
        # The same dict through the JSON fallback decodes identically, and
        # the two encodings never collide on the first byte.
        as_json = encode_content_json(content)
        assert as_json[0] == ord("{")
        assert decode_content(as_json) == content

    def test_generic_row_covers_flat_scalar_dicts(self):
        content = {"op": "put", "key": "k-12", "ok": True, "tries": 2,
                   "cost": -3, "latency": 0.125, "note": None,
                   "digest": DIGEST}
        wire = encode_content(content)
        assert wire[0] == TAG_ROW
        assert decode_content(wire) == content
        assert decode_content(encode_content_json(content)) == content

    def test_row_fuzz_round_trips(self):
        rng = random.Random(0x7E57)
        scalars = [
            lambda: rng.randrange(-(1 << 62), 1 << 63),
            lambda: rng.random(),
            lambda: rng.choice([True, False, None]),
            lambda: "".join(chr(rng.randrange(32, 0x2FF))
                            for _ in range(rng.randrange(12))),
            lambda: hashing.hash_bytes(bytes([rng.randrange(256)])).hex(),
        ]
        for _ in range(200):
            content = {f"k{i}": rng.choice(scalars)()
                       for i in range(rng.randrange(1, 8))}
            wire = encode_content(content)
            assert wire[0] in (TAG_ROW, ord("{"))
            decoded = decode_content(wire)
            assert decoded == content
            # Value types survive exactly (True != 1 despite ==).
            assert [type(v) for v in decoded.values()] == \
                [type(v) for v in content.values()]


class TestFallbackTiers:
    """Near-miss dicts must fall through a tier, never be coerced."""

    @pytest.mark.parametrize("mutation,expect_json", [
        # Wrong value type for a shaped field -> row can still take it.
        (lambda c: c.update(payload_size=-1), False),
        # bool is not u64 even though isinstance(True, int).
        (lambda c: c.update(payload_size=True), False),
        # Non-canonical (uppercase) digest: h32 refuses, row stores a str.
        (lambda c: c.update(payload_hash=DIGEST.upper()), False),
        # Nested dict value: only JSON can represent it.
        (lambda c: c.update(destination={"host": "m2"}), True),
        # List value: only JSON.
        (lambda c: c.update(message_id=["a"]), True),
    ])
    def test_send_near_miss_falls_through(self, mutation, expect_json):
        content = dict(SHAPED_CONTENTS[TAG_SEND])
        mutation(content)
        wire = encode_content(content)
        if expect_json:
            assert wire[0] == ord("{")
        else:
            assert wire[0] == TAG_ROW
        assert decode_content(wire) == content

    def test_extra_key_leaves_the_dedicated_shape(self):
        content = dict(SHAPED_CONTENTS[TAG_ACK], extra=1)
        wire = encode_content(content)
        assert wire[0] != TAG_ACK
        assert decode_content(wire) == content

    def test_ack_direction_outside_enum_falls_back(self):
        content = dict(SHAPED_CONTENTS[TAG_ACK], direction="sideways")
        wire = encode_content(content)
        assert wire[0] == TAG_ROW
        assert decode_content(wire) == content


class TestRecvCommitmentTag:
    """The RECV shape the monitor writes, and the two it only reads."""

    @given(source=st.text(max_size=20), message_id=st.text(max_size=20),
           kind=st.sampled_from(["data", "ping", "pong"]),
           payload=st.binary(max_size=300),
           sequence=st.integers(min_value=0, max_value=(1 << 64) - 1),
           previous_hash=st.binary(min_size=32, max_size=32),
           signature=st.binary(max_size=128))
    def test_recv_content_round_trips_under_the_commitment_tag(
            self, source, message_id, kind, payload, sequence, previous_hash,
            signature):
        content = recv_content(source, payload, message_id, kind, Authenticator(
            machine=source, sequence=sequence, chain_hash=b"", signature=signature,
            previous_hash=previous_hash, entry_type="send", content_hash=b""))
        try:
            (source + message_id).encode("utf-8")
        except UnicodeEncodeError:      # lone surrogates: only JSON takes them
            assert decode_content(encode_content(content)) == content
            return
        wire = encode_content(content)
        assert wire[0] == TAG_RECV_COMMITMENT
        assert decode_content(wire) == content
        # No payload hash on the wire: 32 bytes of hash went, 8 of sequence
        # and 32 of previous hash came.
        assert b"payload_hash" not in encode_content_json(content)

    def test_an_unsigned_message_still_lands_on_the_tag(self):
        content = recv_content("m1", b"hi", "m1-1", "data")
        assert encode_content(content)[0] == TAG_RECV_COMMITMENT
        assert content["sender_signature"] == "" \
            and content["sender_sequence"] == 0

    @pytest.mark.parametrize("tag", [TAG_RECV, TAG_RECV_PAYLOAD])
    def test_legacy_recv_tags_still_decode(self, tag):
        # Bytes as a pre-commitment recorder hashed them into its chain: the
        # tag stays readable (format pin) and re-encodes to the same bytes,
        # which chain verification of a materialized old log relies on.
        content = SHAPED_CONTENTS[tag]
        wire = encode_content(content)
        assert wire[0] == tag
        assert decode_content(wire) == content
        assert encode_content(decode_content(wire)) == wire


def _sender(sequence, previous_hash, signature):
    return Authenticator(
        machine="m1", sequence=sequence, chain_hash=b"", signature=signature,
        previous_hash=previous_hash, entry_type="send", content_hash=b"")


#: text that sometimes holds a lone surrogate, which only JSON can carry
_TEXT = st.text(max_size=12) | st.builds(
    "{}{}{}".format, st.text(max_size=6),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    st.text(max_size=6))

#: a sender's commitment: none (unsigned), or fields that fit the typed shape
#: or do not (a sequence over 64 bits, ``h_{i-1}`` not 32 bytes)
_SENDERS = st.none() | st.builds(
    _sender,
    st.integers(min_value=0, max_value=(1 << 64) - 1) | st.just(1 << 64),
    st.binary(min_size=32, max_size=32) | st.binary(max_size=40),
    st.binary(max_size=96))


class TestRawRecvEncoder:
    """``encode_recv_content`` packs RECV content from the raw message
    fields; it must be ``encode_content(recv_content(...))`` byte for byte,
    on every tier the dict would land on."""

    @staticmethod
    def check(source, payload, message_id, kind, sender):
        expected = recv_content(source, payload, message_id, kind, sender)
        wire = encode_recv_content(source, payload, message_id, kind, sender)
        assert wire == encode_content(expected)
        assert decode_content(wire) == expected
        return wire

    @given(source=_TEXT, payload=st.binary(max_size=300), message_id=_TEXT,
           kind=_TEXT, sender=_SENDERS)
    @example(source="m1", payload=b"", message_id="m1-1", kind="data",
             sender=None)
    @example(source="s" * 0x10001, payload=b"\x00" * 40, message_id="m1-1",
             kind="data", sender=_sender(3, bytes(32), b"\x01" * 96))
    def test_equals_the_dict_encoding(self, source, payload, message_id,
                                      kind, sender):
        self.check(source, payload, message_id, kind, sender)

    @pytest.mark.parametrize("source,message_id,kind,sender,tier", [
        ("m1", "m1-1", "data", None, TAG_RECV_COMMITMENT),
        ("m1", "m1-1", "data", _sender(7, bytes(32), b"sig"),
         TAG_RECV_COMMITMENT),
        ("s" * 0x10001, "m1-1", "data", None, TAG_ROW),
        ("m1", "m1-1", "data", _sender(7, bytes(31), b"sig"), TAG_ROW),
        ("m1\udc80", "m1-1", "data", None, ord("{")),
        ("m1", "m1-\ud800", "data", None, ord("{")),
        ("m1", "m1-1", "\udfff", None, ord("{")),
        ("m1", "m1-1", "data", _sender(1 << 64, bytes(32), b""), ord("{")),
    ], ids=["unsigned", "signed", "source-over-64KiB", "short-hash",
            "surrogate-source", "surrogate-id", "surrogate-kind",
            "sequence-over-64-bits"])
    def test_every_tier(self, source, message_id, kind, sender, tier):
        wire = self.check(source, b"\xca\xfe" * 600, message_id, kind, sender)
        assert wire[0] == tier

    def test_a_bytes_like_payload_takes_the_dict_path(self):
        self.check("m1", bytearray(b"row"), "m1-1", "data", None)


@pytest.fixture
def signed_log(ca):
    keypair = ca.issue("lazy-machine")
    log = TamperEvidentLog("lazy-machine", keypair=keypair,
                           clock=lambda: 1.5)
    for index in range(6):
        log.append(EntryType.SEND, {
            "destination": "m2", "message_id": f"m1-{index}",
            "payload_hash": DIGEST, "payload_size": index})
    return log


class TestLazyMaterialization:
    def test_lazy_entry_defers_the_parse_and_counts_it_once(self):
        content = dict(SHAPED_CONTENTS[TAG_SNAPSHOT])
        wire = encode_content(content)
        entry = lazy_entry(5, EntryType.SNAPSHOT, wire,
                           hashing.hash_bytes(b"c"),
                           hashing.hash_bytes(b"p"), timestamp=2.5)
        assert "content" not in entry.__dict__
        before = content_materializations_total()
        assert entry.encoded_content() == wire  # no parse needed
        assert entry.content_hash() == hashing.hash_bytes(wire)
        assert content_materializations_total() == before
        assert entry.content == content  # first touch parses...
        assert content_materializations_total() == before + 1
        assert entry.content is entry.content  # ...and is cached
        assert content_materializations_total() == before + 1

    def test_v3_decode_is_lazy_until_content_access(self, signed_log):
        blob = TypedCodec().encode_segment(signed_log.full_segment())
        before = content_materializations_total()
        segment = TypedCodec().decode_segment(blob)
        verify_chain_incremental(segment.entries, segment.start_checkpoint())
        assert content_materializations_total() == before
        assert segment.entries[0].content["message_id"] == "m1-0"
        assert content_materializations_total() == before + 1

    def test_each_decode_gets_an_independent_content_dict(self, signed_log):
        blob = TypedCodec().encode_segment(signed_log.full_segment())
        first = TypedCodec().decode_segment(blob).entries[0]
        second = TypedCodec().decode_segment(blob).entries[0]
        first.content["payload_size"] = 10_000  # simulated consumer abuse
        assert second.content["payload_size"] == 0
        assert first.content is not second.content

    def test_replaced_entry_does_not_inherit_caches(self, signed_log):
        blob = TypedCodec().encode_segment(signed_log.full_segment())
        entry = TypedCodec().decode_segment(blob).entries[0]
        original_wire = entry.encoded_content()
        _ = entry.content  # materialize, so both caches are warm
        forged = replace(entry, content={**entry.content,
                                         "payload_size": 666})
        # The forged entry re-encodes its own content: neither the wire
        # bytes nor the content dict leak over from the original.
        assert forged.encoded_content() != original_wire
        assert decode_content(forged.encoded_content())["payload_size"] == 666
        assert entry.content["payload_size"] == 0

    def test_seeded_tampered_bytes_fail_at_materialization(self):
        wire = bytearray(encode_content(SHAPED_CONTENTS[TAG_SEND]))
        wire[0] = 0xEE  # unknown tag
        entry = lazy_entry(1, EntryType.SEND, bytes(wire),
                           hashing.hash_bytes(b"c"),
                           hashing.hash_bytes(b"p"))
        with pytest.raises(Exception) as excinfo:
            _ = entry.content
        assert "tag" in str(excinfo.value)

    def test_recorder_seeds_typed_bytes_at_append(self, signed_log):
        entry = signed_log.full_segment().entries[0]
        wire = entry.__dict__.get("_encoded_content")
        assert wire is not None and wire[0] == TAG_SEND
        # ...and the chain committed to exactly those bytes.
        assert entry.content_hash() == hashing.hash_bytes(wire)


def test_each_lazy_parse_is_counted_once():
    before = content_materializations_total()
    wire = encode_content(SHAPED_CONTENTS[TAG_ACK])
    for sequence in range(3):
        entry = lazy_entry(sequence + 1, EntryType.ACK, wire,
                           hashing.hash_bytes(b"c"), hashing.hash_bytes(b"p"))
        _ = entry.content
        _ = entry.content  # parsed once, then held
    assert content_materializations_total() == before + 3


def test_module_counter_only_moves_forward():
    before = content_materializations_total()
    entries_module.count_materialization()
    assert content_materializations_total() == before + 1
