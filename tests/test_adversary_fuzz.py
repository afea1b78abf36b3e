"""Property-based (seeded) bit-flip fuzzing of the tamper-evident envelope.

The paper's integrity story rests on two serialised artefacts: log entries
(hash-chained, checked against authenticators) and authenticators (signed
commitments).  These tests flip single bits in the serialised forms and
assert that *every* mutation either

* fails to parse with :class:`~repro.errors.LogFormatError`, or
* fails verification: the audit kernel's first step, the check against
  the chain and the authenticators, for segments; a False verdict or a
  :class:`~repro.errors.CryptoError` for authenticators, or
* provably changed nothing that the tamper-evident envelope covers (the
  only such field is the bookkeeping timestamp, which the paper keeps out
  of the hash chain by design — TimeTracker entries carry the real timing).

No new dependencies: plain ``random.Random`` with fixed seeds.
"""

import random
import struct
import zlib
from dataclasses import replace

import pytest

from repro.audit.kernel import chunk_job, run_chunk
from repro.audit.verdict import AuditPhase, Verdict
from repro.crypto import hashing
from repro.errors import (
    CryptoError,
    HashChainError,
    LogFormatError,
)
from repro.log import codec as codec_module
from repro.log.authenticator import Authenticator, batch_verify_authenticators
from repro.log.codec import MAGIC_LENGTH, TypedCodec, get_codec
from repro.log.entries import EntryType
from repro.log.hashchain import verify_chain_incremental
from repro.log.storage import (
    authenticators_from_bytes,
    authenticators_to_bytes,
)
from repro.log.tamper_evident import TamperEvidentLog
from repro.workloads.echo import make_echo_image

from codec_tools import ExplicitTypedCodec, PerFrameTypedCodec

TRIALS = 200


def _flip_bit(data: bytes, rng: random.Random) -> bytes:
    mutated = bytearray(data)
    index = rng.randrange(len(mutated))
    mutated[index] ^= 1 << rng.randrange(8)
    return bytes(mutated)


@pytest.fixture(scope="module")
def recorded(ca):
    """A small signed log plus an authenticator for every entry."""
    keypair = ca.issue("fuzz-machine")
    log = TamperEvidentLog("fuzz-machine", keypair=keypair,
                           clock=lambda: 12.25)
    rng = random.Random(0xF00D)
    authenticators = []
    for index in range(24):
        entry_type = rng.choice([EntryType.SEND, EntryType.RECV,
                                 EntryType.ACK, EntryType.TIMETRACKER])
        entry = log.append(entry_type, {
            "index": index,
            "payload_hash": hashing.hash_bytes(bytes([index])).hex(),
            "value": rng.random(),
        })
        authenticators.append(log.authenticator_for(entry))
    return log, authenticators, keypair


@pytest.fixture(scope="module")
def fuzz_keystore(ca, keystore, recorded):
    _, _, keypair = recorded
    keystore.add_certificate(keypair.certificate)
    return keystore


def _tamper_check_fails(segment, authenticators, keystore) -> bool:
    """Whether the audit kernel convicts ``segment`` at its first step, the
    check against the chain and the authenticators."""
    outcome = run_chunk(chunk_job(segment, authenticators, keystore,
                                  make_echo_image()))
    if outcome.phase is not AuditPhase.AUTHENTICATOR_CHECK:
        return False
    assert outcome.verdict is Verdict.FAIL
    assert ("does not hash to its recorded chain value" in outcome.reason
            or "previous hash mismatch" in outcome.reason
            or "non-contiguous sequence numbers" in outcome.reason
            or outcome.reason.endswith("(log was tampered with or forked)"))
    return True


def _entries_equal_modulo_timestamp(original, mutated) -> bool:
    """The authenticated projection of every entry (and the header) matches."""
    if original.machine != mutated.machine:
        return False
    if original.start_hash != mutated.start_hash:
        return False
    if len(original.entries) != len(mutated.entries):
        return False
    for ours, theirs in zip(original.entries, mutated.entries):
        if (ours.sequence, ours.entry_type, ours.content,
                ours.chain_hash, ours.previous_hash) != \
                (theirs.sequence, theirs.entry_type, theirs.content,
                 theirs.chain_hash, theirs.previous_hash):
            return False
    return True


class TestSegmentBitFlips:
    def test_every_entry_position_is_covered(self, recorded, fuzz_keystore):
        """Deterministic sweep: corrupt each entry's content in turn."""
        log, authenticators, _ = recorded
        for sequence in range(1, len(log) + 1):
            segment = log.full_segment()
            entry = segment.entries[sequence - 1]
            # Forge a replacement entry the way a real adversary must: a new
            # entry object with tampered content but the recorded hashes.
            # (In-place dict mutation would bypass the entry's cached
            # canonical encoding — no wire adversary can do that.)
            segment.entries[sequence - 1] = replace(
                entry, content={**entry.content, "index": -1})
            assert _tamper_check_fails(segment, authenticators, fuzz_keystore)


def _wire_codec(wire: str):
    """The codec per wire: the two writers, and the raw per-frame layouts
    the v3 reader keeps for older blobs (the explicit one is the seed's)."""
    return {
        "v1": get_codec(1),
        "v3-explicit": ExplicitTypedCodec(compress=False),
        "v3-raw": PerFrameTypedCodec(compress=False),
        "v3-zlib": TypedCodec(),
    }[wire]


#: wires whose body is not behind a compression stage: there a random flip
#: usually survives parsing, so the chain/authenticator checks must fire
_UNCOMPRESSED_WIRES = ("v3-explicit", "v3-raw")


@pytest.mark.parametrize("wire", ["v1", "v3-explicit", "v3-raw", "v3-zlib"])
class TestWireCodecBitFlips:
    """The single-bit-flip sweep over every *wire* codec setting.

    Bits are flipped in the actual shipped/stored bytes — bz2-compressed v1
    blobs and typed v3 blobs (the raw decode-path setting, the compressed
    archive default, and the raw explicit layout the v3 seed archive's
    frames use) — and the sweep demands the trichotomy: reject at parse,
    reject at verification, or provably outside the envelope.  For v3 this
    also pins the cache-seeding
    contract: a tampered content byte that still parses must fail the
    chain check, because verification hashes the *wire* bytes, never a
    stale re-encoding.  v3's lazy entries may defer the parse failure to
    first content access, which is why the equality probe runs only after
    verification has already accepted the bytes.
    """

    def test_any_single_bit_flip_is_detected_or_outside_the_envelope(
            self, recorded, fuzz_keystore, wire):
        log, authenticators, _ = recorded
        segment = log.full_segment()
        codec = _wire_codec(wire)
        data = codec.encode_segment(segment)
        rng = random.Random(0xD0 + ["v1", "v3-explicit", "v3-raw",
                                    "v3-zlib"].index(wire))
        parse_rejected = verify_rejected = bookkeeping_only = 0

        for _ in range(TRIALS):
            mutated_bytes = _flip_bit(data, rng)
            try:
                mutated = codec.decode_segment(mutated_bytes)
            except LogFormatError:
                parse_rejected += 1
                continue

            if mutated.machine != segment.machine:
                verify_rejected += 1
                continue
            if _tamper_check_fails(mutated, authenticators, fuzz_keystore):
                verify_rejected += 1
                continue

            # Verification passed, so every entry's wire bytes hash to the
            # recorded chain — materializing content here cannot fail.
            assert _entries_equal_modulo_timestamp(segment, mutated), \
                "a bit flip survived verification but changed covered fields"
            bookkeeping_only += 1

        assert parse_rejected > 0
        assert parse_rejected + verify_rejected + bookkeeping_only == TRIALS
        # bz2/zlib swallow most flips at decompression; the uncompressed
        # formats have no such stage, so flips must instead be caught by
        # the chain/authenticator checks (or hit the uncovered timestamp).
        if wire in _UNCOMPRESSED_WIRES:
            assert verify_rejected > 0

    def test_tampered_content_byte_fails_the_chain_check(
            self, recorded, fuzz_keystore, wire):
        """Surgical tamper: change one content byte, keep the blob parseable."""
        log, authenticators, _ = recorded
        codec = _wire_codec(wire)
        segment = log.full_segment()
        data = codec.encode_segment(segment)
        if wire == "v1":
            # Tamper inside the compressed body, then re-decode: either the
            # compression stream dies (parse reject) or the chain check
            # fires.  Content access on a surviving flip may itself raise
            # LogFormatError (lazy typed decode) — equally a detection.
            rng = random.Random(0xD16)
            for _ in range(80):
                mutated_bytes = _flip_bit(data, rng)
                try:
                    mutated = codec.decode_segment(mutated_bytes)
                    if _entries_equal_modulo_timestamp(segment, mutated):
                        continue  # outside the envelope; try again
                except LogFormatError:
                    continue
                if mutated.machine != segment.machine:
                    continue  # a renamed log: rejected before any check
                break
            else:
                pytest.skip("every flip died in decompression — covered "
                            "by the sweep")
        else:
            # Every v3 layout stores the recorder's committed content bytes
            # verbatim behind a frame prefix (the recorder commits the typed
            # encoding to every wire) — the written one inside its one zlib
            # stream, which a tamperer simply deflates again: walk the first
            # frame's content bytes from the tail until a one-byte change
            # both parses and alters the materialized content (e.g. inside a
            # hash field's raw bytes).
            header_end = (MAGIC_LENGTH + 4
                          + len(segment.machine.encode("utf-8")) + 32 + 1 + 4)
            head, frames = data[:header_end], data[header_end:]
            if wire == "v3-zlib":
                frames = zlib.decompress(frames)
            (frame_len,) = struct.unpack_from("<I", frames)
            content_start = 4 + codec_module._EXPLICIT_FIXED.size
            mutated = None
            for offset in range(4 + frame_len - 1, content_start - 1, -1):
                raw = bytearray(frames)
                raw[offset] ^= 0x01
                if wire == "v3-zlib":
                    raw = zlib.compress(raw)
                try:
                    candidate = codec.decode_segment(head + bytes(raw))
                    if (candidate.entries[0].content
                            != segment.entries[0].content):
                        mutated = candidate
                        break
                except LogFormatError:
                    continue
            assert mutated is not None, \
                "no single-byte content change produced a parseable segment"
        assert _tamper_check_fails(mutated, authenticators, fuzz_keystore)


class TestAuthenticatorBitFlips:
    def test_any_single_bit_flip_fails_parse_or_verification(
            self, recorded, fuzz_keystore):
        _, authenticators, _ = recorded
        data = authenticators_to_bytes(authenticators)
        originals = {auth.sequence: auth for auth in authenticators}
        rng = random.Random(0x5A5A)
        parse_rejected = verify_rejected = untouched = 0

        for _ in range(TRIALS):
            mutated_bytes = _flip_bit(data, rng)
            try:
                mutated = authenticators_from_bytes(mutated_bytes)
            except LogFormatError:
                parse_rejected += 1
                continue
            for auth in mutated:
                original = originals.get(auth.sequence)
                if original is not None and auth == original:
                    untouched += 1
                    continue
                # Every authenticator field is part of the commitment: any
                # change must kill the signature, the internal consistency
                # check, or the key lookup.
                try:
                    verdict = auth.verify(fuzz_keystore)
                except CryptoError:
                    verdict = False
                assert not verdict, \
                    f"mutated authenticator {auth!r} still verifies"
                verify_rejected += 1

        assert parse_rejected > 0
        assert verify_rejected > 0

    def test_verification_leaves_out_the_mutated_authenticator(
            self, recorded, fuzz_keystore):
        _, authenticators, _ = recorded
        rng = random.Random(0xBEEF)
        for _ in range(20):
            batch = [Authenticator.from_dict(auth.to_dict())
                     for auth in authenticators]
            victim = rng.randrange(len(batch))
            tampered = batch[victim].to_dict()
            tampered["chain_hash"] = hashing.hash_bytes(b"not-the-chain").hex()
            batch[victim] = Authenticator.from_dict(tampered)
            assert batch_verify_authenticators(
                batch, fuzz_keystore, "fuzz-machine") == \
                authenticators[:victim] + authenticators[victim + 1:]

    def test_roundtrip_of_untampered_authenticators(self, recorded,
                                                    fuzz_keystore):
        _, authenticators, _ = recorded
        recovered = authenticators_from_bytes(
            authenticators_to_bytes(authenticators))
        assert recovered == authenticators
        assert all(auth.verify(fuzz_keystore) for auth in recovered)


class TestHashChainRoundTripFuzz:
    def test_random_logs_verify_and_any_field_perturbation_fails(self, ca):
        rng = random.Random(0xCAFE)
        keypair = ca.issue("chain-fuzz")
        for round_index in range(10):
            log = TamperEvidentLog("chain-fuzz", keypair=keypair)
            for index in range(rng.randrange(5, 15)):
                log.append(rng.choice(list(EntryType)),
                           {"i": index, "r": rng.randrange(1 << 20)})
            segment = log.full_segment()
            verify_chain_incremental(segment.entries, segment.start_checkpoint())  # honest round-trip holds

            victim = rng.randrange(len(segment.entries))
            entry = segment.entries[victim]
            mutation = rng.choice(["content", "sequence", "previous", "chain"])
            if mutation == "content":
                # Forged entry object, not in-place mutation — see
                # test_every_entry_position_is_covered.
                segment.entries[victim] = replace(
                    entry, content={**entry.content, "r": -1})
            elif mutation == "sequence":
                object.__setattr__(entry, "sequence", entry.sequence + 1)
            elif mutation == "previous":
                object.__setattr__(entry, "previous_hash",
                                   hashing.hash_bytes(b"x"))
            else:
                object.__setattr__(entry, "chain_hash",
                                   hashing.hash_bytes(b"y"))
            with pytest.raises(HashChainError):
                verify_chain_incremental(segment.entries, segment.start_checkpoint())

    @pytest.mark.parametrize("format_version", [1, 3])
    def test_decoded_entries_refuse_any_in_place_write(self, ca,
                                                       format_version):
        """A decoded entry's memoised link is no licence: a field written
        in place after decode still breaks the chain."""
        from repro.log.hashchain import verify_entry
        rng = random.Random(0xBEEF + format_version)
        codec = get_codec(format_version)
        keypair = ca.issue("chain-fuzz")
        for round_index in range(10):
            log = TamperEvidentLog("chain-fuzz", keypair=keypair)
            for index in range(rng.randrange(5, 15)):
                log.append(rng.choice(list(EntryType)),
                           {"i": index, "r": rng.randrange(1 << 20)})
            segment = codec.decode_segment(
                codec.encode_segment(log.full_segment()))
            verify_chain_incremental(segment.entries, segment.start_checkpoint())  # honest round-trip holds
            entry = segment.entries[rng.randrange(len(segment.entries))]
            field, value = rng.choice([
                ("sequence", entry.sequence + 1),
                ("previous_hash", hashing.hash_bytes(b"x")),
                ("chain_hash", hashing.hash_bytes(b"y"))])
            object.__setattr__(entry, field, value)
            assert not verify_entry(entry)
            with pytest.raises(HashChainError):
                verify_chain_incremental(segment.entries, segment.start_checkpoint())
