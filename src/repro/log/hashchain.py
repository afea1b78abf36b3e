"""Hash-chain computation and verification.

Section 4.3: ``h_i = H(h_{i-1} || s_i || t_i || H(c_i))`` with ``h_0 := 0``.
Because the hash is second-pre-image resistant, modifying, reordering or
dropping any entry breaks the chain and is detected when the segment is
checked against a previously issued authenticator.

:func:`verify_chain_incremental` checks a segment given a
:class:`ChainCheckpoint` — the ``(sequence, chain hash)`` pair immediately
before its first entry, e.g. taken from the preceding chunk's last entry or
from an authenticator the auditor already holds.  That is what lets the
parallel audit engine hand disjoint chunks of one log to different workers:
each worker proves its chunk extends its predecessor's checkpoint without
rescanning the prefix, and the checkpoints it returns tile back into a proof
for the whole log.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import sha256
from typing import Sequence

from repro.crypto import hashing
from repro.errors import HashChainError, LogFormatError
from repro.log.entries import (
    EntryType, LogEntry, encode_content, encode_content_json,
    seed_encoded_content,
)


def _framed(part: bytes) -> bytes:
    """``part`` behind its length, as ``hashing.hash_concat`` frames it."""
    return len(part).to_bytes(8, "big") + part


_SEQUENCE_FRAME = (8).to_bytes(8, "big")


def _link(previous_hash: bytes, sequence: int, framed_type: bytes,
          content_hash: bytes) -> bytes:
    # Byte for byte hash_concat(previous_hash, encode_int(sequence),
    # type_name, content_hash), as one buffer and one SHA-256 call.
    return sha256(b"".join((
        len(previous_hash).to_bytes(8, "big"), previous_hash,
        _SEQUENCE_FRAME, int(sequence).to_bytes(8, "big"), framed_type,
        len(content_hash).to_bytes(8, "big"), content_hash))).digest()


def _type_link(entry_type: EntryType):
    """``(framed wire name, packer)`` for one entry type; the packer lays
    out the buffer :func:`_link` joins when both hashes are 32 bytes long:
    ``pack(32, previous_hash, 8, sequence, framed, 32, content_hash)``."""
    framed = _framed(entry_type.wire_name.encode("utf-8"))
    return framed, struct.Struct(f">Q32sQQ{len(framed)}sQ32s").pack


_TYPE_LINK = {entry_type: _type_link(entry_type) for entry_type in EntryType}


def link_hash(previous_hash: bytes, sequence: int, type_name: bytes,
              content_hash: bytes) -> bytes:
    """``h_i = H(h_{i-1} || s_i || t_i || H(c_i))`` — the chain formula."""
    return _link(previous_hash, sequence, _framed(type_name), content_hash)


def entry_link_hash(previous_hash: bytes, sequence: int,
                    entry_type: EntryType, content_hash: bytes) -> bytes:
    """:func:`link_hash` for an :class:`EntryType` (its wire name framed
    once) — what the recorder, the verifier and the codecs that leave the
    chain out of the bytes all compute."""
    framed, pack = _TYPE_LINK[entry_type]
    if len(previous_hash) == 32 and len(content_hash) == 32:
        try:
            return sha256(pack(32, previous_hash, 8, sequence, framed,
                               32, content_hash)).digest()
        except struct.error:
            pass  # not a 64-bit sequence, or not bytes: as _link fails
    return _link(previous_hash, sequence, framed, content_hash)


def chain_hash(previous_hash: bytes, sequence: int, entry_type: EntryType,
               content: dict) -> bytes:
    """Compute ``h_i`` from ``h_{i-1}`` and the entry fields."""
    return entry_link_hash(previous_hash, sequence, entry_type,
                           hashing.hash_bytes(encode_content(content)))


def _legacy_json_matches(previous_hash: bytes, entry: LogEntry) -> bool:
    """Re-check the chain under the pre-typed canonical-JSON encoding.

    Logs recorded before the typed content codec committed their chains to
    canonical JSON bytes.  When such an entry is rebuilt from a materialized
    dict (e.g. the JSON-lines debug store or a v1 archive), its cached
    encoding is the *typed* one and the fast-path hash comparison fails even
    though the entry is honest.  This fallback recomputes the hash over the
    legacy JSON bytes; on a match it re-seeds the entry's cache with them so
    later wire encoding and cost accounting reuse the committed encoding.

    Both encodings are injective and disjoint on the first byte (typed tags
    0x01..0x1F vs ``{``), so accepting either never admits content that
    differs from what the recorder hashed.
    """
    try:
        legacy = encode_content_json(entry.content)
    except LogFormatError:
        return False
    legacy_hash = hashing.hash_bytes(legacy)
    if entry_link_hash(previous_hash, entry.sequence, entry.entry_type,
                       legacy_hash) != entry.chain_hash:
        return False
    seed_encoded_content(entry, legacy, legacy_hash)
    return True


def memoise_link(entry: LogEntry) -> None:
    """Record that a decoder just derived ``entry.chain_hash`` from the
    entry's own fields (``entry_link_hash`` over its previous hash, sequence,
    type and cached content hash), so the chain check that follows need not
    hash the link again.  The memo sits beside the content caches: not a
    field, so ``dataclasses.replace`` drops it, and it holds the fields it
    was derived from, so an in-place write to any of them defeats it."""
    fields = entry.__dict__
    fields["_link"] = (fields["previous_hash"], fields["sequence"],
                       fields["entry_type"], fields["_content_hash"],
                       fields["chain_hash"])


def _matches_chain(previous_hash: bytes, entry: LogEntry) -> bool:
    """True when ``entry`` hashes to its recorded chain value."""
    fields = entry.__dict__
    memo = fields.get("_link")
    if memo is not None and memo == (previous_hash, entry.sequence,
                                     entry.entry_type,
                                     fields.get("_content_hash"),
                                     entry.chain_hash):
        return True
    if entry_link_hash(previous_hash, entry.sequence, entry.entry_type,
                       entry.content_hash()) == entry.chain_hash:
        return True
    return _legacy_json_matches(previous_hash, entry)


def verify_entry(entry: LogEntry) -> bool:
    """Check a single entry's chain hash against its own fields."""
    return _matches_chain(entry.previous_hash, entry)


@dataclass(frozen=True)
class ChainCheckpoint:
    """The chain state immediately *after* entry ``sequence``.

    ``sequence == 0`` with the zero hash is the state before the first entry
    of a log.  A checkpoint is all a verifier needs to continue checking the
    chain from that point on — it never has to look at earlier entries.
    """

    sequence: int
    chain_hash: bytes

    @staticmethod
    def genesis() -> "ChainCheckpoint":
        """The checkpoint before the very first log entry (``h_0 = 0``)."""
        return ChainCheckpoint(sequence=0, chain_hash=hashing.ZERO_HASH)



def extend_checkpoint_batch(checkpoint: ChainCheckpoint,
                            entries: Sequence[LogEntry]) -> ChainCheckpoint:
    """Verify that a batch of entries extends ``checkpoint``, in one pass.

    The chain state is threaded through two locals, not a
    :class:`ChainCheckpoint` per entry, which matters when the streaming
    audit steps the chain over decoded record batches.  Raises
    :class:`HashChainError` on any break.
    """
    sequence = checkpoint.sequence
    previous = checkpoint.chain_hash
    for entry in entries:
        if entry.sequence != sequence + 1:
            raise HashChainError(
                f"non-contiguous sequence numbers: "
                f"{sequence} -> {entry.sequence}")
        if entry.previous_hash != previous:
            raise HashChainError(
                f"chain break at sequence {entry.sequence}: "
                f"previous hash mismatch")
        if not _matches_chain(previous, entry):
            raise HashChainError(
                f"entry {entry.sequence} does not hash to its recorded "
                f"chain value")
        sequence = entry.sequence
        previous = entry.chain_hash
    if not entries:
        return checkpoint
    return ChainCheckpoint(sequence=sequence, chain_hash=previous)


def verify_chain_incremental(entries: Sequence[LogEntry],
                             checkpoint: ChainCheckpoint) -> ChainCheckpoint:
    """Verify that ``entries`` extend ``checkpoint`` by an unbroken chain.

    The first entry must carry sequence ``checkpoint.sequence + 1`` and link
    to ``checkpoint.chain_hash``; every later entry must extend its
    predecessor.  Returns the checkpoint after the last entry (the input
    checkpoint when ``entries`` is empty) so verification can resume — the
    chunk-parallel audit checks ``returned == next chunk's checkpoint``.
    Raises :class:`HashChainError` on any break.
    """
    return extend_checkpoint_batch(checkpoint, entries)
