"""Authenticators: signed commitments to a log prefix.

Section 4.3: *the authenticator for an entry ``e_i`` is ``a_i := (s_i, h_i,
sigma(s_i || h_i))``*.  The sender attaches an authenticator (plus ``h_{i-1}``
and the entry fields needed to recompute ``h_i``) to every outgoing message,
and includes one in every acknowledgment, so its communication partners
accumulate non-repudiable commitments to its log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.crypto import hashing
from repro.crypto.keys import KeyPair, KeyStore
from repro.errors import CertificateError, LogFormatError
from repro.log.entries import EntryType, LogEntry, encode_content, send_content
from repro.log.hashchain import entry_link_hash, link_hash


@dataclass(frozen=True)
class Authenticator:
    """A signed (sequence, chain-hash) pair issued by ``machine``.

    ``previous_hash`` and ``entry_type``/``content_hash`` are included so the
    recipient can recompute ``h_i`` and confirm that the covered entry really
    is, e.g., ``SEND(m)`` for the message it just received (Section 4.3).
    """

    machine: str
    sequence: int
    chain_hash: bytes
    signature: bytes
    previous_hash: bytes
    entry_type: str
    content_hash: bytes

    def signed_payload(self) -> bytes:
        """The byte string covered by the signature: ``s_i || h_i``."""
        return signed_payload(self.sequence, self.chain_hash)

    def implied_chain_hash(self) -> bytes:
        """The ``h_i`` that follows from the advertised ``h_{i-1}`` and fields."""
        return link_hash(self.previous_hash, self.sequence,
                         self.entry_type.encode("utf-8"), self.content_hash)

    def is_consistent(self) -> bool:
        """Whether ``chain_hash`` is the one the other fields imply."""
        return self.chain_hash == self.implied_chain_hash()

    def verify(self, keystore: KeyStore) -> bool:
        """Verify the signature and internal consistency of the authenticator."""
        if not self.is_consistent():
            return False
        return keystore.verify(self.machine, self.signed_payload(), self.signature)

    def to_dict(self) -> Dict[str, Any]:
        """Serialise for transport or storage."""
        return {
            "machine": self.machine,
            "sequence": self.sequence,
            "chain_hash": self.chain_hash.hex(),
            "signature": self.signature.hex(),
            "previous_hash": self.previous_hash.hex(),
            "entry_type": self.entry_type,
            "content_hash": self.content_hash.hex(),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Authenticator":
        try:
            sequence = int(data["sequence"])
            if not 0 <= sequence < 1 << 64:
                raise ValueError("sequence does not fit 64 bits")
            return Authenticator(
                machine=str(data["machine"]),
                sequence=sequence,
                chain_hash=bytes.fromhex(data["chain_hash"]),
                signature=bytes.fromhex(data["signature"]),
                previous_hash=bytes.fromhex(data["previous_hash"]),
                entry_type=str(data["entry_type"]),
                content_hash=bytes.fromhex(data["content_hash"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise LogFormatError(f"malformed authenticator: {exc}") from exc


def signed_payload(sequence: int, chain_hash: bytes) -> bytes:
    """Canonical byte string the machine signs: ``s_i || h_i``."""
    return hashing.hash_concat(hashing.encode_int(sequence), chain_hash)


def batch_verify_authenticators(authenticators: Sequence[Authenticator],
                                keystore, machine: str) -> List[Authenticator]:
    """The authenticators ``machine`` issued whose :meth:`Authenticator.verify`
    holds, in order — one ``keystore.verify`` each: the audit's one rule.

    An invalid authenticator (inconsistent, badly signed, one factor of a
    pair whose product would verify) proves nothing about ``machine`` and is
    left out.  ``keystore`` may be a :class:`~repro.crypto.keys.KeyStore` or
    the picklable :class:`~repro.crypto.keys.StaticKeyView`.  Raises
    :class:`~repro.errors.CertificateError` when ``machine`` issued some and
    the keys hold no certificate for it: nothing could be checked.
    """
    issued = [auth for auth in authenticators if auth.machine == machine]
    if issued and not keystore.has_identity(machine):
        raise CertificateError(f"no certificate registered for {machine!r}")
    return [auth for auth in issued if auth.verify(keystore)]


def committed_authenticator(machine: str, sequence: int, previous_hash: bytes,
                            signature: bytes, entry_type: EntryType,
                            content_hash: bytes) -> Authenticator:
    """The authenticator ``machine`` must have issued for an entry, rebuilt
    by a party that knows the entry's content (Section 4.3).

    Only ``s_i``, ``h_{i-1}`` and the signature come from the peer; ``h_i``
    is *recomputed* over the hash of content the verifier derives itself.
    The result verifies exactly when ``machine`` signed this content at this
    position of its log — a valid authenticator for any other entry fails.
    """
    return Authenticator(
        machine=machine, sequence=sequence, signature=signature,
        chain_hash=entry_link_hash(previous_hash, sequence, entry_type,
                                   content_hash),
        previous_hash=previous_hash, entry_type=entry_type.wire_name,
        content_hash=content_hash)


#: most log entries one ack run may span: what a receiver hashes on a peer's
#: word is bounded, and a sender acknowledges early rather than exceed it
MAX_ACK_RUN_LINKS = 256

#: one entry of the acknowledger's log between the oldest RECV it owes and the
#: signed entry: "your message, this id" (the recipient recomputes that RECV's
#: content hash itself) or ``(entry type wire name, content hash)``
AckLink = Union[str, Tuple[str, bytes]]


@dataclass(frozen=True)
class AckRun:
    """Entries ``first_sequence … k-1`` of the sender's log, ``k`` being the
    entry its authenticator signs: rolled forward from ``start_hash``
    (``h_{first_sequence-1}``) they must end in the authenticator's
    ``previous_hash``, so the one signature acknowledges every "yours" link
    (:func:`build_run` makes one, :func:`chain_run` checks it)."""

    first_sequence: int
    start_hash: bytes
    links: Tuple[AckLink, ...]

    def wire_size(self) -> int:
        """Raw bytes: sequence, hash, count, then a tag byte per link plus
        the message id, or a type byte and the 32-byte content hash."""
        return 8 + len(self.start_hash) + 2 + sum(
            1 + (len(link) if isinstance(link, str) else 1 + len(link[1]))
            for link in self.links)


def build_run(entries: Sequence[LogEntry],
              owed: Mapping[int, str]) -> Optional[AckRun]:
    """The run over ``entries`` — ``a … k-1`` of the acknowledger's log, in
    order — where ``owed`` maps the sequences of the RECV entries being
    acknowledged to their message ids; ``None`` when the signed entry is
    the oldest owed RECV itself."""
    if not entries:
        return None
    return AckRun(entries[0].sequence, entries[0].previous_hash, tuple(
        owed.get(entry.sequence)
        or (entry.entry_type.wire_name, entry.content_hash())
        for entry in entries))


def chain_run(run: Optional[AckRun], signed: Authenticator,
              receipt_of: Callable[[str], Optional[bytes]]) -> Optional[List[str]]:
    """The messages an ack run acknowledges, if it chains to ``signed``.

    Rolls :func:`entry_link_hash` forward from the run's ``h_{a-1}`` over
    entries ``a … k-1``, ``k`` being the entry ``signed`` commits to; a
    "yours" link is a RECV whose content hash ``receipt_of(message id)``
    supplies — the verifier's own, never the peer's.  If that gives the
    ``h_{k-1}`` ``signed`` advertises, its one signature covers the run and
    the "yours" ids are returned (none without a run).  ``None`` otherwise,
    and — before anything is hashed — for a run not typed as declared, empty
    or over :data:`MAX_ACK_RUN_LINKS`, not ending at ``k``, or naming a
    message ``receipt_of`` does not know.
    """
    def is_hash(value) -> bool:
        return isinstance(value, bytes) and len(value) == len(hashing.ZERO_HASH)

    if run is None:
        return []
    if not (isinstance(run, AckRun) and type(run.first_sequence) is int
            and is_hash(run.start_hash) and isinstance(run.links, tuple)
            and 0 < len(run.links) <= MAX_ACK_RUN_LINKS
            and 0 < run.first_sequence == signed.sequence - len(run.links)):
        return None
    resolved: List[Tuple[EntryType, bytes]] = []
    for link in run.links:
        if isinstance(link, str):
            link = (EntryType.RECV.wire_name, receipt_of(link))
        try:
            wire_name, content_hash = link
            resolved.append((EntryType(wire_name), content_hash))
        except (TypeError, ValueError):
            return None
        if not is_hash(content_hash):
            return None
    chained = run.start_hash
    for sequence, link in enumerate(resolved, run.first_sequence):
        chained = entry_link_hash(chained, sequence, *link)
    if chained != signed.previous_hash:
        return None
    return [link for link in run.links if isinstance(link, str)]


def send_commitment(recipient: str, source: str, message_id: str,
                    payload_hash: bytes, payload_size: int, sequence: int,
                    previous_hash: bytes, signature: bytes) -> Authenticator:
    """The authenticator ``source`` must have issued for ``SEND(m)``, where
    ``m`` went to ``recipient`` with this id, payload hash and size, signed
    as entry ``sequence`` after ``previous_hash`` (Section 4.3).

    The SEND content is derived from the message, so the result verifies
    only if ``source`` signed exactly that message.  The monitor calls this
    on receipt with the payload it holds; :func:`recv_commitment` with the
    fields a RECV entry logged.
    """
    return committed_authenticator(
        source, sequence, previous_hash, signature, EntryType.SEND,
        hashing.hash_bytes(encode_content(send_content(
            recipient, payload_hash, payload_size, message_id))))


def recv_commitment(recipient: str, recv: Mapping[str, Any]) -> Authenticator:
    """The sender's commitment to ``SEND(m)`` logged in a RECV entry.

    ``recv`` is RECV content from ``recipient``'s log; its fields are parsed
    and handed to :func:`send_commitment`, the check the monitor ran on
    receipt.  Rewriting the logged destination, payload, size or id
    afterwards changes ``h_i``, and the logged signature stops verifying.
    The syntactic check calls this at audit.  Raises
    :class:`LogFormatError` on malformed fields.
    """
    try:
        payload = bytes.fromhex(recv["payload"])
        return send_commitment(
            recipient, source=str(recv["source"]),
            sequence=int(recv["sender_sequence"]),
            previous_hash=bytes.fromhex(recv["sender_previous_hash"]),
            signature=bytes.fromhex(recv["sender_signature"]),
            payload_hash=hashing.hash_bytes(payload),
            payload_size=recv["payload_size"],
            message_id=str(recv["message_id"]))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise LogFormatError(f"malformed RECV commitment: {exc}") from exc


def make_authenticator(keypair: Optional[KeyPair], *, sequence: int,
                       chain_hash: bytes, previous_hash: bytes, entry_type: str,
                       content_hash: bytes, machine: str = "") -> Authenticator:
    """Create and sign an authenticator for the given log entry fields.

    Without a ``keypair`` (``avmm-nosig``) the authenticator is issued in
    ``machine``'s name with an empty signature — same structure, same path.
    """
    signature = b""
    if keypair is not None:
        machine = keypair.identity
        signature = keypair.sign(signed_payload(sequence, chain_hash))
    return Authenticator(
        machine=machine, sequence=sequence, chain_hash=chain_hash,
        signature=signature, previous_hash=previous_hash,
        entry_type=entry_type, content_hash=content_hash)
