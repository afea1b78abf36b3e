"""The ``ARCHIVE_SHIPMENT`` container: everything one seal or tail produces.

A machine ships its sealed log state as **one** message whose payload is a
list of typed *parts* — queued snapshot page files, the segment with the id
of the snapshot that seals it, one authenticator batch per subject — each
exactly the bytes its own encoder produced.  One message is one unit of
loss, of commit and of recovery: the shipper's cursors advance together or
not at all, and the ingest service stores the accepted parts as one group
(docs/message-protocol.md).

Layout: ``AVMSHIP1``, a part count, then per part a kind byte, the kind's
own field (a segment: ``sealed_by_snapshot + 1`` or 0; a batch: its subject)
and the length-prefixed payload.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.errors import LogFormatError
from repro.log.storage import _put_bytes, _put_varint, _Reader

SHIPMENT_MAGIC = b"AVMSHIP1"
#: a bound, not an option: a seal queues a handful of parts
MAX_SHIPMENT_PARTS = 4096


class PartKind(enum.IntEnum):
    SNAPSHOT = 1
    SEGMENT = 2
    AUTHENTICATORS = 3


@dataclass(frozen=True)
class ShipmentPart:
    """One typed blob of a shipment, as its encoder wrote it."""

    kind: PartKind
    payload: bytes
    #: a SEGMENT's: id of the snapshot whose entry seals it (None: a tail)
    sealed_by_snapshot: Optional[int] = None
    #: an AUTHENTICATORS batch's: the machine that issued them
    subject: str = ""


def encode_shipment(parts: Iterable[ShipmentPart]) -> bytes:
    parts = list(parts)
    out = bytearray(SHIPMENT_MAGIC)
    _put_varint(out, len(parts))
    for part in parts:
        out.append(part.kind)
        if part.kind is PartKind.SEGMENT:
            sealed = part.sealed_by_snapshot
            _put_varint(out, 0 if sealed is None else sealed + 1)
        elif part.kind is PartKind.AUTHENTICATORS:
            _put_bytes(out, part.subject.encode("utf-8"))
        _put_bytes(out, part.payload)
    return bytes(out)


def decode_shipment(data: bytes) -> List[ShipmentPart]:
    """Inverse of :func:`encode_shipment` for untrusted bytes — strict and
    bounded, failing only with :class:`LogFormatError`: the part count and
    every length are checked against the bytes that remain before anything
    is sliced; an unknown kind, a second segment, a second batch about one
    subject or a trailing byte refuses the whole."""
    if not data.startswith(SHIPMENT_MAGIC):
        raise LogFormatError("not an archive shipment")
    reader = _Reader(data, len(SHIPMENT_MAGIC))
    count = reader.count()
    if count > MAX_SHIPMENT_PARTS:
        raise LogFormatError(f"a shipment of {count} parts")
    parts: List[ShipmentPart] = []
    seen = set()
    for _ in range(count):
        try:
            kind = PartKind(reader.byte())
            sealed = reader.varint() if kind is PartKind.SEGMENT else 0
            subject = reader.bytes().decode("utf-8") \
                if kind is PartKind.AUTHENTICATORS else ""
        except ValueError as exc:  # unknown kind, subject not UTF-8
            raise LogFormatError(f"bad shipment part: {exc}") from exc
        if kind is not PartKind.SNAPSHOT:
            if (kind, subject) in seen:
                raise LogFormatError(
                    f"a second {kind.name.lower()} part (subject {subject!r})")
            seen.add((kind, subject))
        parts.append(ShipmentPart(kind, reader.bytes(),
                                  sealed - 1 if sealed else None, subject))
    if reader.left():
        raise LogFormatError(f"{reader.left()} trailing bytes after the shipment")
    return parts
