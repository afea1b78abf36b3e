"""Network message envelopes.

An envelope carries the application payload plus the accountability headers
the AVMM adds: the sender's authenticator — its signed commitment to the SEND
(or, on a standalone acknowledgment, RECV) entry, and the only signature a
message carries — and the :class:`AckRun` that lets that one signature also
acknowledge everything the sender owes the recipient
(docs/message-protocol.md).  Envelope sizes are tracked explicitly because
the traffic overhead of per-packet signatures is one of the paper's
measurements (Section 6.7).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.crypto import hashing
from repro.log.authenticator import AckRun

# IP + UDP header bytes counted for raw traffic accounting, matching the
# paper's "raw, IP-level network traffic" measurement.
IP_UDP_HEADER_BYTES = 28
# TCP encapsulation used by the AVMM daemon connection (Section 6.7).
TCP_HEADER_BYTES = 40

_message_counter = itertools.count(1)


class MessageKind(enum.Enum):
    """What role an envelope plays in the protocol."""

    DATA = "data"                     # application payload (game packet, query)
    ACK = "ack"                       # standalone acknowledgment (no DATA to ride)
    # Archive-ingest stream: everything one seal or tail produces — snapshot
    # page files, the sealed segment, peer authenticator batches — as the
    # parts of one container (repro.network.shipment, repro.service.ingest).
    ARCHIVE_SHIPMENT = "archive_shipment"


@dataclass
class NetworkMessage:
    """An envelope travelling over the simulated network."""

    source: str
    destination: str
    payload: bytes
    kind: MessageKind = MessageKind.DATA
    message_id: str = ""
    authenticator: Optional[Dict[str, Any]] = None
    headers: Dict[str, Any] = field(default_factory=dict)
    #: cumulative acknowledgment riding the authenticator (signed envelopes)
    ack_run: Optional[AckRun] = None

    def __post_init__(self) -> None:
        if not self.message_id:
            self.message_id = f"m{next(_message_counter):010d}"

    # -- crypto helpers -------------------------------------------------------

    def payload_hash(self) -> bytes:
        """Hash of the payload (what log entries refer to)."""
        return hashing.hash_bytes(self.payload)

    # -- size accounting ------------------------------------------------------

    def wire_size(self, encapsulate_tcp: bool = False) -> int:
        """Total bytes this envelope occupies on the wire.

        Includes the payload, serialised authenticator and protocol headers;
        ``encapsulate_tcp`` adds the TCP framing the AVMM uses for its
        daemon connection.
        """
        size = IP_UDP_HEADER_BYTES + len(self.payload)
        size += len(self.message_id) + 8  # id + kind tag
        if self.authenticator is not None:
            size += _authenticator_wire_size(self.authenticator)
        for key, value in self.headers.items():
            size += len(str(key)) + len(str(value))
        if self.ack_run is not None:
            size += self.ack_run.wire_size()
        if encapsulate_tcp:
            size += TCP_HEADER_BYTES
        return size


# Authenticator fields that travel hex-encoded in the dict but as raw bytes
# on the wire: three 32-byte hashes and a signature of the key's length.
_RAW_BYTES_FIELDS = frozenset(
    {"chain_hash", "signature", "previous_hash", "content_hash"})


def _authenticator_wire_size(auth: Dict[str, Any]) -> int:
    """Approximate serialised size of an attached authenticator, from field
    lengths alone: raw-bytes fields count half their hex length, other
    strings their length, integers 8 bytes."""
    size = 0
    for key, value in auth.items():
        size += len(str(key))
        if isinstance(value, str):
            size += len(value) // 2 if key in _RAW_BYTES_FIELDS else len(value)
        else:
            size += 8
    return size
