"""The syntactic check (Section 4.5).

The audit tool first checks *whether the log itself is well-formed*: every
entry has the proper format, the cryptographic signatures in each message and
acknowledgment verify, each message was acknowledged, and the sequence of
sent and received messages corresponds to the sequence of messages that enter
and exit the AVM.  All of this is independent of the reference image; it only
needs the log and the parties' public keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.crypto.keys import KeyStore
from repro.errors import LogFormatError
from repro.log.authenticator import recv_commitment
from repro.log.entries import EntryType, LogEntry
from repro.log.segments import LogSegment

if TYPE_CHECKING:  # pragma: no cover - the kernel imports this module
    from repro.audit.kernel import BoundaryContext

# Fields every entry of a given type must carry to be considered well-formed.
_REQUIRED_FIELDS: Dict[EntryType, Set[str]] = {
    EntryType.SEND: {"destination", "payload_hash", "payload_size", "message_id"},
    EntryType.RECV: {"source", "payload_size", "message_id", "sender_sequence",
                     "sender_previous_hash", "sender_signature"},
    EntryType.ACK: {"peer", "message_id", "direction"},
    EntryType.SNAPSHOT: {"snapshot_id", "state_root", "execution_counter"},
    EntryType.TIMETRACKER: {"event_kind", "execution_counter"},
    EntryType.MACLAYER: {"direction", "message_id", "execution_counter"},
    EntryType.NONDET: {"event_kind", "execution_counter"},
}
_RECV = EntryType.RECV


def _is_legacy_recv(content: Dict) -> bool:
    """Whether a RECV entry's ``content`` was recorded while the envelope
    carried its own signature (typed tags ``0x02``/``0x03``): it names a
    ``payload_hash`` and logs no sender commitment.  Still decodable, but
    nothing this version can check its ``sender_signature`` against — an
    unsupported format, not a forgery."""
    return "payload_hash" in content and "sender_sequence" not in content


@dataclass
class SyntacticReport:
    """Result of the syntactic check."""

    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, problem: str) -> None:
        self.problems.append(problem)


class SyntacticChecker:
    """Performs the syntactic check on one log segment."""

    def __init__(self, keystore: Optional[KeyStore] = None) -> None:
        """``keystore`` may be a :class:`KeyStore` or any object with its
        ``has_identity``/``verify`` interface (e.g. the picklable
        :class:`~repro.crypto.keys.StaticKeyView` used by audit workers);
        without one no sender signature is verified."""
        self.keystore = keystore

    # -- public API ---------------------------------------------------------------

    def check(self, segment: LogSegment,
              context: Optional["BoundaryContext"] = None) -> SyntacticReport:
        """Run all syntactic checks; problems are collected, not raised.

        ``context`` says what was in flight at the segment's edges when it
        is a chunk of a longer log (default: a whole log).
        """
        report = SyntacticReport()
        sends: Dict[str, LogEntry] = {}
        recvs: Dict[str, LogEntry] = {}
        mac_in: Dict[str, LogEntry] = {}
        mac_out: Dict[str, LogEntry] = {}
        send, recv, maclayer = EntryType.SEND, EntryType.RECV, EntryType.MACLAYER

        for entry in segment.entries:
            self._check_format(entry, report)
            entry_type = entry.entry_type
            if entry_type is send:
                sends[str(entry.content.get("message_id"))] = entry
            elif entry_type is recv:
                recvs[str(entry.content.get("message_id"))] = entry
                self._check_recv_signature(segment.machine, entry, report)
            elif entry_type is maclayer:
                message_id = str(entry.content.get("message_id"))
                if entry.content.get("direction") == "in":
                    mac_in[message_id] = entry
                else:
                    mac_out[message_id] = entry

        self._cross_reference(segment, sends, recvs, mac_in, mac_out, report,
                              context)
        return report

    # -- individual checks -----------------------------------------------------------

    @staticmethod
    def _check_format(entry: LogEntry, report: SyntacticReport) -> None:
        try:
            content = entry.content
        except LogFormatError as exc:
            # A lazily-decoded entry whose wire content bytes do not parse:
            # the chain check already proves them inauthentic, but the format
            # sweep must degrade to a report line, not an exception.
            report.add(f"entry {entry.sequence} ({entry.entry_type.wire_name}) "
                       f"carries unparseable content: {exc}")
            return
        entry_type = entry.entry_type
        if entry_type is _RECV and _is_legacy_recv(content):
            report.add(f"entry {entry.sequence} ({entry.entry_type.wire_name}) "
                       f"is in the legacy RECV format, recorded before the "
                       f"sender's commitment was logged: readable, but this "
                       f"version cannot audit it")
            return
        required = _REQUIRED_FIELDS.get(entry_type)
        if required is not None and not content.keys() >= required:
            report.add(f"entry {entry.sequence} ({entry.entry_type.wire_name}) "
                       f"is missing fields {sorted(required - set(content))}")
        if entry.sequence < 1:
            report.add(f"entry has invalid sequence number {entry.sequence}")
        if not isfinite(entry.timestamp):  # not chained: anyone can set one
            report.add(f"entry {entry.sequence} ({entry.entry_type.wire_name}) "
                       f"has a non-finite timestamp {entry.timestamp!r}")

    def _check_recv_signature(self, machine: str, entry: LogEntry,
                              report: SyntacticReport) -> None:
        """Verify the sender's commitment logged with an incoming message.

        Section 4.3: ``h_i`` of the sender's SEND entry is recomputed from
        the *logged message*, so the logged signature only verifies while the
        log still shows what the sender committed to — the very check the
        monitor ran on receipt.
        """
        if self.keystore is None:
            return
        if not entry.content.get("sender_signature") or _is_legacy_recv(entry.content):
            return  # unsigned traffic (nosig), or reported by the format check
        source = str(entry.content.get("source", ""))
        if not self.keystore.has_identity(source):
            report.add(f"entry {entry.sequence}: no certificate for sender {source!r}")
            return
        try:
            committed = recv_commitment(machine, entry.content).verify(self.keystore)
        except LogFormatError as exc:
            report.add(f"entry {entry.sequence}: {exc}")
            return
        if not committed:
            report.add(f"entry {entry.sequence}: sender signature from {source!r} "
                       f"does not verify against the logged message (forged "
                       f"message, or the entry was rewritten)")

    @staticmethod
    def _cross_reference(segment: LogSegment, sends: Dict[str, LogEntry],
                         recvs: Dict[str, LogEntry], mac_in: Dict[str, LogEntry],
                         mac_out: Dict[str, LogEntry], report: SyntacticReport,
                         context: Optional["BoundaryContext"] = None) -> None:
        """Check the message stream against the MAC-layer stream (Section 4.4)."""
        in_flight = {str(entry.content.get("message_id")): entry
                     for entry in (context.in_flight if context else ())}
        for message_id, entry in mac_in.items():
            if message_id not in recvs and message_id not in in_flight:
                report.add(f"packet {message_id} entered the AVM (sequence "
                           f"{entry.sequence}) but has no RECV entry")
        for message_id, entry in mac_out.items():
            send = sends.get(message_id)
            if send is None:
                report.add(f"packet {message_id} left the AVM (sequence "
                           f"{entry.sequence}) but has no SEND entry")
                continue
            if entry.content.get("payload_hash") != send.content.get("payload_hash"):
                report.add(f"message {message_id}: SEND entry and MAC-layer entry "
                           f"disagree about the payload")
        # A packet logged as received but never injected into the AVM is
        # legitimate only while it may still be "in flight" inside the
        # monitor: at the very end of the log, or — for a chunk the log goes
        # on after — anywhere in the chunk, since the next chunk's audit
        # starts with it in flight and accounts for it there.
        pending = dict(in_flight)
        if context is None or context.ends_log:
            pending.update(recvs)
        for message_id, entry in pending.items():
            if message_id not in mac_in \
                    and entry.sequence < segment.last_sequence - 5:
                report.add(f"message {message_id} was received (sequence "
                           f"{entry.sequence}) but never entered the AVM")
        # The monitor logs a SEND and the packet's MAC-layer entry in one
        # step, so no chunk boundary separates them: a SEND alone (a second
        # one for a message that left in an earlier chunk, say) is forged.
        for message_id, entry in sends.items():
            if message_id not in mac_out:
                report.add(f"message {message_id} was sent (sequence "
                           f"{entry.sequence}) but never left the AVM")
