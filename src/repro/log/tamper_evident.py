"""The append-only tamper-evident log object.

This is the data structure the AVMM writes during recording and an auditor
verifies during an audit.  It owns the hash chain state, produces
authenticators on demand (for SEND and ACK entries), and hands out segments
for audits and shipping.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

from repro.crypto import hashing
from repro.crypto.keys import KeyPair
from repro.errors import SegmentError
from repro.log.authenticator import Authenticator, make_authenticator
from repro.log.entries import (
    EntryType,
    LogEntry,
    encode_content,
    lazy_entry,
)
from repro.log.hashchain import chain_hash, entry_link_hash
from repro.log.segments import LogSegment


class TamperEvidentLog:
    """A machine's tamper-evident log.

    Parameters
    ----------
    machine:
        Identity of the machine that owns the log.
    keypair:
        The machine's certified key pair, used to sign authenticators.  When
        ``None`` (the ``avmm-nosig`` configuration and plain-VMware baselines)
        authenticators are still produced structurally but carry empty
        signatures.
    clock:
        Optional callable returning the current (host) time for entry
        timestamps (``float``, always 0.0, when omitted); timestamps are
        bookkeeping only and are *not* part of the hash chain, mirroring the
        paper where timing lives in dedicated TimeTracker entries.
    """

    def __init__(self, machine: str, keypair: Optional[KeyPair] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.machine = machine
        self.keypair = keypair
        self._clock = clock if clock is not None else float
        self._entries: List[LogEntry] = []
        self._current_hash: bytes = hashing.ZERO_HASH
        self._next_sequence = 1

    # -- appending ----------------------------------------------------------

    def append(self, entry_type: EntryType,
               content: Union[Dict[str, Any], bytes]) -> LogEntry:
        """Append an entry and return it (with its chain hash filled in).

        ``content`` is the entry's content dict, or its canonical encoding:
        ``bytes`` equal to ``encode_content`` of that dict, as
        :func:`~repro.log.entries.encode_recv_content` packs a RECV.  Bytes
        are hashed and kept as they are, and ``entry.content`` is parsed
        from them only if something reads it.
        """
        sequence = self._next_sequence
        previous = self._current_hash
        stored_content = None
        if isinstance(content, bytes):
            encoded = content
        else:
            stored_content = dict(content)
            encoded = encode_content(stored_content)
        content_hash = hashing.hash_bytes(encoded)
        new_hash = entry_link_hash(previous, sequence, entry_type,
                                   content_hash)
        # The chain hash above committed to exactly these bytes; cache them
        # and their hash so verification, authenticators and shipping never
        # re-canonicalise or re-hash the content.
        entry = lazy_entry(sequence, entry_type, encoded, new_hash, previous,
                           self._clock(), content_hash, canonical=True)
        if stored_content is not None:
            entry.__dict__["content"] = stored_content
        self._entries.append(entry)
        self._current_hash = new_hash
        self._next_sequence += 1
        return entry

    def authenticator_for(self, entry: LogEntry) -> Authenticator:
        """Create an authenticator for an already-appended entry.

        Uses the entry's cached canonical bytes (seeded at append time) so
        the authenticator commits to exactly what the chain hashed, without
        re-encoding — or re-materializing — the content.
        """
        return make_authenticator(
            self.keypair, machine=self.machine, sequence=entry.sequence,
            chain_hash=entry.chain_hash, previous_hash=entry.previous_hash,
            entry_type=entry.entry_type.wire_name,
            content_hash=entry.content_hash())

    # -- queries ------------------------------------------------------------

    @property
    def entries(self) -> List[LogEntry]:
        """All entries, oldest first.  The returned list is a copy."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def head_hash(self) -> bytes:
        """Chain hash of the most recent entry (``0`` for an empty log)."""
        return self._current_hash

    def entry_at(self, sequence: int) -> LogEntry:
        """Return the entry with the given sequence number."""
        index = sequence - 1
        if index < 0 or index >= len(self._entries):
            raise SegmentError(f"no log entry with sequence {sequence}")
        entry = self._entries[index]
        if entry.sequence != sequence:  # pragma: no cover - defensive
            raise SegmentError(f"log is not densely numbered near {sequence}")
        return entry

    def entries_of_type(self, entry_type: EntryType) -> List[LogEntry]:
        """All entries of a given type, oldest first."""
        return [e for e in self._entries if e.entry_type is entry_type]

    def size_bytes(self) -> int:
        """Approximate total size of the log in bytes."""
        return sum(entry.size_bytes() for entry in self._entries)

    def size_by_type(self) -> Dict[EntryType, int]:
        """Approximate size per entry type (drives the Figure 4 breakdown)."""
        sizes: Dict[EntryType, int] = {}
        for entry in self._entries:
            sizes[entry.entry_type] = sizes.get(entry.entry_type, 0) + entry.size_bytes()
        return sizes

    # -- segments -----------------------------------------------------------

    def segment(self, first_sequence: int, last_sequence: int) -> LogSegment:
        """Extract the segment ``[first_sequence, last_sequence]``.

        The segment records the chain hash immediately before its first entry
        so an auditor can verify it without the rest of the log.
        """
        if first_sequence < 1 or last_sequence >= self._next_sequence:
            raise SegmentError(
                f"segment [{first_sequence}, {last_sequence}] outside the log "
                f"(entries 1..{self._next_sequence - 1})")
        if first_sequence > last_sequence:
            raise SegmentError(
                f"segment start {first_sequence} is after end {last_sequence}")
        entries = self._entries[first_sequence - 1:last_sequence]
        if entries[-1].sequence != last_sequence:  # pragma: no cover - defensive
            raise SegmentError(f"log is not densely numbered near {last_sequence}")
        start_hash = entries[0].previous_hash
        return LogSegment(machine=self.machine, entries=entries,
                          start_hash=start_hash)

    def full_segment(self) -> LogSegment:
        """The whole log as a segment (for full audits)."""
        if not self._entries:
            return LogSegment(machine=self.machine, entries=[],
                              start_hash=hashing.ZERO_HASH)
        return self.segment(1, len(self._entries))

    # -- tampering (test / adversary support) -------------------------------

    def tamper_replace_entry(self, sequence: int, new_content: Dict[str, Any],
                             recompute_chain: bool = False) -> None:
        """Maliciously replace an entry's content (used by adversary models).

        With ``recompute_chain=False`` the stored chain hashes are left
        untouched, so the chain itself is broken.  With
        ``recompute_chain=True`` the chain is recomputed from the tampered
        entry onward — the chain then verifies, but no longer matches
        authenticators issued before the tampering, which is exactly the
        attack the authenticator check catches.
        """
        index = sequence - 1
        if index < 0 or index >= len(self._entries):
            raise SegmentError(f"no log entry with sequence {sequence}")
        old = self._entries[index]
        if not recompute_chain:
            self._entries[index] = LogEntry(
                sequence=old.sequence, entry_type=old.entry_type,
                content=dict(new_content), chain_hash=old.chain_hash,
                previous_hash=old.previous_hash, timestamp=old.timestamp)
            return
        previous = old.previous_hash
        replacement_content: Optional[Dict[str, Any]] = dict(new_content)
        for i in range(index, len(self._entries)):
            current = self._entries[i]
            content = replacement_content if i == index else current.content
            new_hash = chain_hash(previous, current.sequence, current.entry_type, content)
            self._entries[i] = LogEntry(
                sequence=current.sequence, entry_type=current.entry_type,
                content=dict(content), chain_hash=new_hash,
                previous_hash=previous, timestamp=current.timestamp)
            previous = new_hash
        self._current_hash = previous

    def tamper_remove_entry(self, sequence: int) -> None:
        """Remove an entry and renumber the suffix to hide the gap.

        The machine presents a log whose sequence numbers are dense again,
        but the renumbered entries keep their original hashes — so the chain
        no longer verifies at the removal point.
        """
        index = sequence - 1
        if index < 0 or index >= len(self._entries):
            raise SegmentError(f"no log entry with sequence {sequence}")
        del self._entries[index]
        for i in range(index, len(self._entries)):
            old = self._entries[i]
            self._entries[i] = LogEntry(
                sequence=old.sequence - 1, entry_type=old.entry_type,
                content=old.content, chain_hash=old.chain_hash,
                previous_hash=old.previous_hash, timestamp=old.timestamp)
        self._next_sequence -= 1

    def tamper_swap_entries(self, sequence_a: int, sequence_b: int) -> None:
        """Swap two entries' payloads in place (reordering attack).

        The entries trade type, content and hashes but keep their positions'
        sequence numbers, so the log still *looks* well-formed; the chain
        breaks at both positions because neither entry hashes to its
        recorded chain value any more.
        """
        for sequence in (sequence_a, sequence_b):
            if sequence < 1 or sequence > len(self._entries):
                raise SegmentError(f"no log entry with sequence {sequence}")
        ia, ib = sequence_a - 1, sequence_b - 1
        a, b = self._entries[ia], self._entries[ib]
        self._entries[ia] = LogEntry(
            sequence=a.sequence, entry_type=b.entry_type, content=b.content,
            chain_hash=b.chain_hash, previous_hash=b.previous_hash,
            timestamp=a.timestamp)
        self._entries[ib] = LogEntry(
            sequence=b.sequence, entry_type=a.entry_type, content=a.content,
            chain_hash=a.chain_hash, previous_hash=a.previous_hash,
            timestamp=b.timestamp)

    def tamper_insert_entry(self, after_sequence: int, entry_type: EntryType,
                            content: Dict[str, Any]) -> None:
        """Insert a forged entry and recompute the chain from there onward.

        The presented chain is internally consistent, but every entry from
        the insertion point on hashes differently — any authenticator a peer
        holds for those sequence numbers exposes the forgery.
        """
        if after_sequence < 0 or after_sequence > len(self._entries):
            raise SegmentError(f"no log entry with sequence {after_sequence}")
        suffix = self._entries[after_sequence:]
        del self._entries[after_sequence:]
        self._current_hash = (self._entries[-1].chain_hash if self._entries
                              else hashing.ZERO_HASH)
        self._next_sequence = after_sequence + 1
        self.append(entry_type, content)
        for old in suffix:
            self.append(old.entry_type, old.content)

    def tamper_truncate(self, after_sequence: int) -> None:
        """Discard every entry after ``after_sequence`` (history rewriting).

        Used by fork adversaries: truncate, then append an alternate suffix
        with :meth:`append` — the forked chain is self-consistent but no
        longer matches authenticators issued on the abandoned branch.
        """
        if after_sequence < 0 or after_sequence > len(self._entries):
            raise SegmentError(f"no log entry with sequence {after_sequence}")
        del self._entries[after_sequence:]
        self._current_hash = (self._entries[-1].chain_hash if self._entries
                              else hashing.ZERO_HASH)
        self._next_sequence = after_sequence + 1
