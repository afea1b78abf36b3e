"""Tamper-evident log (Section 4.3 of the paper).

The log is a hash chain of typed entries.  Each entry ``e_i = (s_i, t_i, c_i,
h_i)`` carries a monotonically increasing sequence number, a type, typed
content and a chain hash ``h_i = H(h_{i-1} || s_i || t_i || H(c_i))``.
Authenticators — signed (sequence, chain-hash) pairs — provide
non-repudiation: once a machine has sent an authenticator it cannot forge,
omit, reorder or fork the entries the authenticator covers without detection.

Sub-modules:

* :mod:`repro.log.entries` — entry types and canonical encoding.
* :mod:`repro.log.hashchain` — the chain-hash computation.
* :mod:`repro.log.authenticator` — authenticator creation/verification.
* :mod:`repro.log.tamper_evident` — the append-only log object.
* :mod:`repro.log.segments` — segment/chunk extraction for audits.
* :mod:`repro.log.storage` — (de)serialisation.
"""

from repro.log.authenticator import Authenticator
from repro.log.entries import EntryType, LogEntry
from repro.log.hashchain import chain_hash, verify_chain_incremental
from repro.log.segments import LogSegment
from repro.log.tamper_evident import TamperEvidentLog

__all__ = [
    "Authenticator",
    "EntryType",
    "LogEntry",
    "chain_hash",
    "verify_chain_incremental",
    "LogSegment",
    "TamperEvidentLog",
]
