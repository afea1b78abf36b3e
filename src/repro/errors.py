"""Exception hierarchy for the AVM reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause.  Sub-hierarchies mirror
the major subsystems: cryptography, tamper-evident logging, virtual machine
execution, auditing and networking.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Cryptography
# ---------------------------------------------------------------------------

class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class SignatureError(CryptoError):
    """A signature failed to verify or could not be produced."""


class CertificateError(CryptoError):
    """A certificate is missing, malformed, or not signed by the trusted CA."""


class KeyGenerationError(CryptoError):
    """Key-pair generation failed (e.g. no prime found within the bound)."""


# ---------------------------------------------------------------------------
# Tamper-evident log
# ---------------------------------------------------------------------------

class LogError(ReproError):
    """Base class for tamper-evident-log failures."""


class HashChainError(LogError):
    """The hash chain of a log segment is broken."""


class LogFormatError(LogError):
    """A log entry or serialized log is malformed."""


class SegmentError(LogError):
    """A requested log segment cannot be produced (missing entries, bad range)."""


# ---------------------------------------------------------------------------
# Virtual machine
# ---------------------------------------------------------------------------

class VMError(ReproError):
    """Base class for virtual-machine failures."""


class GuestError(VMError):
    """The guest program raised an error or performed an illegal operation."""


class SnapshotError(VMError):
    """A snapshot could not be taken, restored, or verified."""


class DeviceError(VMError):
    """A virtual device was used incorrectly."""


# ---------------------------------------------------------------------------
# Recording and replay
# ---------------------------------------------------------------------------

class ReplayError(ReproError):
    """Base class for deterministic-replay failures."""


class ReplayInputError(ReplayError):
    """The recorded log does not contain the inputs replay requires."""


# ---------------------------------------------------------------------------
# Auditing
# ---------------------------------------------------------------------------

class AuditError(ReproError):
    """Base class for audit failures that are *not* detected faults.

    A detected fault is not an exception — it is reported through
    :class:`repro.audit.verdict.AuditResult` and accompanied by evidence.
    ``AuditError`` covers operational problems (missing snapshot, unknown key,
    malformed evidence) that prevent the audit from being carried out.
    """


class EvidenceError(AuditError):
    """A piece of evidence is malformed or cannot be verified."""


class MissingSnapshotError(AuditError):
    """No snapshot is available for the requested log segment."""


# ---------------------------------------------------------------------------
# Durable log archive
# ---------------------------------------------------------------------------

class StoreError(ReproError):
    """Base class for durable log-archive failures."""


class ArchiveIntegrityError(StoreError):
    """The on-disk archive state is corrupt or internally inconsistent."""


class RetentionError(StoreError):
    """A log-truncation (retention/GC) request cannot be honoured."""


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class ChannelError(NetworkError):
    """The authenticated channel protocol was violated."""


class DeliveryError(NetworkError):
    """A message could not be delivered (unknown destination, closed link)."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------

class SimulationError(ReproError):
    """Base class for discrete-event-simulation failures."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or the scheduler was misused."""


# ---------------------------------------------------------------------------
# Measurement / metrics
# ---------------------------------------------------------------------------

class MetricsError(ReproError):
    """Base class for measurement-bookkeeping failures."""


class DuplicateRequestError(MetricsError):
    """A request id was reused while the first request was still outstanding."""
