"""Audit results and cost accounting."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.audit.evidence import Evidence
from repro.avmm.replayer import ReplayReport
from repro.metrics.perfmodel import (COMPRESS_BYTES_PER_SECOND, DECOMPRESS_BYTES_PER_SECOND,
                                     SYNTACTIC_CHECK_BYTES_PER_SECOND)


class Verdict(enum.Enum):
    """Outcome of an audit."""

    PASS = "pass"          # no fault detected
    FAIL = "fail"          # fault detected, evidence available
    SUSPECTED = "suspected"  # machine did not respond to the audit request


class AuditPhase(enum.Enum):
    """Which step of the audit produced the verdict."""

    AUTHENTICATOR_CHECK = "authenticator_check"
    SYNTACTIC_CHECK = "syntactic_check"
    SEMANTIC_CHECK = "semantic_check"
    COMPLETE = "complete"


@dataclass
class AuditCost:
    """Resources an audit consumed (drives Sections 6.6, 6.12 and Figure 9).

    Every field is either counted or modelled from the raw byte count, so
    filling it in never runs a compressor.  The *compressed* download size
    the paper quotes is :func:`repro.log.codec.modelled_compressed_log_bytes`
    of the audited segment, computed by whoever reports it.
    """

    log_bytes_downloaded: int = 0
    snapshot_bytes_downloaded: int = 0
    compression_seconds: float = 0.0
    decompression_seconds: float = 0.0
    syntactic_seconds: float = 0.0
    semantic_seconds: float = 0.0
    #: modelled cost of checking authenticator signatures, the scheme's verify
    #: cost per signature verified; 0.0 on a machine's result (the paper folds
    #: it into the syntactic check), filled in per chunk by the engine
    signature_seconds: float = 0.0
    #: authenticator signatures checked, each verified on its own
    signatures_verified: int = 0

    @classmethod
    def for_download(cls, raw_bytes: int, snapshot_bytes: int) -> "AuditCost":
        """Modelled cost of obtaining ``raw_bytes`` of log plus a snapshot."""
        return cls(
            log_bytes_downloaded=raw_bytes,
            snapshot_bytes_downloaded=snapshot_bytes,
            compression_seconds=raw_bytes / COMPRESS_BYTES_PER_SECOND,
            decompression_seconds=raw_bytes / DECOMPRESS_BYTES_PER_SECOND,
            syntactic_seconds=raw_bytes / SYNTACTIC_CHECK_BYTES_PER_SECOND,
        )

    @property
    def total_seconds(self) -> float:
        return (self.compression_seconds + self.decompression_seconds
                + self.syntactic_seconds + self.semantic_seconds
                + self.signature_seconds)

    def add(self, other: "AuditCost") -> None:
        """Accumulate another audit's cost into this one (chunk/fleet merge)."""
        self.log_bytes_downloaded += other.log_bytes_downloaded
        self.snapshot_bytes_downloaded += other.snapshot_bytes_downloaded
        self.compression_seconds += other.compression_seconds
        self.decompression_seconds += other.decompression_seconds
        self.syntactic_seconds += other.syntactic_seconds
        self.semantic_seconds += other.semantic_seconds
        self.signature_seconds += other.signature_seconds
        self.signatures_verified += other.signatures_verified

    @classmethod
    def total(cls, costs: Iterable["AuditCost"]) -> "AuditCost":
        """Sum of many audit costs (the fleet-level aggregate)."""
        merged = cls()
        for cost in costs:
            merged.add(cost)
        return merged


@dataclass
class AuditResult:
    """Everything an audit produced."""

    machine: str
    auditor: str
    verdict: Verdict
    phase: AuditPhase
    reason: str = ""
    authenticators_checked: int = 0
    syntactic_problems: List[str] = field(default_factory=list)
    replay_report: Optional[ReplayReport] = None
    evidence: Optional[Evidence] = None
    cost: AuditCost = field(default_factory=AuditCost)

    @property
    def ok(self) -> bool:
        """True when the audit completed and found no fault."""
        return self.verdict is Verdict.PASS

    def summary(self) -> str:
        """One-line human-readable summary."""
        base = f"audit of {self.machine} by {self.auditor}: {self.verdict.value}"
        if self.verdict is Verdict.PASS:
            return base
        return f"{base} ({self.phase.value}: {self.reason})"
