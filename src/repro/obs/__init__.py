"""Fleet observability: metrics, tracing and audit progress.

One :class:`Observability` bundle threads through every pipeline layer —
monitor (record), shipper, ingest service, archive and the audit
engines.  Construction is explicit: components take an optional ``obs``
parameter and default to the shared :data:`NULL_OBS`, whose instruments
are all no-ops, so telemetry-off costs nothing and changes nothing.

The hard invariant (enforced by the differential tests): telemetry is
*observation only*.  Audit verdicts, evidence and modelled
:class:`~repro.audit.verdict.AuditCost` are structurally identical with
telemetry on, off, or sampled at any stride.

See ``docs/observability.md`` for the metric/span catalog and the
clock-domain rules.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.progress import (AuditProgress, MachineProgress,
                                NULL_PROGRESS, NullAuditProgress,
                                peak_rss_bytes)
from repro.obs.registry import (Counter, DEFAULT_BUCKETS, Gauge, Histogram,
                                MetricsRegistry,
                                NULL_COUNTER, NULL_GAUGE,
                                NULL_HISTOGRAM, NULL_REGISTRY, ScopedMetrics)
from repro.obs.trace import (NULL_TRACER, NullTracer, SIM, Span, Tracer,
                             WALL, WallTimer, validate_chrome_trace)

__all__ = [
    "AuditProgress", "Counter", "DEFAULT_BUCKETS", "Gauge",
    "Histogram", "MachineProgress", "MetricsRegistry",
    "NULL_COUNTER", "NULL_GAUGE",
    "NULL_HISTOGRAM", "NULL_OBS", "NULL_PROGRESS", "NULL_REGISTRY",
    "NULL_TRACER", "NullAuditProgress", "NullTracer", "Observability",
    "SIM", "ScopedMetrics", "Span", "Tracer", "WALL", "WallTimer", "ensure_obs",
    "peak_rss_bytes", "validate_chrome_trace",
]


class Observability:
    """The bundle a pipeline layer receives: metrics + tracer + progress."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 tracer=None, progress=None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.progress = progress if progress is not None else AuditProgress()

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or getattr(self.tracer, "enabled", False)

    @classmethod
    def make(cls, sim_time: Optional[Callable[[], float]] = None,
             sample_stride: int = 1,
             progress_callback: Optional[Callable[[MachineProgress], None]]
             = None) -> "Observability":
        """An enabled bundle wired to ``sim_time`` (usually ``clock.read``)."""
        return cls(metrics=MetricsRegistry(),
                   tracer=Tracer(sim_time=sim_time,
                                 sample_stride=sample_stride),
                   progress=AuditProgress(on_update=progress_callback))


class _NullObservability(Observability):
    """The shared disabled bundle (pickles back to the singleton)."""

    def __init__(self) -> None:
        self.metrics = NULL_REGISTRY
        self.tracer = NULL_TRACER
        self.progress = NULL_PROGRESS

    def __reduce__(self):
        return (_null_obs, ())


NULL_OBS = _NullObservability()


def _null_obs() -> _NullObservability:
    return NULL_OBS


def ensure_obs(obs: Optional[Observability]) -> Observability:
    """``obs`` itself, or the shared disabled bundle when ``None``."""
    return obs if obs is not None else NULL_OBS
