"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the fleet's numeric telemetry surface.  Instruments are
created (and cached) by name; call sites hold the instrument object and
update it directly, so the hot-path cost of an enabled counter is one
``int`` add and the cost of a *disabled* one is a no-op method call on a
shared singleton — no allocation, no dict lookup, no branching at the
call site.

Determinism contract: instruments are *observers only*.  Nothing in the
audit pipeline may read a metric to make a decision, so verdicts,
evidence and modelled :class:`~repro.audit.verdict.AuditCost` are
identical whether telemetry is enabled, disabled, or sampled.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: default histogram bucket upper bounds (seconds-ish scale, powers of 4)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0004, 0.0016, 0.0064, 0.0256, 0.1024, 0.4096, 1.6384, 6.5536)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value that can move both ways (queue depths etc.)."""

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0
        self.high_water: Number = 0

    def set(self, value: Number) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def inc(self, amount: Number = 1) -> None:
        self.set(self.value + amount)


class Histogram:
    """A fixed-bucket histogram (cumulative-style buckets plus sum/count).

    ``bounds`` are inclusive upper bounds; observations above the last
    bound land in the implicit +inf bucket.  Buckets are fixed at
    creation so observing is O(len(bounds)) with zero allocation.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "sum", "count", "max")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        self.max: float = 0.0

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.bucket_counts[index] += 1
        self.sum += value
        self.count += 1
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return _histogram_dict(self.bounds, self.bucket_counts, self.count,
                               self.sum, self.max)


def _histogram_dict(bounds: Sequence[float], bucket_counts: Sequence[int],
                    count: int, total: float, maximum: float) -> Dict[str, object]:
    """The one histogram-snapshot schema: every bound key plus ``+inf``.

    Shared by live and null histograms so JSON consumers always see a
    fully-keyed bucket map — an empty histogram differs from a populated
    one only in its counts, never in its shape.
    """
    return {"count": count, "sum": total, "max": maximum,
            "buckets": dict(zip([*map(str, bounds), "+inf"], bucket_counts))}


# -- the disabled path ------------------------------------------------------------
#
# Null instruments are shared module singletons whose methods do nothing.
# They define ``__reduce__`` so that pickling (logs and monitors cross the
# process-pool audit boundary) round-trips back to the same singleton
# instead of growing per-copy state.

class _NullCounter:
    __slots__ = ()
    name = ""
    value = 0

    def inc(self, amount: Number = 1) -> None:
        pass

    def __reduce__(self):
        return (_null_counter, ())


class _NullGauge:
    __slots__ = ()
    name = ""
    value = 0
    high_water = 0

    def set(self, value: Number) -> None:
        pass

    def inc(self, amount: Number = 1) -> None:
        pass

    def __reduce__(self):
        return (_null_gauge, ())


class _NullHistogram:
    __slots__ = ()
    name = ""
    sum = 0.0
    count = 0
    max = 0.0
    mean = 0.0
    bounds: Tuple[float, ...] = DEFAULT_BUCKETS

    def observe(self, value: float) -> None:
        pass

    def to_dict(self) -> Dict[str, object]:
        return _histogram_dict(self.bounds, [0] * (len(self.bounds) + 1),
                               0, 0.0, 0.0)

    def __reduce__(self):
        return (_null_histogram, ())


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


def _null_counter() -> _NullCounter:
    return NULL_COUNTER


def _null_gauge() -> _NullGauge:
    return NULL_GAUGE


def _null_histogram() -> _NullHistogram:
    return NULL_HISTOGRAM


class MetricsRegistry:
    """Creates and caches named instruments.

    A disabled registry hands out the shared null singletons and stores
    nothing, so code can unconditionally bind instruments at construction
    time and update them on hot paths without checking a flag.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[str, object] = {}

    def _make(self, name: str, cls, null, **kwargs):
        if not self.enabled:
            return null
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, **kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(instrument).__name__}, not {cls.__name__}")
        return instrument

    def scoped(self, prefix: str) -> "ScopedMetrics":
        """A view of this registry that prefixes every instrument name.

        ``registry.scoped("ingest.shard-00.")`` lets multiple instances of
        one component share a registry without clobbering each other's
        instruments.  An empty prefix is a transparent passthrough.
        """
        return ScopedMetrics(self, prefix)

    def counter(self, name: str) -> Counter:
        return self._make(name, Counter, NULL_COUNTER)

    def gauge(self, name: str) -> Gauge:
        return self._make(name, Gauge, NULL_GAUGE)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._make(name, Histogram, NULL_HISTOGRAM, bounds=bounds)

    def get(self, name: str) -> Optional[object]:
        """The instrument registered under ``name``, or ``None``."""
        return self._instruments.get(name)

    def value(self, name: str, default: Number = 0) -> Number:
        """Convenience: current value of a counter/gauge (0 if absent)."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return default
        return getattr(instrument, "value", default)

    def snapshot(self) -> Dict[str, object]:
        """All instruments as plain JSON-ready values, sorted by name."""
        out: Dict[str, object] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = instrument.to_dict()
            elif isinstance(instrument, Gauge):
                out[name] = {"value": instrument.value,
                             "high_water": instrument.high_water}
            else:
                out[name] = instrument.value
        return out


class ScopedMetrics:
    """A registry view that prefixes every instrument name.

    Components that can be instantiated more than once against one shared
    :class:`MetricsRegistry` (e.g. per-shard
    :class:`~repro.service.ingest.AuditIngestService` instances) bind their
    instruments through a scope so they cannot clobber each other via the
    name cache.  The scope is a thin naming shim: instruments live in (and
    appear in :meth:`MetricsRegistry.snapshot` under) the parent registry
    with their fully-qualified names.
    """

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        self.registry = registry
        self.prefix = prefix

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    def counter(self, name: str) -> Counter:
        return self.registry.counter(self.prefix + name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(self.prefix + name)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self.registry.histogram(self.prefix + name, bounds=bounds)

    def get(self, name: str) -> Optional[object]:
        return self.registry.get(self.prefix + name)

    def value(self, name: str, default: Number = 0) -> Number:
        return self.registry.value(self.prefix + name, default)


#: the shared disabled registry — the default everywhere telemetry is optional
NULL_REGISTRY = MetricsRegistry(enabled=False)
