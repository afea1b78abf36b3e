"""Log growth and content breakdown (Figures 3 and 4).

:class:`LogGrowthSeries` samples the size of a tamper-evident log over
simulated time (Figure 3).  :func:`log_content_breakdown` splits the log's
volume by entry category — TimeTracker, MAC layer, other replay information
and tamper-evident logging — and reports the compressed size (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.log.codec import get_codec
from repro.log.entries import ACCOUNTABILITY_ENTRY_TYPES, REPLAY_ENTRY_TYPES, EntryType
from repro.log.tamper_evident import TamperEvidentLog


@dataclass
class LogGrowthSeries:
    """Time series of log size, sampled on simulated time."""

    machine: str
    samples: List[Tuple[float, int]] = field(default_factory=list)

    def sample(self, time: float, log: TamperEvidentLog) -> None:
        """Record the log's current size at simulated ``time``."""
        self.samples.append((time, log.size_bytes()))

    def growth_rate_mb_per_minute(self, start_time: Optional[float] = None) -> float:
        """Average growth rate over the sampled window, in MB per minute."""
        if len(self.samples) < 2:
            return 0.0
        samples = self.samples
        if start_time is not None:
            samples = [s for s in self.samples if s[0] >= start_time] or self.samples
        (t0, b0), (t1, b1) = samples[0], samples[-1]
        if t1 <= t0:
            return 0.0
        return ((b1 - b0) / (1024.0 * 1024.0)) / ((t1 - t0) / 60.0)

    def as_rows(self) -> List[Tuple[float, float]]:
        """(minutes, megabytes) rows, ready for plotting or printing."""
        return [(t / 60.0, size / (1024.0 * 1024.0)) for t, size in self.samples]


@dataclass(frozen=True)
class LogContentBreakdown:
    """Volume of the log by content category (Figure 4)."""

    machine: str
    duration_seconds: float
    bytes_by_category: Dict[str, int]
    total_bytes: int
    compressed_bytes: int

    def fraction(self, category: str) -> float:
        if self.total_bytes == 0:
            return 0.0
        return self.bytes_by_category.get(category, 0) / self.total_bytes

    def mb_per_minute(self, category: Optional[str] = None) -> float:
        """Growth rate in MB/minute, overall or for one category."""
        if self.duration_seconds <= 0:
            return 0.0
        size = self.total_bytes if category is None else self.bytes_by_category.get(category, 0)
        return (size / (1024.0 * 1024.0)) / (self.duration_seconds / 60.0)

    def compressed_mb_per_minute(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return (self.compressed_bytes / (1024.0 * 1024.0)) / (self.duration_seconds / 60.0)


# Figure 4 categories.
CATEGORY_TIMETRACKER = "timetracker"
CATEGORY_MACLAYER = "maclayer"
CATEGORY_OTHER_REPLAY = "other_replay"
CATEGORY_TAMPER_EVIDENT = "tamper_evident"


def log_content_breakdown(log: TamperEvidentLog, duration_seconds: float,
                          machine: str = "") -> LogContentBreakdown:
    """Break a log's volume down into the Figure 4 categories."""
    by_type = log.size_by_type()
    categories: Dict[str, int] = {
        CATEGORY_TIMETRACKER: 0,
        CATEGORY_MACLAYER: 0,
        CATEGORY_OTHER_REPLAY: 0,
        CATEGORY_TAMPER_EVIDENT: 0,
    }
    for entry_type, size in by_type.items():
        if entry_type is EntryType.TIMETRACKER:
            categories[CATEGORY_TIMETRACKER] += size
        elif entry_type is EntryType.MACLAYER:
            categories[CATEGORY_MACLAYER] += size
        elif entry_type in REPLAY_ENTRY_TYPES:
            categories[CATEGORY_OTHER_REPLAY] += size
        elif entry_type in ACCOUNTABILITY_ENTRY_TYPES:
            categories[CATEGORY_TAMPER_EVIDENT] += size
        else:
            categories[CATEGORY_OTHER_REPLAY] += size

    total = sum(categories.values())
    compressed = 0
    if len(log) > 0:
        compressed = len(get_codec(1).encode_segment(log.full_segment()))
    return LogContentBreakdown(
        machine=machine or log.machine,
        duration_seconds=duration_seconds,
        bytes_by_category=categories,
        total_bytes=total,
        compressed_bytes=compressed,
    )
