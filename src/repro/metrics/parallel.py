"""Parallel-execution cost modelling for the audit engine.

Section 6.6 observes that the semantic check dominates audit cost and that
audits are embarrassingly parallel: different machines' logs — and, with
snapshots, different chunks of one log — are independent work items.  This
module turns a bag of per-chunk modelled costs into the wall-clock the paper's
auditor *would* observe on a given number of cores, using longest-processing-
time-first (LPT) list scheduling.  Like the rest of :mod:`repro.metrics`, the
numbers are derived from the calibrated cost model rather than from the
hardware the simulation happens to run on, so they are deterministic and
machine-independent (the benchmark also reports the measured wall-clock of
the real worker pool, for flavour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ParallelSchedule:
    """Outcome of scheduling independent work items onto ``workers`` cores."""

    workers: int
    serial_seconds: float
    makespan_seconds: float
    per_worker_seconds: tuple

    @property
    def speedup(self) -> float:
        """Serial time over parallel makespan (1.0 when nothing to do)."""
        if self.makespan_seconds <= 0.0:
            return 1.0
        return self.serial_seconds / self.makespan_seconds

    @property
    def efficiency(self) -> float:
        """Speedup per worker (1.0 = perfectly parallel)."""
        if self.workers <= 0:
            return 0.0
        return self.speedup / self.workers


def schedule(durations: Sequence[float], workers: int) -> ParallelSchedule:
    """LPT-schedule ``durations`` onto ``workers`` identical workers.

    LPT is the classic 4/3-approximation for makespan; for the near-uniform
    chunk costs an audit produces it is effectively optimal, which is what
    makes the modelled speedup of the Figure 8/9-style experiments credible.
    """
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    loads = [0.0] * workers
    for duration in sorted(durations, reverse=True):
        loads[loads.index(min(loads))] += duration
    return ParallelSchedule(
        workers=workers,
        serial_seconds=float(sum(durations)),
        makespan_seconds=float(max(loads)) if durations else 0.0,
        per_worker_seconds=tuple(loads),
    )
