"""Performance model and measurement helpers.

The paper's absolute numbers (frame rates, round-trip times, CPU utilisation)
were measured on a 2010 testbed running closed-source software; the
reproduction replaces the testbed with a calibrated cost model
(:mod:`repro.metrics.perfmodel`) that charges per-operation costs for the work
the AVMM *actually performs* in simulation (events recorded, bytes logged,
signatures generated).  The measurement helpers turn those charges into the
metrics the paper reports:

* :mod:`repro.metrics.framerate` — achieved frame rate (Figures 7, 8).
* :mod:`repro.metrics.latency` — ping round-trip times (Figure 5).
* :mod:`repro.metrics.cpu` — per-hyperthread utilisation (Figure 6).
* :mod:`repro.metrics.logstats` — log growth and content breakdown (Figures 3, 4).
* :mod:`repro.metrics.parallel` — modelled makespan/speedup of parallel audits.
"""

from repro.metrics.perfmodel import CostParameters, PerfModel
from repro.metrics.framerate import FrameRateModel, FrameRateSample
from repro.metrics.latency import LatencyRecorder, summarize_rtts
from repro.metrics.cpu import CpuModel, CpuUtilization
from repro.metrics.logstats import LogGrowthSeries, log_content_breakdown
from repro.metrics.parallel import ParallelSchedule, schedule

__all__ = [
    "ParallelSchedule",
    "schedule",
    "CostParameters",
    "PerfModel",
    "FrameRateModel",
    "FrameRateSample",
    "LatencyRecorder",
    "summarize_rtts",
    "CpuModel",
    "CpuUtilization",
    "LogGrowthSeries",
    "log_content_breakdown",
]
