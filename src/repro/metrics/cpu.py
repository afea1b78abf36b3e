"""CPU-utilisation model (Figure 6).

The paper's testbed has a quad-core CPU with two hyperthreads per core
(8 hyperthreads).  The logging daemon is pinned to hyperthread 0, its
hypertwin (HT 4) is kept almost idle, and the single-threaded game migrates
across the remaining hyperthreads — so the expected average utilisation over
the whole CPU is about 12.5 % (one busy hyperthread out of eight), and the
daemon hyperthread stays below 8 %.

The model distributes the measured CPU seconds over the hyperthreads
accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

HYPERTHREADS = 8
DAEMON_HT = 0
DAEMON_HYPERTWIN = 4
#: small background load from kernel-level IRQ handling on lightly loaded
#: hyperthreads (footnote in Section 6.9)
IRQ_BACKGROUND_UTILIZATION = 0.01


@dataclass(frozen=True)
class CpuUtilization:
    """Per-hyperthread utilisation for one machine over one run."""

    machine: str
    per_hyperthread: tuple
    average: float
    daemon_ht_utilization: float


class CpuModel:
    """Distributes measured CPU seconds over the hyperthreads."""

    def compute(self, monitor, duration_seconds: float) -> CpuUtilization:
        """Utilisation for ``monitor`` over ``duration_seconds``.

        The frame-rate cap is off, so the game renders as fast as it can and
        keeps its single thread busy whatever the VMM adds to it.
        """
        if duration_seconds <= 0:
            raise ValueError("duration must be positive")
        daemon_fraction = min(1.0, monitor.stats.daemon_cpu_seconds / duration_seconds)

        utilizations: List[float] = [IRQ_BACKGROUND_UTILIZATION] * HYPERTHREADS
        # Daemon work is pinned to HT 0 (plus its hypertwin staying light).
        utilizations[DAEMON_HT] = min(1.0, daemon_fraction + IRQ_BACKGROUND_UTILIZATION)
        utilizations[DAEMON_HYPERTWIN] = IRQ_BACKGROUND_UTILIZATION * 2
        # The single-threaded game (plus the VMM work done in its context)
        # migrates over the remaining hyperthreads; spread it evenly.
        game_hts = [ht for ht in range(HYPERTHREADS)
                    if ht not in (DAEMON_HT, DAEMON_HYPERTWIN)]
        for ht in game_hts:
            utilizations[ht] += 1.0 / len(game_hts)

        average = sum(utilizations) / HYPERTHREADS
        return CpuUtilization(
            machine=monitor.identity,
            per_hyperthread=tuple(round(u, 4) for u in utilizations),
            average=round(average, 4),
            daemon_ht_utilization=round(utilizations[DAEMON_HT], 4),
        )
