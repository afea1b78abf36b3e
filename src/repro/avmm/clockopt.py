"""Clock-read delay optimisation (Section 6.5).

With its default 72 fps frame-rate cap, Counterstrike implements inter-frame
delays by busy-waiting on the system clock; every read is a nondeterministic
input the AVMM must log, inflating log growth by a factor of 18.  The paper's
optimisation: *whenever the AVMM observes consecutive clock reads from the
same AVM within 5 microseconds of each other, it delays the n-th consecutive
read by 2^(n-2) * 50 microseconds, starting with the second read and up to a
limit of 5 ms.*

Delaying the read means the guest observes a clock value further in the
future, so busy-wait loops terminate after far fewer iterations, while long
waits still complete (the delays are capped) and short waits keep accurate
timing (the first delay is only 50 us).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class ClockOptimizerStats:
    """Bookkeeping about what the optimiser did."""

    reads_observed: int = 0
    reads_delayed: int = 0
    total_injected_delay: float = 0.0


class ClockReadOptimizer:
    """Implements the exponential clock-read delay of Section 6.5."""

    def __init__(self, *, consecutive_threshold: float = 5e-6,
                 base_delay: float = 50e-6, max_delay: float = 5e-3,
                 enabled: bool = True) -> None:
        self.consecutive_threshold = consecutive_threshold
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.enabled = enabled
        self.stats = ClockOptimizerStats()
        self._last_value: Optional[float] = None
        self._consecutive = 0
        self._accumulated_delay = 0.0

    def observe(self, value: float) -> float:
        """Process one clock read; returns the (possibly delayed) value.

        ``value`` is the raw clock value the VMM would have returned; the
        return value is what the guest actually sees.
        """
        self.stats.reads_observed += 1
        if not self.enabled:
            self._last_value = value
            return value

        adjusted_input = value + self._accumulated_delay
        if (self._last_value is not None
                and adjusted_input - self._last_value <= self.consecutive_threshold):
            self._consecutive += 1
        else:
            self._consecutive = 1

        delay = 0.0
        if self._consecutive >= 2:
            # n-th consecutive read is delayed by 2^(n-2) * base, capped.
            delay = min(self.base_delay * (2 ** (self._consecutive - 2)), self.max_delay)
            self.stats.reads_delayed += 1
            self.stats.total_injected_delay += delay
        self._accumulated_delay += delay
        result = value + self._accumulated_delay
        self._last_value = result
        return result
