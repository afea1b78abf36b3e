"""Simulated clocks.

The simulation kernel advances a single global :class:`SimClock`.  Hosts and
devices derive their local notion of time from it, optionally with a constant
offset and drift so the "wall clock" read by a guest is not trivially equal to
simulated time (the AVMM must treat clock reads as nondeterministic inputs, so
it is useful for tests that the values are not globally predictable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError


class SimClock:
    """Monotone simulated time, in seconds (float).

    The clock can only move forward.  :meth:`advance_to` is used by the
    scheduler; user code normally only reads :attr:`now`.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def read(self) -> float:
        """:attr:`now` as a bound callable.

        Handy where a clock *function* is required (e.g. the tamper-evident
        log's timestamp source): a bound method of a plain-float object stays
        picklable under the process-pool audit path, unlike an inline
        ``lambda: clock.now``.
        """
        return self._now

    def advance_to(self, timestamp: float) -> None:
        """Move the clock forward to ``timestamp``.

        Raises :class:`SimulationError` if the timestamp is in the past; the
        simulation kernel never rewinds time.
        """
        if timestamp < self._now:
            raise SimulationError(
                f"cannot move clock backwards: now={self._now}, target={timestamp}"
            )
        self._now = float(timestamp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"


@dataclass
class HostClock:
    """A host-local wall clock derived from the global simulated clock.

    Each host sees ``offset + (1 + drift) * sim_time``.  The drift is tiny and
    constant; it exists so that clock reads on different hosts differ, like
    real machines, which matters for the nondeterministic-input recording the
    AVMM performs.
    """

    sim_clock: SimClock
    offset: float = 0.0
    drift: float = 0.0
    _reads: int = field(default=0, init=False)

    def read(self) -> float:
        """Return the host wall-clock time.  Counts as a nondeterministic read."""
        self._reads += 1
        return self.offset + (1.0 + self.drift) * self.sim_clock.now

    @property
    def reads(self) -> int:
        """Number of times the host clock has been read."""
        return self._reads
