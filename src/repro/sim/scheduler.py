"""Priority-queue discrete-event scheduler.

The scheduler owns the global :class:`~repro.sim.clock.SimClock` and a heap of
:class:`ScheduledEvent` objects.  Callbacks run at their scheduled simulated
time; ties are broken by insertion order so runs are fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import SchedulingError
from repro.sim.clock import SimClock


@dataclass(order=True)
class ScheduledEvent:
    """A callback scheduled at a simulated time.

    Ordering is (time, sequence) so that events scheduled for the same instant
    fire in the order they were scheduled.
    """

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event as cancelled; the scheduler will skip it."""
        self.cancelled = True


class Scheduler:
    """Deterministic discrete-event loop."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self._heap: list[ScheduledEvent] = []
        self._counter = itertools.count()
        self._events_run = 0

    # -- scheduling ---------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable[[], None],
                    label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` to run at absolute simulated time ``time``."""
        if time < self.clock.now:
            raise SchedulingError(
                f"cannot schedule event at {time} (now is {self.clock.now})"
            )
        event = ScheduledEvent(time=float(time), sequence=next(self._counter),
                               callback=callback, label=label)
        heapq.heappush(self._heap, event)
        return event

    def schedule_after(self, delay: float, callback: Callable[[], None],
                       label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule event with negative delay {delay!r}")
        return self.schedule_at(self.clock.now + delay, callback, label)

    # -- execution ----------------------------------------------------------

    @property
    def events_run(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_run

    def peek_time(self) -> Optional[float]:
        """Simulated time of the next runnable event, or ``None`` if empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            self._events_run += 1
            event.callback()
            return True
        return False

    def run_until(self, end_time: float) -> int:
        """Run events until simulated time reaches ``end_time``.

        Returns the number of events executed.  The clock is advanced to
        ``end_time`` even if the queue drains earlier, so subsequent
        scheduling is relative to the requested horizon.
        """
        executed = 0
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time > end_time:
                break
            if self.step():
                executed += 1
        if self.clock.now < end_time:
            self.clock.advance_to(end_time)
        return executed
