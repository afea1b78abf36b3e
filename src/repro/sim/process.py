"""Cooperative simulated processes.

A :class:`Process` is a small wrapper that gives long-running simulated
activities (a game client, a logging daemon, an auditor) a uniform lifecycle:
``start`` schedules the first tick, each tick reschedules the next one, and
``stop`` cancels the pending tick.  Processes are deliberately simple — the
interesting behaviour lives in the subsystems that subclass or compose them.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.sim.scheduler import ScheduledEvent, Scheduler


class ProcessState(enum.Enum):
    """Lifecycle state of a simulated process."""

    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"


class Process:
    """A periodic simulated activity driven by the scheduler.

    Parameters
    ----------
    scheduler:
        The discrete-event scheduler to run on.
    period:
        Seconds of simulated time between ticks.
    on_tick:
        Callback invoked once per tick.  It may call :meth:`stop` to end the
        process.  If omitted, subclasses should override :meth:`tick`.
    name:
        Label used in scheduler events (useful when debugging traces).
    """

    def __init__(self, scheduler: Scheduler, period: float,
                 on_tick: Optional[Callable[[], None]] = None,
                 name: str = "process") -> None:
        if period <= 0:
            raise SimulationError(f"process period must be positive, got {period!r}")
        self.scheduler = scheduler
        self.period = float(period)
        self.name = name
        self._on_tick = on_tick
        self._state = ProcessState.CREATED
        self._pending: Optional[ScheduledEvent] = None
        self._ticks = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self, delay: float = 0.0) -> None:
        """Start ticking ``delay`` seconds from now."""
        if self._state is ProcessState.RUNNING:
            raise SimulationError(f"process {self.name!r} is already running")
        self._state = ProcessState.RUNNING
        self._pending = self.scheduler.schedule_after(delay, self._run_tick,
                                                      label=f"{self.name}.tick")

    def stop(self) -> None:
        """Stop the process; any pending tick is cancelled."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._state = ProcessState.STOPPED

    # -- ticking ------------------------------------------------------------

    def tick(self) -> None:
        """Per-tick behaviour.  Default delegates to the ``on_tick`` callback."""
        if self._on_tick is not None:
            self._on_tick()

    def _run_tick(self) -> None:
        if self._state is not ProcessState.RUNNING:
            return
        self._ticks += 1
        self.tick()
        if self._state is ProcessState.RUNNING:
            self._pending = self.scheduler.schedule_after(
                self.period, self._run_tick, label=f"{self.name}.tick")
