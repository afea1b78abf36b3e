"""The semantic check: deterministic replay against the reference image.

Thin wrapper around :class:`~repro.avmm.replayer.DeterministicReplayer`, plus
the model of how long the check takes (Section 6.6: replay takes roughly as
long as the original execution, minus idle periods, times a small slowdown).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.avmm.replayer import DeterministicReplayer, ReplayReport
from repro.log.entries import LogEntry
from repro.log.segments import LogSegment
from repro.metrics.perfmodel import REPLAY_SLOWDOWN_FACTOR
from repro.vm.image import VMImage


def modelled_replay_seconds(active_seconds: float) -> float:
    """Wall-clock time a semantic check over ``active_seconds`` of recorded
    activity represents.

    Replay repeats all the computation of the original run but skips idle
    periods; the paper measured 1,977 s of replay for 1,987 s of actual
    game play inside a 2,216 s log (Section 6.6).
    """
    return active_seconds * REPLAY_SLOWDOWN_FACTOR


class SemanticChecker:
    """Runs deterministic replay and reports divergences."""

    def __init__(self, reference_image: VMImage) -> None:
        self.reference_image = reference_image

    def check(self, segment: LogSegment,
              initial_state: Optional[Dict[str, Any]] = None,
              in_flight: Sequence[LogEntry] = ()) -> ReplayReport:
        """Replay ``segment`` (optionally from a snapshot state).

        ``in_flight`` are the RECV entries that precede the segment and whose
        packet enters the AVM inside it (chunked replay only).
        """
        replayer = DeterministicReplayer(self.reference_image)
        return replayer.replay(segment, initial_state=initial_state,
                               in_flight=in_flight)
