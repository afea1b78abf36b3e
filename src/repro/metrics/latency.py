"""Round-trip-time measurement (Figure 5 and the open-loop web workload).

The experiments send requests between machines and record when the reply
arrives.  :class:`LatencyRecorder` timestamps request/response pairs on
simulated time; :func:`summarize_rtts` produces the median, the 5th/95th
percentiles the paper plots, and the tail percentiles (p99/p999) that an
open-loop load harness reports.

Samples are keyed by ``(client, request_id)`` so concurrent clients can use
colliding ids; reusing an id while the first request is still outstanding
raises :class:`~repro.errors.DuplicateRequestError` instead of silently
dropping the first round trip, and replies that match no outstanding request
are counted (``unmatched_received``) rather than ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import DuplicateRequestError


@dataclass
class RttSample:
    """One request/response round trip."""

    request_id: str
    sent_at: float
    received_at: Optional[float] = None
    client: str = ""

    @property
    def rtt(self) -> Optional[float]:
        if self.received_at is None:
            return None
        return self.received_at - self.sent_at


class LatencyRecorder:
    """Tracks outstanding requests and completed round trips."""

    def __init__(self) -> None:
        self._samples: Dict[Tuple[str, str], RttSample] = {}
        self._unmatched_received = 0

    def note_sent(self, request_id: str, time: float, client: str = "") -> None:
        """Record that ``client`` sent ``request_id`` at ``time``.

        Raises :class:`~repro.errors.DuplicateRequestError` if the same
        (client, id) pair already has a sample — completed or outstanding —
        so open-loop id collisions surface instead of corrupting the data.
        """
        key = (client, request_id)
        if key in self._samples:
            state = ("outstanding" if self._samples[key].received_at is None
                     else "completed")
            raise DuplicateRequestError(
                f"request id {request_id!r} from client {client!r} already has "
                f"a {state} sample")
        self._samples[key] = RttSample(request_id=request_id, sent_at=time,
                                       client=client)

    def note_received(self, request_id: str, time: float, client: str = "") -> None:
        """Record the reply for ``request_id``; count it if nothing matches."""
        sample = self._samples.get((client, request_id))
        if sample is not None and sample.received_at is None:
            sample.received_at = time
        else:
            self._unmatched_received += 1

    @property
    def completed(self) -> List[RttSample]:
        return [s for s in self._samples.values() if s.received_at is not None]

    @property
    def unmatched_received(self) -> int:
        """Replies that matched no outstanding request (duplicate or unknown)."""
        return self._unmatched_received

    def rtts(self) -> List[float]:
        """Completed round-trip times, in the order the requests were sent."""
        return [s.rtt for s in sorted(self.completed, key=lambda s: s.sent_at)]


@dataclass(frozen=True)
class RttSummary:
    """Median and tail percentiles of a set of round-trip times."""

    count: int
    median: float
    p05: float
    p95: float
    mean: float
    p50: float = 0.0
    p99: float = 0.0
    p999: float = 0.0

def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of ``values`` (fraction in [0, 1])."""
    if not values:
        raise ValueError("cannot take the percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction out of range: {fraction}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def summarize_rtts(rtts: Sequence[float]) -> RttSummary:
    """Summary statistics for a set of round-trip times."""
    if not rtts:
        raise ValueError("no round trips completed")
    p50 = percentile(rtts, 0.5)
    return RttSummary(
        count=len(rtts),
        median=p50,
        p05=percentile(rtts, 0.05),
        p95=percentile(rtts, 0.95),
        mean=sum(rtts) / len(rtts),
        p50=p50,
        p99=percentile(rtts, 0.99),
        p999=percentile(rtts, 0.999),
    )
