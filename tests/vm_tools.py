"""A scripted nondeterminism source for driving a bare VM in tests.

A :class:`~repro.vm.machine.VirtualMachine` always runs under an AVMM's live
source or the replayer's recorded one; tests that run a guest on a bare VM
script its clock reads and upstream responses with this instead.
"""

from __future__ import annotations

from typing import List, Optional

from repro.vm import snapshot
from repro.vm.execution import ExecutionTimestamp
from repro.vm.machine import NondeterminismSource, UpstreamResponse


class FixedNondeterminismSource(NondeterminismSource):
    """Returns a constant or scripted sequence of values."""

    def __init__(self, values: Optional[List[float]] = None, default: float = 0.0,
                 upstream_responses: Optional[List[UpstreamResponse]] = None) -> None:
        self._values = list(values or [])
        self._default = default
        self._index = 0
        self._upstream = list(upstream_responses or [])
        self._upstream_index = 0

    def clock_read(self, timestamp: ExecutionTimestamp) -> float:
        if self._index < len(self._values):
            value = self._values[self._index]
            self._index += 1
            return value
        return self._default

    def upstream_call(self, timestamp: ExecutionTimestamp, service: str,
                      request: bytes) -> UpstreamResponse:
        if self._upstream_index < len(self._upstream):
            response = self._upstream[self._upstream_index]
            self._upstream_index += 1
            return response
        return UpstreamResponse(body=b"", latency_cycles=0)


def small_snapshots(patch, page_size: int = snapshot.PAGE_SIZE,
                    keyframe_interval: int = snapshot.KEYFRAME_INTERVAL,
                    materialized_cache: int = snapshot.MATERIALIZED_CACHE
                    ) -> snapshot.SnapshotManager:
    """A snapshot manager under smaller snapshot constants, which ``patch``
    (a monkeypatch) holds until it is undone: a small state then spans the
    pages, keyframes and cache evictions a large one would."""
    patch.setattr(snapshot, "PAGE_SIZE", page_size)
    patch.setattr(snapshot, "KEYFRAME_INTERVAL", keyframe_interval)
    patch.setattr(snapshot, "MATERIALIZED_CACHE", materialized_cache)
    return snapshot.SnapshotManager()
