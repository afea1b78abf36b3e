"""A scripted nondeterminism source for driving a bare VM in tests.

A :class:`~repro.vm.machine.VirtualMachine` always runs under an AVMM's live
source or the replayer's recorded one; tests that run a guest on a bare VM
script its clock reads and upstream responses with this instead.
"""

from __future__ import annotations

from typing import List, Optional

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
