"""Execution timestamps.

Section 4.4: *wall-clock time is not sufficiently precise to describe the
timing of [asynchronous] inputs... Instead, the AVMM uses a combination of
instruction pointer, branch counter, and, where necessary, additional
registers.*  Our abstract machine counts "instructions" (API calls plus
explicitly charged cycles) and "branches" (event deliveries); the pair
identifies a unique point in the guest's execution at which an asynchronous
event is injected, and replay injects it at exactly the same point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering


@total_ordering
@dataclass(frozen=True)
class ExecutionTimestamp:
    """A precise point in a guest's execution."""

    instruction_count: int
    branch_count: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.instruction_count, self.branch_count)

    def __lt__(self, other: "ExecutionTimestamp") -> bool:
        if not isinstance(other, ExecutionTimestamp):
            return NotImplemented
        return self.as_tuple() < other.as_tuple()

    def to_dict(self) -> dict:
        return {"instructions": self.instruction_count, "branches": self.branch_count}

    @staticmethod
    def from_dict(data: dict) -> "ExecutionTimestamp":
        """Inverse of :meth:`to_dict`; a counter left out is zero."""
        return ExecutionTimestamp(
            instruction_count=int(data.get("instructions", 0)),
            branch_count=int(data.get("branches", 0)))


#: the execution timestamp at the very beginning of a run
ExecutionTimestamp.ZERO = ExecutionTimestamp(0, 0)
