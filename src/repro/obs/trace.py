"""Span-based tracer with two clock domains, JSONL and Chrome exporters.

Spans live in one of two clock domains:

* ``"sim"`` — timestamps read from the simulation clock.  Everything the
  fleet does *inside* the simulation (log appends, snapshot takes,
  segment shipments, ingest arrivals) is stamped in sim time, which makes
  the trace deterministic and byte-identical across replays of the same
  seeded run.
* ``"wall"`` — timestamps from :func:`time.perf_counter`.  Real audit
  work (decode, signature checks, replay) is measured here; these spans
  are profiling data and naturally vary run to run.

The exporters emit JSONL (one span per line) and the Chrome
``trace_event`` JSON format, so a full fleet run opens directly in
``about:tracing`` / `Perfetto <https://ui.perfetto.dev>`_.  The two
domains export as two separate "processes" so sim time and wall time
never share an axis.

Determinism contract: tracing never feeds back into the pipeline.
Sampling (``sample_stride``) is a deterministic counter stride over
completed spans — never a wall-clock or RNG decision — so the set of
*recorded* spans is reproducible and the audit verdict cannot depend on
the sampling rate (dropped spans still ran; only their retention
changes).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

#: clock-domain names
WALL = "wall"
SIM = "sim"

#: Chrome trace_event phase codes this module emits / accepts
_CHROME_PHASES = frozenset("XBEbneiIMCPSTFsft")


@dataclass
class Span:
    """One completed (or in-flight) span."""

    name: str
    domain: str
    start: float
    end: float
    span_id: int
    parent_id: int
    #: logical track the span belongs to (machine / service identity);
    #: exported as the Chrome thread so each machine gets its own row
    track: str = ""
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "domain": self.domain, "track": self.track,
                "start": self.start, "end": self.end,
                "duration": self.duration, "span_id": self.span_id,
                "parent_id": self.parent_id, "attributes": self.attributes}


class _SpanHandle:
    """Context manager for an in-flight span (returned by ``Tracer.span``)."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def set(self, key: str, value: object) -> None:
        """Attach/overwrite an attribute while the span is open."""
        self.span.attributes[key] = value

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self.span, failed=exc_type is not None)
        return False


class WallTimer:
    """A perf_counter stopwatch that *always* measures.

    This is the "one obs timer" every audit front-end routes through: the
    null tracer hands out plain ``WallTimer`` objects (so
    ``AuditResult.wall_seconds`` is populated even with telemetry off),
    and the real tracer wraps the same timer in a recorded wall-domain
    span.
    """

    __slots__ = ("seconds", "_handle", "_started")

    def __init__(self, handle: Optional[_SpanHandle] = None) -> None:
        self.seconds = 0.0
        self._handle = handle
        self._started = 0.0

    def set(self, key: str, value: object) -> None:
        if self._handle is not None:
            self._handle.set(key, value)

    def __enter__(self) -> "WallTimer":
        if self._handle is not None:
            self._handle.__enter__()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._started
        if self._handle is not None:
            self._handle.__exit__(exc_type, exc, tb)
        return False


class Tracer:
    """Collects spans in sim and wall clock domains.

    ``sim_time`` is a zero-argument callable (typically
    ``SimClock.read``) supplying the sim domain's timestamps; when absent,
    sim-domain events fall back to timestamp 0.0 plus whatever explicit
    timestamps/durations the caller provides.  ``sample_stride=n`` keeps
    every n-th completed span (deterministic counter stride, see module
    docstring).  ``max_spans`` bounds memory on very long runs; the oldest
    spans are dropped and ``dropped_spans`` counts them.
    """

    enabled = True

    def __init__(self, sim_time: Optional[Callable[[], float]] = None,
                 sample_stride: int = 1, max_spans: int = 200_000) -> None:
        if sample_stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
        self.sim_time = sim_time
        self.sample_stride = sample_stride
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped_spans = 0
        self._completed = 0
        self._next_id = 1
        self._lock = threading.Lock()
        self._stacks = threading.local()

    # -- time ---------------------------------------------------------------------

    def now(self, domain: str = WALL) -> float:
        if domain == WALL:
            return time.perf_counter()
        return self.sim_time() if self.sim_time is not None else 0.0

    # -- span API -----------------------------------------------------------------

    def span(self, name: str, domain: str = WALL, track: str = "",
             **attributes: object) -> _SpanHandle:
        """Open a span as a context manager; it records itself on exit."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else 0
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(name=name, domain=domain, start=self.now(domain), end=0.0,
                    span_id=span_id, parent_id=parent_id, track=track,
                    attributes=dict(attributes))
        stack.append(span)
        return _SpanHandle(self, span)

    def timed(self, name: str, track: str = "",
              **attributes: object) -> WallTimer:
        """A wall-domain span that also exposes ``.seconds`` after exit."""
        return WallTimer(self.span(name, domain=WALL, track=track, **attributes))

    def event(self, name: str, domain: str = SIM, track: str = "",
              duration: float = 0.0, timestamp: Optional[float] = None,
              **attributes: object) -> None:
        """Record a completed span directly (modelled/instantaneous events).

        Sim-domain events commonly pass a *modelled* ``duration`` (e.g. the
        charged snapshot cost) so the trace shows how long the operation
        took in simulated time even though the simulator executed it
        atomically.
        """
        start = self.now(domain) if timestamp is None else timestamp
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(name=name, domain=domain, start=start,
                    end=start + max(0.0, duration), span_id=span_id,
                    parent_id=0, track=track, attributes=dict(attributes))
        self._record(span)

    # -- internals ----------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def _finish(self, span: Span, failed: bool = False) -> None:
        span.end = self.now(span.domain)
        if failed:
            span.attributes["error"] = True
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - misnested exit
            stack.remove(span)
        self._record(span)

    def _record(self, span: Span) -> None:
        with self._lock:
            self._completed += 1
            if (self._completed - 1) % self.sample_stride != 0:
                return
            if len(self.spans) >= self.max_spans:
                self.spans.pop(0)
                self.dropped_spans += 1
            self.spans.append(span)

    # -- exporters ----------------------------------------------------------------

    def chrome_trace_events(self) -> List[Dict[str, object]]:
        """Spans as Chrome ``trace_event`` dicts (``X`` complete events).

        The two clock domains become two processes (pid 1 = wall, pid 2 =
        sim); each track becomes a named thread so every machine gets its
        own swim-lane in Perfetto.  Timestamps and durations are in
        microseconds, per the trace_event spec.
        """
        pids = {WALL: 1, SIM: 2}
        events: List[Dict[str, object]] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "audit (wall clock)"}},
            {"ph": "M", "name": "process_name", "pid": 2, "tid": 0,
             "args": {"name": "fleet (sim clock)"}},
        ]
        tids: Dict[Tuple[int, str], int] = {}
        for span in self.spans:
            pid = pids.get(span.domain, 1)
            key = (pid, span.track)
            tid = tids.get(key)
            if tid is None:
                tid = len([k for k in tids if k[0] == pid]) + 1
                tids[key] = tid
                events.append({"ph": "M", "name": "thread_name",
                               "pid": pid, "tid": tid,
                               "args": {"name": span.track or "main"}})
            events.append({
                "ph": "X", "name": span.name, "cat": span.domain,
                "pid": pid, "tid": tid,
                "ts": span.start * 1e6, "dur": span.duration * 1e6,
                "args": dict(span.attributes,
                             span_id=span.span_id, parent_id=span.parent_id),
            })
        return events

    def to_chrome_trace(self) -> Dict[str, object]:
        return {"traceEvents": self.chrome_trace_events(),
                "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome_trace()) + "\n",
                        encoding="utf-8")
        return path


class _NullSpanHandle:
    """Shared no-op span handle (disabled tracer)."""

    __slots__ = ()
    span = None

    def set(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __reduce__(self):
        return (_null_span_handle, ())


_NULL_SPAN_HANDLE = _NullSpanHandle()


def _null_span_handle() -> _NullSpanHandle:
    return _NULL_SPAN_HANDLE


class NullTracer:
    """The disabled tracer: records nothing, allocates nothing per span.

    ``timed`` still returns a live :class:`WallTimer` — measured wall
    seconds are part of the audit report contract, not telemetry.
    """

    enabled = False
    sample_stride = 1
    dropped_spans = 0

    __slots__ = ()

    @property
    def spans(self) -> List[Span]:
        return []

    def now(self, domain: str = WALL) -> float:
        return time.perf_counter() if domain == WALL else 0.0

    def span(self, name: str, domain: str = WALL, track: str = "",
             **attributes: object) -> _NullSpanHandle:
        return _NULL_SPAN_HANDLE

    def timed(self, name: str, track: str = "",
              **attributes: object) -> WallTimer:
        return WallTimer(None)

    def event(self, name: str, domain: str = SIM, track: str = "",
              duration: float = 0.0, timestamp: Optional[float] = None,
              **attributes: object) -> None:
        pass

    def __reduce__(self):
        return (_null_tracer, ())


NULL_TRACER = NullTracer()


def _null_tracer() -> NullTracer:
    return NULL_TRACER


# -- Chrome trace validation ------------------------------------------------------

def validate_chrome_trace(data: object) -> List[str]:
    """Validate ``data`` against the Chrome trace-event JSON schema.

    A hand-rolled structural check (the container has no ``jsonschema``)
    covering what ``about:tracing``/Perfetto require to load a file:
    a top-level object with a ``traceEvents`` array whose members carry a
    string ``name``, a known single-character phase ``ph``, numeric
    ``pid``/``tid``, a numeric non-negative ``ts`` (except metadata
    events), and — for ``X`` complete events — a numeric non-negative
    ``dur``.  Returns a list of problems; empty means valid.
    """
    problems: List[str] = []
    if isinstance(data, list):  # the spec also allows a bare event array
        events = data
    elif isinstance(data, dict):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level 'traceEvents' is missing or not an array"]
    else:
        return [f"trace must be an object or array, got {type(data).__name__}"]

    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if not (isinstance(phase, str) and len(phase) == 1
                and phase in _CHROME_PHASES):
            problems.append(f"{where}: bad phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: 'name' must be a string")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: {key!r} must be an integer")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
                problems.append(f"{where}: 'ts' must be a non-negative number")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                problems.append(f"{where}: 'dur' must be a non-negative number")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where}: 'args' must be an object")
    return problems
