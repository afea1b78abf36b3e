"""Outside-in span tracer for the benchmark's traced run.

The benchmark claims no gain and edits no library file, so layers are
measured from here: :func:`installed` replaces each public function named
in :data:`TARGETS` with a timing wrapper for the duration of a traced round.  Spans are kept on a stack, which
gives every span its parent and lets a layer report *self* time (its
duration minus what its child spans cover) — the rows of the ledger then
add up to the end-to-end figure instead of counting nested work twice.

Targets are resolved by dotted name on every installation.  A later PR may rename
internals without editing ``bench/``; a target that no longer resolves is
skipped with one warning line and the metrics fed only by it read ``None``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """One wrap point: the span it feeds and, optionally, a unit counter."""

    span: str
    dotted: str
    #: ``units(result, args) -> int`` — bytes or entries moved by the call
    units: Optional[Callable[[Any, tuple], int]] = None


def _len_result(result, args) -> int:
    return len(result)


def _len_entries(result, args) -> int:
    return len(result.entries)


def _data_bytes(result, args) -> int:
    return len(args[1])          # atomic_write(path, data)


def _segment_arg_entries(result, args) -> int:
    return len(args[2].entries)  # audit_segment(self, machine, segment, ...)


def _record_stored_bytes(result, args) -> int:
    return args[1].stored_bytes  # read/stream_segment(self, record)


TARGETS: Tuple[Target, ...] = (
    # crypto
    Target("crypto.sign", "repro.crypto.rsa.RsaPrivateKey.sign"),
    Target("crypto.verify", "repro.crypto.rsa.RsaPublicKey.verify"),
    Target("crypto.verify", "repro.crypto.signatures.RsaVerifyKey.verify_many"),
    Target("crypto.keygen", "repro.crypto.rsa.generate_keypair"),
    # log
    Target("log.append", "repro.log.tamper_evident.TamperEvidentLog.append"),
    Target("log.encode", "repro.log.codec.JsonBz2Codec.encode_segment", _len_result),
    Target("log.encode", "repro.log.codec.BinaryCodec.encode_segment", _len_result),
    Target("log.encode", "repro.log.codec.TypedCodec.encode_segment", _len_result),
    Target("log.decode", "repro.log.codec.JsonBz2Codec.decode_segment", _len_entries),
    Target("log.decode", "repro.log.codec.BinaryCodec.decode_segment", _len_entries),
    Target("log.decode", "repro.log.codec.TypedCodec.decode_segment", _len_entries),
    Target("log.decode", "repro.log.codec.SegmentStreamDecoder.entries"),
    Target("log.chain_verify", "repro.log.hashchain.verify_chain_incremental"),
    Target("log.chain_verify", "repro.log.hashchain.extend_checkpoint_batch"),
    Target("log.auth_verify", "repro.log.authenticator.batch_verify_authenticators"),
    # vm
    Target("vm.exec", "repro.vm.machine.VirtualMachine.deliver_event"),
    Target("vm.snapshot", "repro.vm.snapshot.SnapshotManager.take"),
    # avmm
    Target("avmm.deliver", "repro.avmm.monitor.AccountableVMM.deliver_event"),
    Target("avmm.net_in", "repro.avmm.monitor.AccountableVMM.on_network_message"),
    Target("avmm.snapshot", "repro.avmm.monitor.AccountableVMM.take_snapshot"),
    Target("avmm.ship", "repro.avmm.monitor.AccountableVMM.ship_archive_tail"),
    Target("avmm.replay", "repro.avmm.replayer.DeterministicReplayer.replay"),
    # network
    Target("network.send", "repro.network.simnet.SimulatedNetwork.send"),
    Target("network.wire_size", "repro.network.message.NetworkMessage.wire_size"),
    # sim
    Target("sim.run", "repro.sim.scheduler.Scheduler.run_until"),
    # service
    Target("service.ingest", "repro.service.ingest.AuditIngestService.on_message"),
    # store
    Target("store.write", "repro.store.archive.LogArchive.append_segment"),
    Target("store.write", "repro.store.archive.LogArchive.store_snapshot"),
    Target("store.write", "repro.store.archive.LogArchive.store_snapshot_delta"),
    Target("store.write", "repro.store.archive.LogArchive.store_authenticators"),
    Target("store.file_write", "repro.store.manifest.atomic_write", _data_bytes),
    Target("store.fsync", "os.fsync"),
    Target("store.read", "repro.store.archive.LogArchive.stream_segment",
           _record_stored_bytes),
    Target("store.read", "repro.store.archive.LogArchive.read_segment",
           _record_stored_bytes),
    Target("store.read", "repro.store.archive.LogArchive.authenticators_for"),
    Target("store.read", "repro.store.archive.LogArchive.load_snapshot"),
    # audit
    Target("audit.run", "repro.audit.auditor.Auditor.audit"),
    Target("audit.segment", "repro.audit.auditor.Auditor.audit_segment",
           _segment_arg_entries),
    Target("audit.crosscheck", "repro.audit.syntactic.SyntacticChecker.check"),
    Target("audit.crosscheck", "repro.audit.stream.StreamingCrossChecker.feed"),
    Target("audit.crosscheck", "repro.audit.stream.StreamingCrossChecker.finish"),
    Target("audit.evidence_verify", "repro.audit.evidence.Evidence.verify"),
)


class Total:
    """Accumulated work of one span name within one phase."""

    __slots__ = ("calls", "self_s", "total_s", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.units = 0


class Tracer:
    """In-memory span stack; totals per (phase, span name)."""

    def __init__(self) -> None:
        #: open spans: [name, start, seconds covered by children, id, request]
        self.stack: List[list] = []
        self.totals: Dict[Tuple[str, str], Total] = {}
        #: closed spans: (id, parent id, phase, name, start, end, request)
        self.spans: List[tuple] = []
        self.phase = "setup"
        #: ``request_of(args) -> id or None``; a span without its own id
        #: inherits its parent's, so one request shares one identifier
        self.request_of: Optional[Callable[[tuple], Optional[str]]] = None
        self._next_id = 0
        self.missing: List[str] = []

    # -- the span stack ------------------------------------------------------

    def push(self, name: str, args: tuple = ()) -> list:
        request = self.request_of(args) if self.request_of and args else None
        if request is None and self.stack:
            request = self.stack[-1][4]
        self._next_id += 1
        frame = [name, 0.0, 0.0, self._next_id, request]
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def pop(self, units: int = 0, record: bool = True) -> float:
        end = perf_counter()
        name, start, child_s, span_id, request = self.stack.pop()
        duration = end - start
        total = self.totals.get((self.phase, name))
        if total is None:
            total = self.totals[(self.phase, name)] = Total()
        total.calls += 1
        total.self_s += duration - child_s
        total.total_s += duration
        total.units += units
        parent = 0
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][3]
        if record:
            self.spans.append((span_id, parent, self.phase, name, start, end,
                               request))
        return duration

    # -- read-out ------------------------------------------------------------

    def total(self, phase: str, span: str) -> Total:
        return self.totals.get((phase, span), Total())

    def self_seconds(self, phase: str) -> float:
        """Sum of self times of every span closed during ``phase``."""
        return sum(total.self_s for (p, _), total in self.totals.items()
                   if p == phase)

    def write_spans(self, path) -> int:
        """Write the closed spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, phase, name, start, end, request in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "phase": phase,
                     "name": name, "start": start, "end": end,
                     "request": request}, separators=(",", ":")) + "\n")
        return len(self.spans)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _wrap_function(tracer: Tracer, target: Target, func: Callable) -> Callable:
    name, units = target.span, target.units

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        tracer.push(name, args)
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            tracer.pop(units(result, args) if units and result is not None
                       else 0)
    return wrapper


def _wrap_generator(tracer: Tracer, target: Target, func: Callable) -> Callable:
    """Time only what happens inside ``next()``; one span per generator.

    While the consumer holds an item the producer is not running, so each
    step is its own stack frame (children and self time come out right) but
    the span list gets a single record covering first step to exhaustion.
    Units are the items yielded, or ``units(None, args)`` once if given.
    """
    name, units = target.span, target.units

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        iterator = func(*args, **kwargs)
        record = None
        step_units = units(None, args) if units else 1
        try:
            while True:
                frame = tracer.push(name)
                if record is None:
                    parent = tracer.stack[-2][3] if len(tracer.stack) > 1 else 0
                    record = [frame[3], parent, tracer.phase, name, frame[1],
                              frame[1], frame[4]]
                try:
                    item = next(iterator)
                except StopIteration:
                    step_units = 0
                    return
                finally:
                    tracer.pop(step_units, record=False)
                    record[5] = perf_counter()
                    if units:
                        step_units = 0
                yield item
        finally:
            iterator.close()
            if record is not None:
                tracer.spans.append(tuple(record))
    return wrapper


def _resolve(dotted: str):
    """``(owner, attribute name, raw attribute)`` for a dotted target name."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for part in parts[split:-1]:
            owner = getattr(owner, part)
        attribute = parts[-1]
        raw = (inspect.getattr_static(owner, attribute)
               if inspect.isclass(owner) else getattr(owner, attribute))
        return owner, attribute, raw
    raise ImportError(dotted)


def install(tracer: Tracer) -> List[Tuple[Any, str, Any]]:
    """Replace every resolvable target with its timing wrapper.

    Module-level functions are also rebound in every loaded ``repro.*``
    module that imported them by name, so ``from x import f`` call sites are
    timed too.  Call after the library packages are imported and before any
    object that binds a target method (a monitor, a network) is built.
    Returns ``(owner, attribute, original)`` for :func:`installed` to undo.
    """
    replaced: List[Tuple[Any, str, Any]] = []
    for target in TARGETS:
        try:
            owner, attribute, raw = _resolve(target.dotted)
        except (ImportError, AttributeError):
            if target.dotted not in tracer.missing:
                tracer.missing.append(target.dotted)
                print(f"bench.trace: warning: wrap target {target.dotted} "
                      f"not found; span {target.span} will miss it",
                      file=sys.stderr)
            continue
        kind = type(raw)
        func = raw.__func__ if kind in (classmethod, staticmethod) else raw
        wrap = (_wrap_generator if inspect.isgeneratorfunction(func)
                else _wrap_function)
        wrapped = wrap(tracer, target, func)
        if kind in (classmethod, staticmethod):
            wrapped = kind(wrapped)
        setattr(owner, attribute, wrapped)
        replaced.append((owner, attribute, raw))
        if inspect.ismodule(owner):
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro"):
                    for alias, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, alias, wrapped)
                            replaced.append((module, alias, raw))
    return replaced


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """The wrappers of :func:`install`, for the duration of the block."""
    replaced = install(tracer)
    try:
        yield
    finally:
        for owner, attribute, raw in reversed(replaced):
            setattr(owner, attribute, raw)
