"""Run census: which definitions in ``src/`` does a paper run enter, and
which of their options does it set?

The paper's claims are checked by a fixed set of runs (:data:`RUNS`): the
table 1, fig. 3-9 and section 6.5-6.7 experiments, the adversary matrix (full
grid, and the smoke subset as JSON), the examples and the four workloads of
the benchmark of record, untraced and traced.  Each run is a child
interpreter under ``sys.setprofile`` and ``threading.setprofile``; a process
pool's workers are forked with the profiler already installed, and every
process appends what it enters to a file of its own, so a function that only
a worker runs counts as entered.

A function, method or nested function under ``src/repro/`` that no run
enters is *never entered* (a method that only raises
``NotImplementedError`` has nothing to run, and is not listed while code
outside ``tests/`` names it).  It is deleted, moved into ``tests/``, or
named in :data:`KEPT`, the one table of exceptions, with one of the
reasons below; what a kept definition calls in its own module is kept with
it.  Where a reason can be checked, it is: a wrap target is in
``bench/trace.py``'s table, a documented entry point is named as code by
the ``docs/`` file its note cites, an accessor is read-only and at most
five lines, an abstract method is empty or overrides one that is.  A kept
entry that some run does enter, that is gone, or that another kept entry
already keeps, is stale.  A class with no ``def`` of its own runs no code
the profiler could see, so :func:`unnamed_classes` checks it by name: code
outside ``tests/`` must name it.  This is the one guard on "``src/`` keeps
only what runs", and it sees what actually runs: a definition used only by
tests, named only by a string, or sharing its name with a live method of
another class is found.

Options are counted the same way.  An option is a parameter with a default
of a ``def`` under ``src/repro/``, or a field with a default of an option
record (:data:`OPTION_RECORD`: ``AvmmConfig``, ``LinkSpec`` and the
``*Settings`` dataclasses, whose generated ``__init__`` the profiler finds
through the instance it builds).  The first
call in any process that passes an option a value other than its default
(an equal value does not count) sets it.  An option of an entered definition
that no run sets is *unset*: it becomes a constant, or is named in
:data:`KEPT` too, with a reason the check verifies — ``bench/`` passes it
(its calls must keep working), a deployment identity or path (the
parameter's name says which), or a failure branch a test drives (a test
passes it).  A call passes an option only if :func:`passed_by` resolves it
to the option's own function, class or method.

    python tests/run_census.py            # list never-entered definitions
                                          # and unset options
    python tests/run_census.py --check    # fail on an unexplained or stale one
    python tests/run_census.py --only table1 --only example:quickstart

The full census takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import gc
import importlib
import inspect
import os
import re
import runpy
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import types
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


def _experiment(module: str, **kwargs) -> List[str]:
    call = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    return ["-c", f"from repro.experiments.{module} import main; main({call})"]


#: every run the paper's numbers come from, at the short durations
#: ``tests/test_experiments.py`` uses; each is a child interpreter's arguments
RUNS: Dict[str, List[str]] = {
    "table1": _experiment("table1", duration=6.0),
    "fig3_log_growth": _experiment("fig3_log_growth", duration=20.0),
    "fig4_log_content": _experiment("fig4_log_content", duration=20.0),
    "fig5_latency": _experiment("fig5_latency", pings=10),
    "fig6_cpu": _experiment("fig6_cpu", duration=8.0),
    "fig7_frame_rate": _experiment("fig7_frame_rate", duration=8.0),
    "fig8_online_audit": _experiment("fig8_online_audit", duration=20.0),
    # 11 segments, as the paper's 300 s run has, so every k of K_VALUES up
    # to 9 is checked and a spot check's range spans several segments (not
    # the default itself, which would leave ``duration`` unset)
    "fig9_spot_check": _experiment("fig9_spot_check", duration=320.0),
    "sec65_frame_cap": _experiment("sec65_frame_cap", duration=3.0),
    "sec66_audit_cost": _experiment("sec66_audit_cost", duration=10.0),
    "sec67_traffic": _experiment("sec67_traffic", duration=10.0),
    "adversary_matrix": ["-m", "repro.experiments.adversary_matrix"],
    "adversary_matrix:smoke-json": ["-m", "repro.experiments.adversary_matrix",
                                    "--smoke", "--json"],
    **{f"example:{path.stem}": [str(path.relative_to(ROOT))]
       for path in sorted((ROOT / "examples").glob("*.py"))},
    **{f"bench:{workload}:trace{trace}":
       ["bench/run.py", "--workload", workload, "--seed", "42",
        "--seconds", "1", "--scale", "0.05", "--trace", str(trace)]
       for workload in ("web_honest", "web_cheat", "db_fat", "game_lan")
       for trace in (0, 1)},
}

# -- the reasons a never-entered definition or an unset option may stay ------

#: named in ``bench/trace.py``'s wrap table (``tests/test_wrap_targets.py``
#: pins that every name there resolves)
WRAPPED = "a bench/trace.py wrap target"
#: an entry point a ``docs/`` file documents: the note starts with
#: ``docs/<file>.md``, and that file names the definition as code, in
#: backticks
DOCUMENTED = "a documented entry point"
#: a read-only accessor of at most five lines, which tests read running code
#: through
ACCESSOR = "a read-only accessor tests use to observe code that runs"
#: a protocol method with no body of its own (it is empty; one that only
#: raises ``NotImplementedError`` is listed only when nothing names it), or
#: a class's implementation of one
ABSTRACT = "an abstract protocol method"
#: what a failure, a crash recovery or hostile input takes, which no honest
#: seeded run does; the matrix, the fuzzers and the crash matrix are its users
FAILURE = "a failure, recovery or hostile-input branch"
#: the plain form of an optimised path, which tests compare it against
REFERENCE = "a reference implementation tests compare against"
#: (an option) ``bench/`` passes it, and ``bench/`` is the benchmark's: its
#: calls must keep working unedited
BENCH_CALLER = "bench/ passes it by name or position"
#: (an option) where a deployment puts a machine, or what it calls it
DEPLOYMENT = "a deployment identity or path"

#: what an option may be kept for (for FAILURE, a test passes it)
OPTION_REASONS = (BENCH_CALLER, DEPLOYMENT, FAILURE)
REASONS = (WRAPPED, DOCUMENTED, ACCESSOR, ABSTRACT, REFERENCE, *OPTION_REASONS)

#: the words a deployment identity's or path's parameter name is made of
IDENTITY_WORDS = {"path", "root", "dir", "name", "identity", "address", "host", "port"}

#: the one table of exceptions: never-entered definitions and unset options
#: that stay, key -> (reason, what it is for).  What a kept definition calls
#: is kept with it (:func:`kept_with`), and needs no entry of its own.
KEPT: Dict[str, Tuple[str, str]] = {
    # -- bench/trace.py's wrap table
    "repro.store.archive:LogArchive.store_snapshot": (
        WRAPPED, "archives a full snapshot; shipments carry deltas"),
    # -- documented entry points
    "repro.service.ingest:AuditIngestService.audit_pending": (
        DOCUMENTED, "docs/log-archive.md — drains the audit queue in one fleet call"),
    "repro.store.archive:LogArchive.reencode_segments": (
        DOCUMENTED, "docs/log-format.md — the v1 -> v3 archive migration; "
        "also keeps read_segment (a bench/trace.py wrap target, which a "
        "range of an archived log and a spot check's price read through)"),
    "repro.vm.snapshot:SnapshotManager.resident_bytes": (
        DOCUMENTED, "docs/snapshots.md — the snapshot manager's memory bound"),
    "repro.vm.snapshot:IncrementalSnapshot.as_keyframe": (
        DOCUMENTED, "docs/snapshots.md — the one way a delta becomes a "
        "keyframe: a shipped keyframe after the first, a fresh archive's "
        "first snapshot, a GC boundary; no paper run ships 17 snapshots or "
        "truncates a delta boundary"),
    # -- accessors
    "repro.audit.engine:pool_starts_total": (ACCESSOR, "pool warmth"),
    "repro.audit.online:OnlineAuditor.fault_detected": (ACCESSOR, "detection flag"),
    "repro.avmm.monitor:AccountableVMM.shipped_through": (ACCESSOR, "shipping progress"),
    "repro.log.entries:content_materializations_total": (ACCESSOR, "lazy-decode counter"),
    "repro.log.hashchain:verify_entry": (ACCESSOR, "one entry's link"),
    "repro.log.tamper_evident:TamperEvidentLog.head_hash": (ACCESSOR, "chain head"),
    "repro.metrics.latency:LatencyRecorder.unmatched_received": (
        ACCESSOR, "stray replies"),
    "repro.network.channel:ReliableChannel.gave_up_on": (ACCESSOR, "abandoned sends"),
    "repro.network.channel:ReliableChannel.retransmissions": (
        ACCESSOR, "retransmission count"),
    "repro.network.channel:ReliableChannel.unacknowledged": (ACCESSOR, "pending sends"),
    "repro.service.ingest:AuditIngestService.pending_segments": (
        ACCESSOR, "one machine's queue depth"),
    "repro.service.ingest:AuditIngestService.quarantined_machines": (
        ACCESSOR, "who was quarantined"),
    "repro.store.archive:ArchiveSnapshotStore.snapshot_ids": (
        ACCESSOR, "which snapshots an archive holds"),
    "repro.sim.clock:HostClock.reads": (ACCESSOR, "clock-read count"),
    "repro.vm.devices:VirtualDisk.writes": (ACCESSOR, "disk-write count"),
    # -- protocol methods
    "repro.vm.guest:GuestProgram.on_start": (ABSTRACT, "a guest's boot hook"),
    "repro.workloads.echo:EchoGuest.get_state": (
        ABSTRACT, "the echo guest's snapshot state (fig. 5 takes none)"),
    "repro.workloads.echo:EchoGuest.set_state": (ABSTRACT, "its restore"),
    "repro.workloads.echo:PingSenderGuest.get_state": (
        ABSTRACT, "the ping guest's snapshot state (fig. 5 takes none)"),
    "repro.workloads.echo:PingSenderGuest.set_state": (ABSTRACT, "its restore"),
    # -- failure, recovery and hostile input
    "repro.adversary.matrix:CellOutcome.describe": (
        FAILURE, "the matrix prints a cell whose expectation was not met, "
        "by its label"),
    "repro.audit.syntactic:SyntacticReport.add": (
        FAILURE, "records a syntactic problem (a log whose messages do not "
        "pair); no paper run's first failing chunk fails at this step"),
    "repro.audit.engine:_ChunkRun._rebuild": (
        FAILURE, "a worker process died: resubmit on a new pool"),
    "repro.log.codec:_noncanonical": (
        FAILURE, "a v1 blob not in the writer's layout"),
    "repro.log.entries:_unpack_row_body": (
        FAILURE, "parses generic-row content from untrusted v3 bytes, value "
        "by value; no paper run reads such an entry's content"),
    "repro.service.ingest:QuarantinedShipment.from_dict": (
        FAILURE, "the quarantine reloaded after a restart"),
    "repro.store.archive:LogArchive._abandon": (
        FAILURE, "a shipment group that failed half way"),
    "repro.store.manifest:read_frames.refused": (FAILURE, "a corrupt frame file"),
    "repro.vm.machine:NondeterminismSource.upstream_call": (
        FAILURE, "a guest's upstream call with no backend"),
    "repro.vm.snapshot:IncrementalSnapshot.from_bytes.refused": (
        FAILURE, "a corrupt page file"),
    "repro.workloads.webservice:WebServiceGuest._handle_not_found": (
        FAILURE, "a request for a route the service does not have"),
    # -- reference implementations
    "repro.service.target:ArchiveBackedMachine.get_log_segment": (
        REFERENCE, "an archived log materialized whole (tests/archive_tools."
        "archived_log), which the streamed chunks are compared against"),
    "repro.log.entries:recv_content": (
        REFERENCE, "the RECV content dict encode_recv_content must match byte "
        "for byte (docs/message-protocol.md)"),
    # -- options bench/ passes
    "repro.crypto.keys:CertificateAuthority.__init__(scheme)": (
        BENCH_CALLER, "the CA's signature scheme"),
    "repro.game.bots:ScriptedPlayer.__init__(actions_per_second)": (
        BENCH_CALLER, "how often the bot acts"),
    "repro.game.bots:ScriptedPlayer.start(delay)": (
        BENCH_CALLER, "when the bot starts acting"),
    "repro.log.codec:encode_segment(format_version)": (
        BENCH_CALLER, "the codec a segment is written in"),
    "repro.workloads.sqlbench:SqlBenchSettings(tick_interval)": (
        BENCH_CALLER, "seconds between the client's ticks"),
    # -- options that are deployment identities
    "repro.adversary.guests:make_cheating_kvserver_image(name)": (
        DEPLOYMENT, "the image's name"),
    "repro.adversary.guests:make_cheating_webservice_image(name)": (
        DEPLOYMENT, "the image's name"),
    "repro.crypto.keys:CertificateAuthority.__init__(identity)": (
        DEPLOYMENT, "the CA's identity"),
    "repro.game.images:make_client_image(name)": (DEPLOYMENT, "the image's name"),
    "repro.game.images:make_server_image(name)": (DEPLOYMENT, "the image's name"),
    "repro.service.fleet:AuditFleet.make_auditor(identity)": (
        DEPLOYMENT, "who audits"),
    "repro.service.fleet:build_fleet(ingest_identity)": (
        DEPLOYMENT, "the ingest service's network identity"),
    "repro.service.ingest:AuditIngestService.__init__(identity)": (
        DEPLOYMENT, "the ingest service's network identity"),
    "repro.workloads.echo:make_echo_image(name)": (DEPLOYMENT, "the image's name"),
    "repro.workloads.echo:make_ping_sender_image(name)": (
        DEPLOYMENT, "the image's name"),
    "repro.workloads.kvstore:make_kvserver_image(name)": (DEPLOYMENT, "the image's name"),
    "repro.workloads.sqlbench:make_sqlbench_image(name)": (DEPLOYMENT, "the image's name"),
    "repro.workloads.webservice:make_webclient_image(name)": (
        DEPLOYMENT, "the image's name"),
    "repro.workloads.webservice:make_webservice_image(name)": (
        DEPLOYMENT, "the image's name"),
    # -- options that failure, recovery or hostile-input branches take
    "repro.network.channel:ReliableChannel.__init__(max_retransmits)": (
        FAILURE, "how soon a sender gives up on a silent peer"),
    "repro.network.channel:ReliableChannel.__init__(retransmit_interval)": (
        FAILURE, "how soon a sender retransmits"),
    "repro.network.simnet:LinkSpec(loss_rate)": (FAILURE, "a lossy link"),
    "repro.network.simnet:SimulatedNetwork.__init__(default_link)": (
        FAILURE, "the lossy link a network is built with"),
    "repro.store.archive:LogArchive.__init__(deep_verify)": (
        FAILURE, "decodes every segment at open and re-verifies its chain; "
        "the crash matrix reopens with it after every kill"),
}


# ---------------------------------------------------------------------------
# Tracing one run (the child side)
# ---------------------------------------------------------------------------

def install_profiler(out_dir: Path, prefix: str) -> None:
    """Record every code object under ``prefix`` that this process, its
    threads and its forked children enter, one line per first entry, into
    ``out_dir/<pid>.txt``.  Lines go out with one ``os.write`` each, so a
    child forked at any moment, or ended by ``os._exit``, loses nothing.

    For each option (:func:`option_sites`), the first call that passes it a
    value other than its default records ``=\t<option>`` in the same file."""
    seen: Set[object] = set()
    files: Dict[int, int] = {}
    defs, records = option_sites(Path(prefix))
    #: code object -> [(option, parameter, default)] not yet seen set
    watched: Dict[object, List[Tuple[str, str, object]]] = {}

    def write(line: str) -> None:
        pid = os.getpid()
        fd = files.get(pid)
        if fd is None:
            fd = files[pid] = os.open(out_dir / f"{pid}.txt",
                                      os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, line.encode())

    def first_call(frame, code) -> None:
        if code.co_filename.startswith(prefix):
            write(f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}\n")
            site = defs.get((code.co_filename, code.co_firstlineno, code.co_name))
            if site is not None:
                key, params = site
                watch(code, key, _function_of(code, frame.f_globals, key), params)
        elif code.co_filename == "<string>" and code.co_name == "__init__" and records:
            # a dataclass's generated __init__: find the record it builds
            for cls in type(frame.f_locals.get("self")).__mro__:
                init = cls.__dict__.get("__init__")
                key = f"{cls.__module__}:{cls.__qualname__}"
                if getattr(init, "__code__", None) is code and key in records:
                    factories = {f.name: f.default_factory for f in fields(cls)}
                    watch(code, key, init, None, factories)
                    break

    def watch(code, key, function, params, factories=None) -> None:
        if function is None:
            return
        names = code.co_varnames
        positional = names[:code.co_argcount]
        defaults = dict(zip(positional[len(positional) - len(function.__defaults__ or ()):],
                            function.__defaults__ or ()))
        defaults.update(function.__kwdefaults__ or {})
        pending = []
        for name, default in defaults.items():
            if params is not None and name not in params:
                continue
            if factories and factories.get(name, MISSING) is not MISSING:
                default = factories[name]()
            pending.append((f"{key}({name})", name, default))
        if pending:
            watched[code] = pending

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                first_call(frame, code)
            pending = watched.get(code)
            if pending is not None:
                values = frame.f_locals
                # another thread may set the same option at once: a line
                # written twice is harmless, a failed remove is ignored
                for option in [o for o in pending if not _same(values[o[1]], o[2])]:
                    write(f"=\t{option[0]}\n")
                    with contextlib.suppress(ValueError):
                        pending.remove(option)
                if not pending:
                    watched.pop(code, None)

    threading.setprofile(profile)
    sys.setprofile(profile)


def _same(value, default) -> bool:
    """Whether ``value`` leaves an option at its default: an equal value
    does (``3`` for ``3.0``), a bool for a number does not."""
    if value is default:
        return True
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    try:
        return bool(value == default)
    except Exception:   # an __eq__ that refuses: a different value
        return False


def _function_of(code, module_globals, key: str):
    """The function object whose code ``code`` is: by its qualified name
    in its module, or else by what refers to the code object."""
    target: object = module_globals
    for part in key.split(":")[1].split("."):
        space = target if isinstance(target, dict) else getattr(target, "__dict__", {})
        target = space.get(part)
        for unwrap in ("__func__", "fget", "__wrapped__"):
            target = getattr(target, unwrap, target)
    if getattr(target, "__code__", None) is code:
        return target
    return next((ref for ref in gc.get_referrers(code)
                 if isinstance(ref, types.FunctionType) and ref.__code__ is code), None)


def trace_run(out_dir: Path, prefix: str, argv: Sequence[str]) -> None:
    """Run ``python argv...`` in this process under the profiler."""
    install_profiler(out_dir, prefix)
    if argv[0] == "-c":
        sys.argv = ["-c", *argv[2:]]
        exec(compile(argv[1], "<census>", "exec"), {"__name__": "__main__"})
    elif argv[0] == "-m":
        sys.argv = [argv[1], *argv[2:]]
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(argv)
        sys.path.insert(0, str(Path(argv[0]).resolve().parent))
        try:
            runpy.run_path(argv[0], run_name="__main__")
        except SystemExit as exc:
            if exc.code:
                raise


# ---------------------------------------------------------------------------
# Running the census (the parent side)
# ---------------------------------------------------------------------------

Entered = Set[Tuple[str, int, str]]


@dataclass
class Census:
    #: ``(file, first line, name)`` of every code object a run entered
    entered: Entered
    #: every option (:attr:`Option.key`) some call set to a value other
    #: than its default
    options_set: Set[str]


def run_census(runs: Dict[str, List[str]], package: Path = PACKAGE,
               path: Sequence[Path] = (SRC,), cwd: Path = ROOT,
               timeout: float = 1800.0) -> Census:
    """What the runs enter and which options they set, in any of their
    processes, under ``package``."""
    census = Census(set(), set())
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join(
               [*map(str, path), os.environ.get("PYTHONPATH", "")])}
    for name, argv in runs.items():
        started = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="census-") as out:
            result = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--trace", out,
                 "--prefix", str(package.resolve()), "--", *argv],
                cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout)
            if result.returncode:
                raise RuntimeError(f"census run {name!r} failed "
                                   f"({result.returncode}):\n{result.stderr}")
            for part in Path(out).glob("*.txt"):
                for line in part.read_text().splitlines():
                    fields_ = line.split("\t")
                    if fields_[0] == "=":
                        census.options_set.add(fields_[1])
                    else:
                        census.entered.add((fields_[0], int(fields_[1]), fields_[2]))
        print(f"census: {name} {time.perf_counter() - started:.1f} s",
              file=sys.stderr)
    return census


@dataclass(eq=False)
class Definition:
    """One ``def`` (or class) under the package: its key, node and
    code-object match."""

    key: str
    filename: str
    node: ast.AST
    parent: Optional["Definition"] = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def lines(self) -> int:
        return self.node.end_lineno - self.node.lineno + 1

    @property
    def code_key(self) -> Tuple[str, int, str]:
        # a code object's first line is its first decorator's
        first = min([self.node.lineno] + [d.lineno for d in self.node.decorator_list])
        return self.filename, first, self.node.name


@functools.lru_cache(maxsize=None)
def _parsed(path: Path) -> ast.Module:
    """A source file's syntax tree, parsed once per process."""
    return ast.parse(path.read_text())


def _modules(package: Path) -> List[Tuple[Path, str]]:
    """Every source file under ``package``, with its module name."""
    base = package.resolve().parent
    found = []
    for path in sorted(package.resolve().rglob("*.py")):
        parts = path.relative_to(base).with_suffix("").parts
        found.append((path, ".".join(parts[:-1] if parts[-1] == "__init__" else parts)))
    return found


def definitions(package: Path = PACKAGE) -> List[Definition]:
    """Every function, method and nested function under ``package``."""
    found: List[Definition] = []

    def visit(node, filename, module, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, filename, module, f"{prefix}{child.name}.", parent)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definition = Definition(f"{module}:{prefix}{child.name}", filename,
                                        child, parent)
                found.append(definition)
                visit(child, filename, module, f"{prefix}{child.name}.", definition)
            else:
                visit(child, filename, module, prefix, parent)

    for path, module in _modules(package):
        visit(_parsed(path), str(path), module, "", None)
    return found


def names_used(package: Path = PACKAGE, users: Sequence[Path] = (
        ROOT / "bench", ROOT / "examples")) -> Set[str]:
    """Every name an expression in ``package`` or ``users`` (their tests
    excluded) uses, as a variable or an attribute: an import, an
    ``__all__`` entry or a string names nothing, and neither does a test."""
    files = [path for path, _ in _modules(package)] + [
        path for user in users for path in sorted(user.rglob("*.py"))
        if "tests" not in path.relative_to(user).parts]
    return {getattr(node, "id", None) or getattr(node, "attr", None)
            for path in files for node in ast.walk(_parsed(path))
            if isinstance(node, (ast.Name, ast.Attribute))}


def unnamed_classes(named: Set[str], package: Path = PACKAGE) -> List[Definition]:
    """Classes with no ``def`` of their own (or only abstract ones) whose
    name is not in ``named`` (:func:`names_used`).

    Such a class (an exception, an enum, a dataclass of fields only) runs no
    code the profiler could see entered, so it is checked by name.  This is
    a static scan: a name used by a never-entered definition counts until
    that definition goes."""
    found: List[Definition] = []
    for path, module in _modules(package):
        todo = [(node, "") for node in _parsed(path).body]
        while todo:
            node, prefix = todo.pop()
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in named and not any(
                    isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not _abstract(child) for child in node.body):
                found.append(Definition(f"{module}:{prefix}{node.name}", str(path), node))
            todo.extend((child, f"{prefix}{node.name}.") for child in node.body)
    return sorted(found, key=lambda d: d.key)


#: the option records: every field with a default is an option
OPTION_RECORD = re.compile(r"^(AvmmConfig|LinkSpec|\w+Settings)$")


@dataclass(frozen=True)
class Option:
    """One parameter with a default, or one option-record field."""

    #: ``<definition or record key>(<parameter>)``
    key: str
    #: the definition's or record's key
    owner: str
    param: str
    #: the index a caller passes it at positionally, or None (keyword-only)
    position: Optional[int]
    #: the definition (None for a record field)
    definition: Optional[Definition]
    #: the most arguments a call passes by position (None: ``*args``)
    max_positional: Optional[int]
    #: the names a call may pass by keyword (None: ``**kwargs``)
    keywords: Optional[FrozenSet[str]]


def _option_records(package: Path) -> List[Tuple[str, ast.ClassDef]]:
    """``(key, class node)`` of every option-record dataclass at the top
    level of a module under ``package``."""
    found = []
    for path, module in _modules(package):
        for node in _parsed(path).body:
            if (isinstance(node, ast.ClassDef) and OPTION_RECORD.match(node.name)
                    and any("dataclass" in ast.unparse(d) for d in node.decorator_list)):
                found.append((f"{module}:{node.name}", node))
    return found


def options(defs: List[Definition], package: Path = PACKAGE) -> List[Option]:
    """Every option under ``package``: each parameter with a default of a
    ``def``, and each field with a default of an option record."""
    found: List[Option] = []
    for d in defs:
        args = d.node.args
        positional = [*args.posonlyargs, *args.args]
        skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
        most = None if args.vararg else len(positional) - skip
        names = None if args.kwarg else frozenset(
            a.arg for a in [*args.args, *args.kwonlyargs]
            if not (skip and a is positional[0]))
        for index, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                    len(positional) - len(args.defaults)):
            found.append(Option(f"{d.key}({arg.arg})", d.key, arg.arg,
                                index - skip, d, most, names))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append(Option(f"{d.key}({arg.arg})", d.key, arg.arg, None, d,
                                    most, names))
    for key, node in _option_records(package):
        fields_ = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                   and "ClassVar" not in ast.unparse(stmt.annotation)
                   and "init=False" not in ast.unparse(stmt.value or ast.Pass())]
        names = frozenset(stmt.target.id for stmt in fields_)
        for index, stmt in enumerate(fields_):
            if stmt.value is not None:
                found.append(Option(f"{key}({stmt.target.id})", key, stmt.target.id,
                                    index, None, len(fields_), names))
    return found


def option_sites(package: Path
                 ) -> Tuple[Dict[Tuple[str, int, str], Tuple[str, Set[str]]], Set[str]]:
    """What the profiler watches under ``package``: each ``def`` with an
    option, by code key, with its key and parameters; and the option
    records' keys."""
    defs: Dict[Tuple[str, int, str], Tuple[str, Set[str]]] = {}
    records: Set[str] = set()
    for option in options(definitions(package), package):
        if option.definition is None:
            records.add(option.owner)
        else:
            defs.setdefault(option.definition.code_key, (option.owner, set()))[1].add(
                option.param)
    return defs, records


def never_entered(defs: Iterable[Definition], entered: Entered,
                  named: Set[str]) -> List[Definition]:
    """The outermost definitions no run entered (one inside a never-entered
    definition is never entered either, and not listed again), but for a
    method that only raises ``NotImplementedError`` and whose name is in
    ``named`` (:func:`names_used`): it has nothing to run, and the code that
    names it is checked itself."""
    missed = [d for d in defs if d.code_key not in entered
              and not (d.parent is None and "." in d.key.partition(":")[2]
                       and _abstract(d.node) and d.name in named)]
    missed_set = set(missed)
    return [d for d in missed if d.parent not in missed_set]


def _statements(node) -> list:
    """A function's statements, but its docstring."""
    return [stmt for stmt in node.body
            if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))]


def _abstract(node) -> bool:
    """Whether a function only raises ``NotImplementedError``."""
    body = _statements(node)
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in ast.unparse(body[0]))


def _has_no_body(node) -> bool:
    """Whether a function is empty or abstract."""
    return all(isinstance(stmt, ast.Pass) for stmt in _statements(node)) or _abstract(node)


def _implements_a_protocol_method(definition: Definition) -> bool:
    """Whether ``definition`` overrides a base-class method that has no
    body of its own."""
    module, qualname = definition.key.split(":")
    *owner_path, name = qualname.split(".")
    if not owner_path:
        return False
    owner = importlib.import_module(module)
    for part in owner_path:
        owner = getattr(owner, part, None)
    for base in getattr(owner, "__mro__", ())[1:]:
        method = base.__dict__.get(name)
        if method is not None:
            tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
            return _has_no_body(tree.body[0])
    return False


def kept_with(missed: List[Definition], kept: Iterable[str]) -> Set[str]:
    """The keys of the never-entered definitions that the ``kept`` ones
    call, transitively: a name a kept definition calls keeps every
    never-entered definition of that name in its own module."""
    by_name: Dict[Tuple[str, str], List[Definition]] = {}
    for d in missed:
        by_name.setdefault((d.filename, d.name), []).append(d)
    todo = [d for d in missed if d.key in kept]
    reached: Set[str] = set()
    while todo:
        caller = todo.pop()
        for node in ast.walk(caller.node):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for d in by_name.pop((caller.filename, name), []):
                reached.add(d.key)
                todo.append(d)
    return reached


_DOC_REF = re.compile(r"docs/[\w.-]+\.md(?= )")


def named_as_code(text: str, name: str) -> bool:
    """Whether ``name`` appears as code in ``text``: in a fenced block or
    an inline backtick span."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    return any(word.search(span)
               for span in re.findall(r"```.*?```|`[^`\n]+`", text, re.S))


def _stores(node: ast.AST) -> bool:
    """Whether a function assigns to or deletes an attribute or an item."""
    return any(isinstance(n, (ast.Attribute, ast.Subscript))
               and isinstance(n.ctx, (ast.Store, ast.Del)) for n in ast.walk(node))


def reason_problem(item, reason: str, note: str) -> Optional[str]:
    """Why ``reason`` does not hold for ``item``, a never-entered
    :class:`Definition` or an unset :class:`Option`, or None."""
    if isinstance(item, Option):
        if reason not in OPTION_REASONS:
            return "no reason an option may stay"
        callers = {BENCH_CALLER: "bench", FAILURE: "tests"}.get(reason)
        if callers and not passed_by(item, sorted((ROOT / callers).rglob("*.py"))):
            return f"no call in {callers}/ passes {item.param}"
        if reason == DEPLOYMENT and not IDENTITY_WORDS & set(item.param.split("_")):
            return f"{item.param!r} names no identity or path"
        return None
    if reason in (BENCH_CALLER, DEPLOYMENT):
        return "no reason a definition may stay"
    if reason == WRAPPED and f'"{item.key.replace(":", ".")}"' not in (
            ROOT / "bench" / "trace.py").read_text():
        return "not in bench/trace.py's wrap table"
    if reason == DOCUMENTED:
        doc = _DOC_REF.match(note)
        if not doc:
            return "the note must start with docs/<file>.md"
        if not named_as_code((ROOT / doc[0]).read_text(), item.name):
            return f"{doc[0]} does not name {item.name} as code"
    if reason == ACCESSOR and (isinstance(item.node, ast.ClassDef) or item.lines > 5
                               or _stores(item.node)):
        return "no read-only accessor of at most 5 lines"
    if reason == ABSTRACT and (isinstance(item.node, ast.ClassDef) or not (
            _has_no_body(item.node) or _implements_a_protocol_method(item))):
        return "it has a body and overrides no bodiless protocol method"
    return None


@dataclass
class Verdict:
    #: never-entered definitions and unset options that nothing keeps
    unexplained: list
    #: kept keys some run entered or set, that name nothing found, or that
    #: another kept entry calls (and so keeps)
    stale: List[str]
    #: kept keys whose reason does not hold, with why
    unfounded: List[Tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not (self.unexplained or self.stale or self.unfounded)


def check(found: list, kept: Dict[str, Tuple[str, str]]) -> Verdict:
    """What ``kept`` leaves unexplained of ``found`` (never-entered
    definitions and unset options), which of its entries are stale, and
    which of its reasons do not hold."""
    by_key = {f.key: f for f in found}
    missed = [f for f in found if isinstance(f, Definition)]
    unfounded = []
    for key, (reason, note) in sorted(kept.items()):
        why = (f"unknown reason {reason!r}" if reason not in REASONS
               else "no note on what it is for" if not note.strip()
               else reason_problem(by_key[key], reason, note) if key in by_key else None)
        if why:
            unfounded.append((key, why))
    covered = kept_with(missed, kept)
    redundant = {key for key in kept if key in kept_with(missed, set(kept) - {key})}
    return Verdict([f for f in found if f.key not in kept and f.key not in covered],
                   sorted(key for key in kept if key not in by_key or key in redundant),
                   unfounded)


# -- options ------------------------------------------------------------------

def unset_options(defs: List[Definition], census: Census,
                  package: Path = PACKAGE) -> List[Option]:
    """The options of every entered definition and of every option record
    that no run set to a value other than their default."""
    return [o for o in options(defs, package)
            if o.key not in census.options_set
            and (o.definition is None or o.definition.code_key in census.entered)]


#: the annotations whose argument is what a loop over the value yields
COLLECTIONS = {"List", "Sequence", "Iterable", "Iterator", "Tuple", "list", "tuple"}

#: a value's static type: ``("module:Class", whether it is a collection of them)``
Type = Tuple[str, bool]


def _imports(tree: ast.Module) -> Callable[[ast.AST], Optional[str]]:
    """A resolver of the names ``tree`` imports: an expression naming an
    imported callable (``Auditor``, ``simnet.LinkSpec``) to
    ``"module:name"``, a class of its own to ``":name"``, anything else to
    None."""
    names: Dict[str, str] = {node.name: f":{node.name}" for node in tree.body
                             if isinstance(node, ast.ClassDef)}
    modules: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}:{alias.name}"
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                modules[local] = alias.name if alias.asname else local

    def resolve(expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        if isinstance(expr, ast.Attribute):
            dotted = ast.unparse(expr.value)
            head, _, rest = dotted.partition(".")
            if head in modules:
                return f"{modules[head]}{'.' + rest if rest else ''}:{expr.attr}"
        return None

    return resolve


def _annotation_type(annotation: Optional[ast.AST], resolve) -> Optional[Type]:
    """The type an annotation names: ``Auditor`` or ``List[Auditor]``."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    if isinstance(annotation, ast.Subscript):
        container = ast.unparse(annotation.value).split(".")[-1]
        inner = annotation.slice
        return ((resolve(inner), True)
                if container in COLLECTIONS and resolve(inner) else None)
    ref = resolve(annotation) if annotation is not None else None
    return (ref, False) if ref else None


def _field_types(trees: Dict[Path, ast.Module]) -> Dict[str, Dict[str, Type]]:
    """Every class's annotated attributes in ``trees``, by the class's bare
    name: the dataclass fields a call's receiver may be reached through."""
    found: Dict[str, Dict[str, Type]] = {}
    for tree in trees.values():
        resolve = _imports(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        kind = _annotation_type(stmt.annotation, resolve)
                        if kind:
                            found.setdefault(node.name, {})[stmt.target.id] = kind
    return found


def _type_of(expr: ast.AST, scope: Dict[str, Type], resolve,
             fields_: Dict[str, Dict[str, Type]]) -> Optional[Type]:
    """What ``expr`` evaluates to, where a scope's bindings say."""
    if isinstance(expr, ast.Name):
        return scope.get(expr.id)
    if isinstance(expr, ast.Call):
        ref = resolve(expr.func)
        return (ref, False) if ref else None
    if isinstance(expr, ast.Attribute):
        owner = _type_of(expr.value, scope, resolve, fields_)
        if owner and not owner[1]:
            return fields_.get(owner[0].split(":")[-1], {}).get(expr.attr)
    return None


def _own_nodes(function: ast.AST) -> List[ast.AST]:
    """The nodes of a function's (or module's) body, but not those of the
    functions defined in it."""
    found, todo = [], list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        found.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def _scope(function: ast.AST, resolve, fields_,
           outer: Optional[Dict[str, Type]] = None) -> Dict[str, Type]:
    """The types a function's (or module's) names are bound to, on top of
    the module's (``outer``): annotated parameters and assignments, calls of
    an imported callable, and loops over a collection (flow-insensitive: a
    name bound twice keeps one)."""
    scope: Dict[str, Type] = dict(outer or {})
    if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for arg in [*function.args.args, *function.args.kwonlyargs]:
            kind = _annotation_type(arg.annotation, resolve)
            if kind:
                scope[arg.arg] = kind
    for _ in range(2):    # a loop may range over a name bound further down
        for node in _own_nodes(function):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                kind = _annotation_type(node.annotation, resolve)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                kind = _type_of(node.value, scope, resolve, fields_)
            elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                kind = _type_of(node.iter, scope, resolve, fields_)
                kind = (kind[0], False) if kind and kind[1] else None
            else:
                continue
            name = getattr(node, "target", None) or node.targets[0]
            if kind:
                scope[name.id] = kind
    return scope


def _names(ref: Optional[str], module: str, name: str) -> bool:
    """Whether an imported ``"module:name"`` is ``name`` of ``module``, or a
    package above it that re-exports it."""
    if ref is None:
        return False
    where, _, what = ref.partition(":")
    return what == name and (module == where or module.startswith(where + "."))


def _calls_it(call: ast.Call, option: Option, scope, resolve, fields_) -> bool:
    """Whether ``call`` calls the option's function, class or method."""
    module, _, qualname = option.owner.partition(":")
    if option.definition is not None and option.definition.parent is not None:
        return False                      # a nested function: no caller outside
    owner, _, method = qualname.partition(".")
    if not method or method == "__init__":
        return _names(resolve(call.func), module, owner)
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == method):
        return False
    receiver = call.func.value
    kind = _type_of(receiver, scope, resolve, fields_)
    return (_names(resolve(receiver), module, owner)
            or (kind is not None and not kind[1] and _names(kind[0], module, owner)))


@functools.lru_cache(maxsize=None)
def _typed_calls(sources: Tuple[Path, ...]) -> List[tuple]:
    """Every call in ``sources``, with the bindings of the function it is in,
    its file's import resolver and the field types; built once per set of
    sources."""
    trees = {path: _parsed(path) for path in sources}
    fields_ = _field_types(trees)
    found = []
    for tree in trees.values():
        resolve = _imports(tree)
        module_scope = _scope(tree, resolve, fields_)
        found.extend((node, module_scope, resolve, fields_)
                     for node in _own_nodes(tree) if isinstance(node, ast.Call))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = _scope(function, resolve, fields_, module_scope)
                found.extend((node, scope, resolve, fields_)
                             for node in _own_nodes(function)
                             if isinstance(node, ast.Call))
    return found


def passed_by(option: Option, sources: Iterable[Path]) -> bool:
    """Whether some call in ``sources`` passes the option, by keyword or by
    position.  The call must be to the option's own function or class (an
    imported name, from its module or a package above it) or, for a
    method, on a receiver the file types as an instance of the class; and
    its arguments must fit the signature.  A same-named method of another
    class does not count."""
    for call, scope, resolve, fields_ in _typed_calls(tuple(sources)):
        if any(isinstance(a, ast.Starred) for a in call.args) \
                or not _calls_it(call, option, scope, resolve, fields_):
            continue
        if option.max_positional is not None and len(call.args) > option.max_positional:
            continue
        if option.keywords is not None and any(
                k.arg is not None and k.arg not in option.keywords for k in call.keywords):
            continue
        if any(k.arg == option.param for k in call.keywords) \
                or (option.position is not None and len(call.args) > option.position):
            return True
    return False


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unexplained never-entered definition or "
                             "unset option, a stale kept entry or a reason that "
                             "does not hold")
    parser.add_argument("--only", action="append", choices=sorted(RUNS),
                        help="run only these (listing mode; --check needs all)")
    parser.add_argument("--trace", help=argparse.SUPPRESS)
    parser.add_argument("--prefix", help=argparse.SUPPRESS)
    args, rest = parser.parse_known_args(argv)
    if args.trace:
        trace_run(Path(args.trace), args.prefix, rest[1:] if rest[:1] == ["--"] else rest)
        return 0
    if args.check and args.only:
        parser.error("--check runs every run")

    runs = {name: RUNS[name] for name in args.only} if args.only else RUNS
    sys.path.insert(0, str(SRC))   # the reason checks import what they keep
    defs = definitions()
    census = run_census(runs)
    named = names_used()
    missed = never_entered(defs, census.entered, named) + unnamed_classes(named)
    unset = unset_options(defs, census)
    verdict = check(missed + unset, KEPT)
    covered = kept_with(missed, KEPT)
    for d in sorted(missed, key=lambda d: d.key):
        mark = (f"  [kept: {KEPT[d.key][0]}]" if d.key in KEPT
                else "  [kept with a kept entry]" if d.key in covered else "")
        print(f"{d.lines:5d}  {d.key}{mark}")
    for o in sorted(unset, key=lambda o: o.key):
        mark = f"  [kept: {KEPT[o.key][0]}]" if o.key in KEPT else ""
        print(f"unset  {o.key}{mark}")
    lost = [d for d in verdict.unexplained if isinstance(d, Definition)]
    print(f"{len(missed)} never-entered definitions, "
          f"{sum(d.lines for d in missed)} lines; {len(lost)} not kept, "
          f"{sum(d.lines for d in lost)} lines", file=sys.stderr)
    print(f"{len(options(defs))} options; {len(unset)} unset by every run, "
          f"{len(verdict.unexplained) - len(lost)} not kept", file=sys.stderr)
    if not args.check:
        return 0
    for key in verdict.stale:
        print(f"STALE: {key} is kept but a run enters or sets it, it is gone, or "
              f"a kept entry calls it", file=sys.stderr)
    for key, problem in verdict.unfounded:
        print(f"UNFOUNDED: {key}: {problem}", file=sys.stderr)
    for m in verdict.unexplained:
        print(f"NEVER ENTERED: {m.key} ({m.lines} lines) — delete it, move it into "
              f"tests/, or keep it in KEPT with a reason" if isinstance(m, Definition) else
              f"UNSET OPTION: {m.key} — make it a constant, or keep it in KEPT "
              f"with a reason", file=sys.stderr)
    return 0 if verdict.ok else 1


if __name__ == "__main__":
    sys.exit(main())
