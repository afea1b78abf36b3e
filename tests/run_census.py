"""Run census: which definitions in ``src/`` does a paper run enter?

The paper's claims are checked by a fixed set of runs (:data:`RUNS`): the
table 1, fig. 3-9 and section 6.5-6.7 experiments, the adversary matrix (full
grid, and the smoke subset as JSON), the examples and the four workloads of
the benchmark of record, untraced and traced.  Each run is a child
interpreter under ``sys.setprofile`` and ``threading.setprofile``; a process
pool's workers are forked with the profiler already installed, and every
process appends what it enters to a file of its own, so a function that only
a worker runs counts as entered.

A function, method or nested function under ``src/repro/`` that no run
enters is *never entered*.  It is deleted, moved into ``tests/``, or named
in :data:`KEPT` with one of the reasons below.  Where a reason can be
checked, it is: a wrap target is in ``bench/trace.py``'s table, an
allowance is in ``test_only_what_runs.ALLOWED``, an abstract method raises
``NotImplementedError``.  A kept entry that some run does enter, or that is
gone, is stale and fails the check.

Unlike the static scan (``tests/test_only_what_runs.py``), which keeps a
definition alive when anything live shares its name, the census sees what
actually runs: a reused method name such as ``to_dict`` or an option no
caller sets is found here.

    python tests/run_census.py            # list never-entered definitions
    python tests/run_census.py --check    # fail on an unexplained or stale one
    python tests/run_census.py --only table1 --only example:quickstart

The full census takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import ast
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
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
    "fig9_spot_check": _experiment("fig9_spot_check", duration=60.0),
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

# -- the reasons a never-entered definition may stay -------------------------

#: named in ``bench/trace.py``'s wrap table (``tests/test_wrap_targets.py``
#: pins that every name there resolves)
WRAPPED = "a bench/trace.py wrap target"
#: named in ``tests/test_only_what_runs.py``'s ``ALLOWED``, with its own
#: reason, or called by one that is (what a kept definition uses is kept)
ALLOWANCE = "a documented entry point or accessor in test_only_what_runs.ALLOWED"
#: a protocol method with no body of its own (it raises
#: ``NotImplementedError`` or is empty), or a class's implementation of one
ABSTRACT = "an abstract protocol method"
#: what a failure, a crash recovery or hostile input takes, which no honest
#: seeded run does; the matrix, the fuzzers and the crash matrix are its users
FAILURE = "a failure, recovery or hostile-input branch"
#: the plain form of an optimised path, which tests compare it against
REFERENCE = "a reference implementation tests compare against"

REASONS = (WRAPPED, ALLOWANCE, ABSTRACT, FAILURE, REFERENCE)

#: never-entered definitions that stay: key -> (reason, what it is for)
KEPT: Dict[str, Tuple[str, str]] = {
    # -- bench/trace.py's wrap table
    "repro.store.archive:LogArchive.read_segment": (
        WRAPPED, "reads one archived segment whole; spot checks and the "
        "hand-over of an archived log that cannot be chunked call it"),
    "repro.store.archive:LogArchive.store_snapshot": (
        WRAPPED, "archives a full snapshot; shipments carry deltas"),
    # -- test_only_what_runs.ALLOWED, and what those entries call
    "repro.audit.engine:pool_starts_total": (ALLOWANCE, "pool warmth"),
    "repro.audit.online:OnlineAuditor.fault_detected": (ALLOWANCE, "detection flag"),
    "repro.avmm.monitor:AccountableVMM.shipped_through": (ALLOWANCE, "shipping progress"),
    "repro.log.entries:content_materializations_total": (ALLOWANCE, "lazy-decode counter"),
    "repro.log.hashchain:verify_entry": (ALLOWANCE, "one entry's link"),
    "repro.log.tamper_evident:TamperEvidentLog.head_hash": (ALLOWANCE, "chain head"),
    "repro.metrics.latency:LatencyRecorder.unmatched_received": (
        ALLOWANCE, "stray replies"),
    "repro.network.channel:ReliableChannel.gave_up_on": (ALLOWANCE, "abandoned sends"),
    "repro.network.channel:ReliableChannel.retransmissions": (
        ALLOWANCE, "retransmission count"),
    "repro.network.channel:ReliableChannel.unacknowledged": (ALLOWANCE, "pending sends"),
    "repro.service.ingest:AuditIngestService.audit_pending": (
        ALLOWANCE, "drains the audit queue in one fleet call"),
    "repro.service.ingest:AuditIngestService.assignments": (
        ALLOWANCE, "audit_pending's fleet assignments"),
    "repro.service.ingest:AuditIngestService.pending_machines": (
        ALLOWANCE, "the audit queue, for assignments"),
    "repro.service.ingest:AuditIngestService.pending_segments": (
        ALLOWANCE, "one machine's queue depth"),
    "repro.service.ingest:AuditIngestService.quarantined_machines": (
        ALLOWANCE, "who was quarantined"),
    "repro.sim.clock:HostClock.reads": (ALLOWANCE, "clock-read count"),
    "repro.store.archive:LogArchive.reencode_segments": (
        ALLOWANCE, "the v1 -> v3 archive migration"),
    "repro.store.archive:LogArchive.adopt_retention_checkpoint": (
        ALLOWANCE, "reencode_segments' first step on a truncated archive"),
    "repro.store.archive:LogArchive.copy_snapshots_to": (
        ALLOWANCE, "reencode_segments copies the snapshots with it"),
    "repro.vm.devices:VirtualDisk.writes": (ALLOWANCE, "disk-write count"),
    "repro.vm.snapshot:SnapshotManager.resident_bytes": (
        ALLOWANCE, "the snapshot manager's memory bound"),
    # -- protocol methods
    "repro.adversary.shipping:_LyingShipper.corrupt_part": (
        ABSTRACT, "each lying shipper corrupts its own part"),
    "repro.adversary.tampering:_LogTamperAdversary.apply": (
        ABSTRACT, "each tampering adversary applies its own edit"),
    "repro.crypto.signatures:SignatureScheme.costs": (ABSTRACT, "a scheme's cost model"),
    "repro.crypto.signatures:SignatureScheme.generate": (ABSTRACT, "a scheme's keys"),
    "repro.crypto.signatures:SigningKey.sign": (ABSTRACT, "RSA signs"),
    "repro.crypto.signatures:VerifyKey.fingerprint": (ABSTRACT, "RSA fingerprints"),
    "repro.crypto.signatures:VerifyKey.verify": (ABSTRACT, "RSA verifies"),
    "repro.game.cheats.base:Cheat.patch_image": (ABSTRACT, "each cheat's image"),
    "repro.log.codec:LogCodec.decode_segment": (ABSTRACT, "each format's reader"),
    "repro.log.codec:LogCodec.encode_segment": (ABSTRACT, "each format's writer"),
    "repro.log.codec:LogCodec.stream_decoder": (ABSTRACT, "each format's stream"),
    "repro.log.codec:_StreamDecoderBase.entries": (ABSTRACT, "each stream's entries"),
    "repro.vm.guest:GuestProgram.get_state": (ABSTRACT, "a guest's snapshot state"),
    "repro.vm.guest:GuestProgram.on_event": (ABSTRACT, "a guest's event handler"),
    "repro.vm.guest:GuestProgram.on_start": (ABSTRACT, "a guest's boot hook"),
    "repro.vm.guest:GuestProgram.set_state": (ABSTRACT, "a guest's restore"),
    "repro.vm.guest:MachineApi.consume_cycles": (ABSTRACT, "the VM's API"),
    "repro.vm.guest:MachineApi.read_clock": (ABSTRACT, "the VM's API"),
    "repro.vm.guest:MachineApi.render_frame": (ABSTRACT, "the VM's API"),
    "repro.vm.guest:MachineApi.send_packet": (ABSTRACT, "the VM's API"),
    "repro.vm.guest:MachineApi.set_timer": (ABSTRACT, "the VM's API"),
    "repro.vm.guest:MachineApi.upstream_call": (ABSTRACT, "the VM's API"),
    "repro.vm.guest:MachineApi.write_disk": (ABSTRACT, "the VM's API"),
    "repro.vm.machine:NondeterminismSource.clock_read": (
        ABSTRACT, "live and replayed clock reads"),
    "repro.workloads.echo:EchoGuest.get_state": (
        ABSTRACT, "the echo guest's snapshot state (fig. 5 takes none)"),
    "repro.workloads.echo:EchoGuest.set_state": (ABSTRACT, "its restore"),
    "repro.workloads.echo:PingSenderGuest.get_state": (
        ABSTRACT, "the ping guest's snapshot state (fig. 5 takes none)"),
    "repro.workloads.echo:PingSenderGuest.set_state": (ABSTRACT, "its restore"),
    # -- failure, recovery and hostile input
    "repro.adversary.matrix:CellOutcome.describe": (
        FAILURE, "the matrix prints a cell whose expectation was not met"),
    "repro.adversary.matrix:CellSpec.label": (FAILURE, "names that cell"),
    "repro.audit.syntactic:SyntacticReport.add": (
        FAILURE, "records a syntactic problem (a log whose messages do not "
        "pair); no paper run's first failing chunk fails at this step"),
    "repro.audit.engine:_ChunkRun._rebuild": (
        FAILURE, "a worker process died: resubmit on a new pool"),
    "repro.audit.engine:_WorkerPools.replace": (FAILURE, "the new pool"),
    "repro.log.codec:_noncanonical": (
        FAILURE, "a v1 blob not in the writer's layout"),
    "repro.log.entries:_ContentReader.f64": (FAILURE, "a row value, see _read_row_value"),
    "repro.log.entries:_ContentReader.i64": (FAILURE, "a row value, see _read_row_value"),
    "repro.log.entries:_ContentReader.long_str": (
        FAILURE, "a row value, see _read_row_value"),
    "repro.log.entries:_read_row_value": (
        FAILURE, "parses one value of generic-row content from untrusted v3 "
        "bytes; no paper run reads such an entry's content"),
    "repro.log.entries:_unpack_row_body": (
        FAILURE, "parses generic-row content, see _read_row_value"),
    "repro.service.ingest:QuarantinedShipment.from_dict": (
        FAILURE, "the quarantine reloaded after a restart"),
    "repro.service.target:ArchiveBackedMachine.get_log_segment": (
        FAILURE, "an archived log that cannot be chunked is audited whole"),
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
    "repro.log.entries:recv_content": (
        REFERENCE, "the RECV content dict encode_recv_content must match byte "
        "for byte (docs/message-protocol.md)"),
}


# ---------------------------------------------------------------------------
# Tracing one run (the child side)
# ---------------------------------------------------------------------------

def install_profiler(out_dir: Path, prefix: str) -> None:
    """Record every code object under ``prefix`` that this process, its
    threads and its forked children enter, one line per first entry, into
    ``out_dir/<pid>.txt``.  Lines go out with one ``os.write`` each, so a
    child forked at any moment, or ended by ``os._exit``, loses nothing."""
    seen: Set[object] = set()
    files: Dict[int, int] = {}

    def record(code) -> None:
        pid = os.getpid()
        fd = files.get(pid)
        if fd is None:
            fd = files[pid] = os.open(out_dir / f"{pid}.txt",
                                      os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, f"{code.co_filename}\t{code.co_firstlineno}\t"
                     f"{code.co_name}\n".encode())

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                if code.co_filename.startswith(prefix):
                    record(code)

    threading.setprofile(profile)
    sys.setprofile(profile)


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


def run_census(runs: Dict[str, List[str]], package: Path = PACKAGE,
               path: Sequence[Path] = (SRC,), cwd: Path = ROOT,
               timeout: float = 1800.0) -> Entered:
    """``(file, first line, name)`` of every code object under ``package``
    that some run enters, in any of its processes."""
    entered: Entered = set()
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
                    filename, lineno, code_name = line.split("\t")
                    entered.add((filename, int(lineno), code_name))
        print(f"census: {name} {time.perf_counter() - started:.1f} s",
              file=sys.stderr)
    return entered


@dataclass(eq=False)
class Definition:
    """One ``def`` under the package: its key, lines and code-object match."""

    key: str
    filename: str
    first_line: int          # the first decorator's line, as ``co_firstlineno``
    name: str
    lineno: int
    end_lineno: int
    parent: Optional["Definition"]
    node: ast.AST

    @property
    def lines(self) -> int:
        return self.end_lineno - self.lineno + 1

    @property
    def code_key(self) -> Tuple[str, int, str]:
        return self.filename, self.first_line, self.name


def definitions(package: Path = PACKAGE) -> List[Definition]:
    """Every function, method and nested function under ``package``."""
    found: List[Definition] = []
    base = package.resolve().parent

    def visit(node, filename, module, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, filename, module, f"{prefix}{child.name}.", parent)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                definition = Definition(f"{module}:{prefix}{child.name}", filename,
                                        first, child.name, child.lineno,
                                        child.end_lineno, parent, child)
                found.append(definition)
                visit(child, filename, module, f"{prefix}{child.name}.", definition)
            else:
                visit(child, filename, module, prefix, parent)

    for path in sorted(package.resolve().rglob("*.py")):
        parts = path.relative_to(base).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visit(ast.parse(path.read_text()), str(path), module, "", None)
    return found


def never_entered(defs: Iterable[Definition], entered: Entered) -> List[Definition]:
    """The outermost definitions no run entered (one inside a never-entered
    definition is never entered either, and not listed again)."""
    missed = [d for d in defs if d.code_key not in entered]
    missed_set = set(missed)
    return [d for d in missed if d.parent not in missed_set]


def _has_no_body(node) -> bool:
    """Whether a function only raises ``NotImplementedError`` or is empty."""
    body = [stmt for stmt in node.body
            if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))]
    return not body or all(isinstance(stmt, ast.Pass) for stmt in body) or (
        len(body) == 1 and isinstance(body[0], ast.Raise)
        and "NotImplementedError" in ast.unparse(body[0]))


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


def _allowed_closure(defs: List[Definition], kept: Dict[str, Tuple[str, str]]) -> Set[str]:
    """Keys in ``ALLOWED``, and the kept definitions they call, transitively."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from test_only_what_runs import ALLOWED
    finally:
        sys.path.remove(str(ROOT / "tests"))
    by_key = {d.key: d for d in defs}
    closure = {key for key in ALLOWED if key in by_key}
    candidates = {key for key, (reason, _) in kept.items()
                  if reason == ALLOWANCE and key in by_key} - closure
    grown = True
    while grown:
        sources = " ".join(ast.unparse(by_key[key].node) for key in closure)
        reached = {key for key in candidates
                   if re.search(rf"\b{by_key[key].name}\b", sources)}
        grown = bool(reached)
        closure |= reached
        candidates -= reached
    return closure


def reason_problem(definition: Definition, reason: str, note: str,
                   allowed: Set[str] = frozenset()) -> Optional[str]:
    """Why ``reason`` does not hold for ``definition``, or None; ``allowed``
    is :func:`_allowed_closure`'s."""
    if reason not in REASONS:
        return f"unknown reason {reason!r}"
    if not note.strip():
        return "no note on what it is for"
    dotted = definition.key.replace(":", ".")
    if reason == WRAPPED and f'"{dotted}"' not in (ROOT / "bench" / "trace.py").read_text():
        return "not in bench/trace.py's wrap table"
    if reason == ALLOWANCE and definition.key not in allowed:
        return "neither in test_only_what_runs.ALLOWED nor called by an entry there"
    if reason == ABSTRACT and not (_has_no_body(definition.node)
                                   or _implements_a_protocol_method(definition)):
        return "it has a body and overrides no bodiless protocol method"
    return None


@dataclass
class Verdict:
    unexplained: List[Definition]
    #: kept keys some run entered, or that name no definition
    stale: List[str]
    #: kept keys whose reason does not hold, with why
    unfounded: List[Tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not (self.unexplained or self.stale or self.unfounded)


def check(defs: List[Definition], missed: List[Definition],
          kept: Dict[str, Tuple[str, str]]) -> Verdict:
    by_key = {d.key: d for d in defs}
    missed_keys = {d.key for d in missed}
    allowed = _allowed_closure(defs, kept)
    unfounded = []
    for key, (reason, note) in sorted(kept.items()):
        if key in missed_keys:
            problem = reason_problem(by_key[key], reason, note, allowed)
            if problem:
                unfounded.append((key, problem))
    return Verdict(unexplained=[d for d in missed if d.key not in kept],
                   stale=sorted(key for key in kept if key not in missed_keys),
                   unfounded=unfounded)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unexplained never-entered definition, "
                             "a stale kept entry or a reason that does not hold")
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
    missed = never_entered(defs, run_census(runs))
    verdict = check(defs, missed, KEPT)
    for d in sorted(missed, key=lambda d: d.key):
        mark = f"  [kept: {KEPT[d.key][0]}]" if d.key in KEPT else ""
        print(f"{d.lines:5d}  {d.key}{mark}")
    print(f"{len(missed)} never-entered definitions, "
          f"{sum(d.lines for d in missed)} lines; "
          f"{len(verdict.unexplained)} not kept, "
          f"{sum(d.lines for d in verdict.unexplained)} lines", file=sys.stderr)
    if not args.check:
        return 0
    for key in verdict.stale:
        print(f"STALE: {key} is kept but a run enters it, or it is gone",
              file=sys.stderr)
    for key, problem in verdict.unfounded:
        print(f"UNFOUNDED: {key}: {problem}", file=sys.stderr)
    for d in verdict.unexplained:
        print(f"NEVER ENTERED: {d.key} ({d.lines} lines) — delete it, move it "
              f"into tests/, or keep it in KEPT with a reason", file=sys.stderr)
    return 0 if verdict.ok else 1


if __name__ == "__main__":
    sys.exit(main())
