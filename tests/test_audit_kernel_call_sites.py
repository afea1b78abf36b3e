"""Guard: the three audit steps are written once, in the audit kernel.

"Tamper check → syntactic check → replay" used to exist in four copies that
drifted apart.  Now it is :func:`repro.audit.kernel.run_chunk`, and it has
two callers: the one audit driver, the engine's plan — which every audit is,
whole log or spot-check range, serial, online or over an archive — and a
third party's ``Evidence.verify``.  These tests count: every replay and
every syntactic check an audit performs happens inside a kernel run, and the
source has one call site for each step.  A fifth copy fails here by name.
The engine loop is written once too: one place folds chunk outcomes, one
reads an archive's chunks, and only the engine and the evidence build and
run chunk jobs.

They also count *entries*: a conviction costs the auditor the chunks up to
the fault and a third party the evidence's own entries.  A second pass over
the log after a detection — a serial confirmation, a whole-log replay of the
evidence — fails ``TestNoSecondPass`` by name.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

from archive_tools import archived_entry_count
from repro.adversary.catalog import make_adversary
from repro.adversary.matrix import CellSpec, ScenarioMatrix
from repro.audit import kernel
from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.audit.online import OnlineAuditor
from repro.audit.spot_check import SpotChecker
from repro.audit.syntactic import SyntacticChecker
from repro.audit.verdict import Verdict
from repro.avmm.replayer import DeterministicReplayer

REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"
AUDIT_SOURCES = sorted((REPRO / "audit").glob("*.py"))
ALL_SOURCES = sorted(REPRO.rglob("*.py"))


def _record(archive_dir, adversary_name):
    matrix = ScenarioMatrix()
    adversary = make_adversary(adversary_name, seed=5300)
    spec = CellSpec(adversary_name, "kv", "archive", 2, 5300)
    ctx, run = matrix._build(spec, adversary, str(archive_dir))
    adversary.install(ctx)
    run()
    matrix._drain_archive(ctx)
    adversary.corrupt(ctx)
    return matrix, adversary, ctx


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """One honest client and one cheating server, recorded into an archive."""
    return _record(tmp_path_factory.mktemp("call-sites"), "cheating-guest")


@pytest.fixture(scope="module")
def late_fault(tmp_path_factory):
    """The same pair, but the server's fault happens mid-run, mid-log."""
    return _record(tmp_path_factory.mktemp("late-fault"),
                   "hidden-nondeterminism")


@pytest.fixture()
def calls(monkeypatch) -> Counter:
    """Kernel runs, and the steps performed anywhere, counted from here on.

    Inside a kernel run the steps count as ``"<step> in kernel"``; one
    performed by anything else counts under its bare name.
    """
    counted: Counter = Counter()
    depth = []

    real_run = kernel.run_chunk

    def run_chunk(job):
        counted["kernel"] += 1
        counted["entries through the kernel"] += len(job.segment.entries)
        depth.append(job)
        try:
            return real_run(job)
        finally:
            depth.pop()

    def step(label, real):
        def wrapper(*args, **kwargs):
            counted[f"{label} in kernel" if depth else label] += 1
            return real(*args, **kwargs)
        return wrapper

    # every importer-by-name of run_chunk, and the kernel module itself
    import repro.audit.engine as engine_module
    for module in (kernel, engine_module):
        monkeypatch.setattr(module, "run_chunk", run_chunk)
    monkeypatch.setattr(DeterministicReplayer, "replay",
                        step("replay", DeterministicReplayer.replay))
    monkeypatch.setattr(kernel, "batch_verify_authenticators",
                        step("tamper", kernel.batch_verify_authenticators))
    monkeypatch.setattr(SyntacticChecker, "check",
                        step("syntactic", SyntacticChecker.check))
    return counted


def _auditor(scenario, machine, archived=False):
    matrix, adversary, ctx = scenario
    auditor = matrix._make_auditor(ctx, machine, adversary)
    if archived:
        ctx.ingest.prepare_auditor(auditor, machine)
    return auditor


def _assert_all_in_kernel(calls, at_least=1):
    assert calls["kernel"] >= at_least
    assert calls["tamper in kernel"] == calls["kernel"]
    assert 0 < calls["replay in kernel"] <= calls["kernel"]
    assert calls["syntactic in kernel"] <= calls["kernel"]
    outside = {name: n for name, n in calls.items()
               if name != "kernel" and not name.endswith(" kernel")}
    assert not outside, f"audit steps performed outside the kernel: {outside}"


class TestEveryFrontEndReachesTheKernel:
    def test_serial(self, scenario, calls):
        ctx = scenario[2]
        for machine, monitor in sorted(ctx.monitors.items()):
            _auditor(scenario, machine).audit(monitor)
        _assert_all_in_kernel(calls, at_least=len(ctx.monitors))
        assert calls["kernel"] == len(ctx.monitors)   # one chunk each

    def test_engine(self, scenario, calls):
        ctx = scenario[2]
        engine = AuditScheduler(workers=2, executor="inline")
        for machine, monitor in sorted(ctx.monitors.items()):
            engine.audit_fleet([AuditAssignment(_auditor(scenario, machine),
                                                monitor)])
        # at most two chunks per machine: the honest one's both, the
        # cheater's up to the one that fails — and no second pass
        _assert_all_in_kernel(calls, at_least=len(ctx.monitors) + 1)
        assert calls["kernel"] <= 2 * len(ctx.monitors)

    def test_stream(self, scenario, calls):
        """An archive at one worker: the engine, one chunk per archived
        sealing snapshot."""
        ctx = scenario[2]
        chunks = 0
        for machine in sorted(ctx.monitors):
            report = AuditScheduler().audit_fleet([AuditAssignment(
                _auditor(scenario, machine, archived=True),
                ctx.ingest.target_for(machine))]).machine_reports[machine]
            assert report.unchunkable_reason is None
            assert report.result.ok == (machine != ctx.byzantine)
            chunks += report.chunk_count
        _assert_all_in_kernel(calls, at_least=len(ctx.monitors) + 1)
        assert calls["kernel"] == chunks   # every chunk once, none again

    def test_spot_check(self, scenario, calls):
        ctx = scenario[2]
        honest = next(m for m in sorted(ctx.monitors) if m != ctx.byzantine)
        results = SpotChecker(_auditor(scenario, honest)).check_all_chunks(
            ctx.monitors[honest], k=1, skip_initial=False)
        assert results and all(result.ok for result in results)
        _assert_all_in_kernel(calls, at_least=len(results))
        assert calls["kernel"] == len(results)

    def test_online(self, scenario, calls):
        ctx = scenario[2]
        honest = next(m for m in sorted(ctx.monitors) if m != ctx.byzantine)
        peers = [ctx.monitors[peer] for peer in sorted(ctx.monitors)
                 if peer != honest]
        watcher = OnlineAuditor(_auditor(scenario, honest),
                                ctx.monitors[honest], ctx.scheduler, peers)
        assert watcher.run_once().verdict is Verdict.PASS
        _assert_all_in_kernel(calls)

    def test_evidence_verify(self, scenario, calls):
        ctx = scenario[2]
        cheater = ctx.byzantine
        result = _auditor(scenario, cheater).audit(ctx.monitors[cheater])
        assert result.verdict is Verdict.FAIL
        before = calls["kernel"]
        assert result.evidence.verify(ctx.keystore,
                                      ctx.reference_images[cheater])
        assert calls["kernel"] == before + 1
        _assert_all_in_kernel(calls)


class TestNoSecondPass:
    """A conviction costs the auditor the chunks up to the fault and a third
    party the evidence's own entries; nothing reads the log a second time."""

    @pytest.fixture()
    def no_materialization(self, monkeypatch):
        from repro.service.target import ArchiveBackedMachine

        def refuse(*args, **kwargs):
            raise AssertionError("the whole log was materialized")

        monkeypatch.setattr(ArchiveBackedMachine, "get_log_segment", refuse)

    @pytest.mark.parametrize("engine", [None, "inline"],
                             ids=["default", "engine"])
    def test_conviction_of_an_archive_target(self, late_fault, calls, engine,
                                             no_materialization):
        ctx = late_fault[2]
        cheater = ctx.byzantine
        target = ctx.ingest.target_for(cheater)
        auditor = _auditor(late_fault, cheater, archived=True)
        if engine:
            # the finest chunking: one snapshot-sealed segment run per chunk
            auditor.engine = AuditScheduler(workers=2, executor=engine,
                                             chunks_per_machine=64)
        result = auditor.audit(target)
        assert result.verdict is Verdict.FAIL
        evidence = result.evidence
        total = archived_entry_count(target.archive, cheater)
        up_to_the_fault = evidence.segment.last_sequence \
            - target.archive.start_checkpoint(cheater).sequence
        assert evidence.anchor and up_to_the_fault < total   # a mid-log chunk
        assert calls["entries through the kernel"] <= up_to_the_fault
        _assert_all_in_kernel(calls)

        # the third party: its own entries, once
        before = calls["entries through the kernel"]
        assert evidence.verify(ctx.keystore, ctx.reference_images[cheater])
        assert calls["entries through the kernel"] - before \
            == len(evidence.segment.entries) < total
        # and only the authenticators on them, not the machine's whole list
        covered = range(evidence.segment.first_sequence,
                        evidence.segment.last_sequence + 1)
        assert evidence.authenticators
        assert all(a.sequence in covered for a in evidence.authenticators)
        assert len(evidence.authenticators) \
            < len(auditor.authenticators_for(cheater))


    @pytest.mark.parametrize("engine", [None, "inline"],
                             ids=["default", "engine"])
    def test_an_uncovered_failing_chunk_reaches_the_next_authenticator(
            self, late_fault, engine):
        """Evidence no authenticator covers would die with a third party
        ("no valid authenticator"); it is extended, not re-audited."""
        ctx = late_fault[2]
        cheater = ctx.byzantine
        target = ctx.ingest.target_for(cheater)

        def audit(keep):
            auditor = _auditor(late_fault, cheater, archived=True)
            kept = [auth for auth in auditor.authenticators_for(cheater)
                    if keep(auth.sequence)]
            del auditor.collected_authenticators[cheater]
            auditor.collect_authenticators(cheater, kept)
            if engine:
                auditor.engine = AuditScheduler(workers=2, executor=engine,
                                                 chunks_per_machine=64)
            return auditor, auditor.audit(target)

        _, covered = audit(lambda sequence: True)
        chunk = covered.evidence.segment
        # an auditor who holds no authenticator on the failing chunk
        auditor, result = audit(
            lambda sequence: sequence > chunk.last_sequence + 3)
        assert (result.verdict, result.phase, result.reason) \
            == (covered.verdict, covered.phase, covered.reason)
        evidence = result.evidence
        reached = min(auth.sequence
                      for auth in auditor.authenticators_for(cheater))
        assert evidence.segment.first_sequence == chunk.first_sequence
        assert evidence.segment.last_sequence == reached > chunk.last_sequence
        assert evidence.authenticators
        assert {auth.sequence for auth in evidence.authenticators} == {reached}
        assert evidence.anchor == covered.evidence.anchor
        assert evidence.verify(ctx.keystore, ctx.reference_images[cheater])


def _call_sites(name, sources=AUDIT_SOURCES):
    """``path:line`` (under ``src/repro/``) of every call of ``name`` in
    ``sources``."""
    sites = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = node.func
                called = getattr(callee, "id", getattr(callee, "attr", None))
                if called == name:
                    sites.append(f"{path.relative_to(REPRO)}:{node.lineno}")
    return sites


class TestOneCallSitePerStep:
    @pytest.mark.parametrize("name", [
        "SemanticChecker", "SyntacticChecker", "batch_verify_authenticators"])
    def test_called_once_in_all_of_src_and_from_the_kernel(self, name):
        """The tamper check, the syntactic check and replay have one call
        site in the whole library: no module outside the audit package
        checks a log against its authenticators on its own."""
        sites = _call_sites(name, ALL_SOURCES)
        assert len(sites) == 1 and sites[0].startswith("audit/kernel.py:"), sites

    @pytest.mark.parametrize("name", ["verify_chain_incremental", "ChunkJob"])
    def test_called_once_and_from_the_kernel(self, name):
        # the archive verifies chains at ingest and at open on its own, so
        # the chain step is counted under src/repro/audit/ only
        sites = _call_sites(name)
        assert len(sites) == 1 and sites[0].startswith("audit/kernel.py:"), sites

    @pytest.mark.parametrize("name", ["fold_outcomes", "iter_stream_chunks"])
    def test_one_audit_loop(self, name):
        """Chunk outcomes are folded in one place and an archive's chunks
        read in one: the engine's, whatever the worker count."""
        sites = _call_sites(name)
        assert len(sites) == 1 and sites[0].startswith("audit/engine.py:"), sites

    @pytest.mark.parametrize("name", ["run_chunk", "chunk_job"])
    def test_one_driver_and_the_evidence_run_chunks(self, name):
        """Chunk jobs are built and run by the engine's plan and by
        ``Evidence.verify`` only: there is no second audit driver."""
        sites = _call_sites(name, ALL_SOURCES)
        assert sites and all(site.startswith(("audit/engine.py:",
                                              "audit/evidence.py:"))
                             for site in sites), sites

    def test_the_kernel_is_a_leaf(self):
        """It imports no front-end, so every front-end can import it."""
        imported = {node.module for node in ast.walk(
            ast.parse((AUDIT_SOURCES[0].parent / "kernel.py").read_text()))
            if isinstance(node, ast.ImportFrom)}
        assert not imported & {
            "repro.audit.auditor", "repro.audit.engine", "repro.audit.stream",
            "repro.audit.spot_check", "repro.audit.online",
            "repro.audit.evidence"}
