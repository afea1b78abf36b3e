"""Guard: the three audit steps are written once, in the audit kernel.

"Tamper check → syntactic check → replay" used to exist in four copies that
drifted apart.  Now it is :func:`repro.audit.kernel.run_chunk`, and every
front-end — serial, engine, stream, spot check, online — and a third party's
``Evidence.verify`` are ways of calling it.  These tests count: every replay
and every syntactic check an audit performs happens inside a kernel run, and
the source has one call site for each step.  A fifth copy fails here by name.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.adversary.catalog import make_adversary
from repro.adversary.matrix import CellSpec, ScenarioMatrix
from repro.audit import kernel
from repro.audit.engine import AuditScheduler
from repro.audit.online import OnlineAuditor
from repro.audit.spot_check import SpotChecker
from repro.audit.stream import stream_audit
from repro.audit.syntactic import SyntacticChecker
from repro.audit.verdict import Verdict
from repro.avmm.replayer import DeterministicReplayer

AUDIT_SOURCES = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "repro" / "audit")
    .glob("*.py"))


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """One honest client and one cheating server, recorded into an archive."""
    matrix = ScenarioMatrix(duration=3.0, snapshot_interval=1.0)
    adversary = make_adversary("cheating-guest", seed=5300)
    spec = CellSpec("cheating-guest", "kv", "archive", 2, 5300)
    ctx, run = matrix._build(spec, adversary,
                             str(tmp_path_factory.mktemp("call-sites")))
    adversary.install(ctx)
    run()
    matrix._drain_archive(ctx)
    adversary.corrupt(ctx)
    return matrix, adversary, ctx


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
    import repro.audit.auditor as auditor_module
    import repro.audit.engine as engine_module
    import repro.audit.stream as stream_module
    for module in (kernel, auditor_module, engine_module, stream_module):
        monkeypatch.setattr(module, "run_chunk", run_chunk)
    monkeypatch.setattr(DeterministicReplayer, "replay",
                        step("replay", DeterministicReplayer.replay))
    monkeypatch.setattr(kernel, "batch_verify_authenticators",
                        step("tamper", kernel.batch_verify_authenticators))
    real_check = SyntacticChecker.check

    def check(self, segment, context=None):
        # the engine parent's whole-log cross-reference pass is not step 2:
        # it checks no entry's format and no signature
        if self.check_entry_format:
            counted["syntactic in kernel" if depth else "syntactic"] += 1
        return real_check(self, segment, context)

    monkeypatch.setattr(SyntacticChecker, "check", check)
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
               if name != "kernel" and not name.endswith(" in kernel")}
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
            engine.audit_machine(_auditor(scenario, machine), monitor)
        # two chunks per machine, plus the cheater's serial confirmation
        _assert_all_in_kernel(calls, at_least=2 * len(ctx.monitors) + 1)

    def test_stream(self, scenario, calls):
        ctx = scenario[2]
        for machine in sorted(ctx.monitors):
            report = stream_audit(_auditor(scenario, machine, archived=True),
                                  ctx.ingest.target_for(machine))
            assert report.used_fallback == (machine == ctx.byzantine)
        _assert_all_in_kernel(calls, at_least=2 * len(ctx.monitors))

    def test_spot_check(self, scenario, calls):
        ctx = scenario[2]
        honest = next(m for m in sorted(ctx.monitors) if m != ctx.byzantine)
        for engine in (None, AuditScheduler(workers=2, executor="inline")):
            results = SpotChecker(_auditor(scenario, honest), engine=engine) \
                .check_all_chunks(ctx.monitors[honest], k=1,
                                  skip_initial=False)
            assert results and all(result.ok for result in results)
        _assert_all_in_kernel(calls, at_least=2 * len(results))
        assert calls["kernel"] == 2 * len(results)

    def test_online(self, scenario, calls):
        ctx = scenario[2]
        honest = next(m for m in sorted(ctx.monitors) if m != ctx.byzantine)
        watcher = OnlineAuditor(_auditor(scenario, honest),
                                ctx.monitors[honest], ctx.scheduler)
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


def _call_sites(name):
    """``path:line`` of every call of ``name`` under ``src/repro/audit/``."""
    sites = []
    for path in AUDIT_SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = node.func
                called = getattr(callee, "id", getattr(callee, "attr", None))
                if called == name:
                    sites.append(f"{path.name}:{node.lineno}")
    return sites


class TestOneCallSitePerStep:
    @pytest.mark.parametrize("name", [
        "SemanticChecker", "batch_verify_authenticators",
        "verify_chain_incremental", "ChunkJob"])
    def test_called_once_and_from_the_kernel(self, name):
        sites = _call_sites(name)
        assert len(sites) == 1 and sites[0].startswith("kernel.py:"), sites

    def test_the_kernel_is_a_leaf(self):
        """It imports no front-end, so every front-end can import it."""
        imported = {node.module for node in ast.walk(
            ast.parse((AUDIT_SOURCES[0].parent / "kernel.py").read_text()))
            if isinstance(node, ast.ImportFrom)}
        assert not imported & {
            "repro.audit.auditor", "repro.audit.engine", "repro.audit.stream",
            "repro.audit.spot_check", "repro.audit.online",
            "repro.audit.evidence"}
