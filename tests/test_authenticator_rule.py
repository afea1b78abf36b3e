"""One rule for authenticators: each signature verified on its own, and only
a valid one counts.

:func:`~repro.log.authenticator.batch_verify_authenticators` is the audit
kernel's tamper-check rule: of the authenticators the auditor collected, those
the audited machine issued whose :meth:`Authenticator.verify` holds.  An
invalid one — a flipped signature bit, one of a blinded pair whose product
still verifies, an inconsistent chain hash — proves nothing about the machine
and is ignored; only a valid authenticator the log contradicts convicts.
Here: the rule as a property, the missing certificate as a refusal, a
peer's junk handed to the auditor of an honest machine on every audit path,
junk about a cheater that must not make its evidence unprovable, and a third
party re-verifying evidence at one verification per authenticator.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.catalog import make_adversary
from repro.adversary.equivocation import cancelling_twins, flipped_signature
from repro.adversary.matrix import CellSpec, ScenarioMatrix
from repro.audit.auditor import Auditor
from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.audit.kernel import chunk_job, run_chunk
from repro.audit.verdict import AuditPhase, Verdict
from repro.crypto import hashing
from repro.crypto.keys import KeyStore
from repro.crypto.rsa import RsaPublicKey
from repro.errors import CertificateError, EvidenceError
from repro.log.authenticator import batch_verify_authenticators
from repro.log.entries import EntryType
from repro.log.tamper_evident import TamperEvidentLog
from repro.service.ingest import AuditIngestService
from repro.workloads.echo import make_echo_image

from scenario_tools import DownloadedLog

MACHINE, FOREIGN, UNKNOWN = "rule-machine", "rule-foreign", "rule-unknown"
KINDS = ("genuine", "flipped", "cancelling", "inconsistent", "foreign",
         "unknown")


@pytest.fixture(scope="module")
def issued(ca):
    """Keys holding certificates for ``MACHINE`` and ``FOREIGN`` (not for
    ``UNKNOWN``), and eight genuine authenticators issued by each."""
    keys = KeyStore(ca)
    issued = {}
    for identity in (MACHINE, FOREIGN, UNKNOWN):
        keypair = ca.issue(identity)
        if identity != UNKNOWN:
            keys.add_certificate(keypair.certificate)
        log = TamperEvidentLog(identity, keypair=keypair, clock=lambda: 1.0)
        issued[identity] = [
            log.authenticator_for(log.append(EntryType.ANNOTATION, {"i": i}))
            for i in range(8)]
    return keys, issued


class TestTheRule:
    @settings(max_examples=60, deadline=None)
    @given(picks=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 7),
                                    st.integers(0, 7)), max_size=12),
           seed=st.integers(0, 1 << 32), static=st.booleans())
    def test_each_valid_authenticator_of_the_machine_and_no_other(
            self, issued, picks, seed, static):
        keys, by_machine = issued
        rng, own = random.Random(seed), by_machine[MACHINE]
        tagged = []
        for kind, i, j in picks:
            if kind == "genuine":
                tagged.append((kind, own[i]))
            elif kind == "flipped":
                tagged.append((kind, flipped_signature(own[i], rng)))
            elif kind == "cancelling":
                tagged += [(kind, twin) for twin in
                           cancelling_twins(own[i], own[j], keys, rng)]
            elif kind == "inconsistent":
                tagged.append((kind, replace(
                    own[i], chain_hash=hashing.hash_bytes(b"elsewhere"))))
            else:
                tagged.append((kind, by_machine[
                    FOREIGN if kind == "foreign" else UNKNOWN][i]))
        batch = [auth for _, auth in tagged]
        view = keys.static_view() if static else keys
        verified = batch_verify_authenticators(batch, view, MACHINE)
        assert verified == [auth for auth in batch if auth.machine == MACHINE
                            and auth.verify(view)]
        assert verified == [auth for kind, auth in tagged if kind == "genuine"]

    def test_a_machine_without_a_certificate_is_refused(self, issued):
        keys, by_machine = issued
        unknown = by_machine[UNKNOWN]
        log_segment = _log_of(unknown)
        with pytest.raises(CertificateError):
            batch_verify_authenticators(unknown, keys, UNKNOWN)
        for view in (keys, keys.static_view()):
            with pytest.raises(CertificateError):
                run_chunk(chunk_job(log_segment, unknown, view,
                                    make_echo_image()))
            # with no covering authenticator there is nothing to refuse
            assert run_chunk(chunk_job(log_segment, [], view,
                                       make_echo_image())).authenticators_checked == 0

    def test_the_serial_auditor_refuses_rather_than_passes(self, issued):
        keys, by_machine = issued
        auditor = Auditor("auditor", keys, make_echo_image())
        auditor.collect_authenticators(UNKNOWN, by_machine[UNKNOWN])
        with pytest.raises(CertificateError):
            auditor.audit(DownloadedLog(_log_of(by_machine[UNKNOWN])))


def _log_of(authenticators):
    """The log ``authenticators`` were issued for, rebuilt (same content)."""
    log = TamperEvidentLog(authenticators[0].machine, clock=lambda: 1.0)
    for i in range(len(authenticators)):
        log.append(EntryType.ANNOTATION, {"i": i})
    segment = log.full_segment()
    assert [entry.chain_hash for entry in segment.entries] == \
        [auth.chain_hash for auth in authenticators]
    return segment


# ---------------------------------------------------------------------------
# A peer's junk about an honest machine, on every audit path
# ---------------------------------------------------------------------------

SEED = 4242


def _recorded(adversary_name, root):
    """A kv pair recorded with ``adversary_name`` on the server into a v1
    archive at ``root``, and that archive re-encoded as v3."""
    matrix = ScenarioMatrix()
    adversary = make_adversary(adversary_name, seed=SEED)
    ctx, run = matrix._build(CellSpec(adversary_name, "kv", "archive", 2,
                                      SEED), adversary, str(root / "v1"))
    adversary.install(ctx)
    run()
    matrix._drain_archive(ctx)
    adversary.corrupt(ctx)
    v3 = AuditIngestService(ctx.ingest.archive.reencode_segments(
        root / "v3", format_version=3))
    return matrix, adversary, ctx, v3


def _paths(matrix, adversary, ctx, v3, machine):
    """name -> (auditor, audit) on each of the five paths."""
    live = ctx.monitors[machine]

    def auditor(ingest=None):
        made = matrix._make_auditor(ctx, machine, adversary)
        if ingest is not None:
            ingest.prepare_auditor(made, machine)
        return made

    def engine(executor):
        return lambda audit_by: AuditScheduler(
            workers=2, executor=executor).audit_fleet(
                [AuditAssignment(audit_by, live)]).results[machine]

    return {
        "one-chunk": (auditor(), lambda audit_by: AuditScheduler(
            chunks_per_machine=1).audit_fleet(
                [AuditAssignment(audit_by, live)]).results[machine]),
        "engine-process": (auditor(), engine("process")),
        "engine-inline": (auditor(), engine("inline")),
        "archive-v1": (auditor(ctx.ingest), lambda audit_by: audit_by.audit(
            ctx.ingest.target_for(machine))),
        "archive-v3": (auditor(v3), lambda audit_by: audit_by.audit(
            v3.target_for(machine))),
    }


class TestJunkOnEveryPath:
    @pytest.fixture(scope="class")
    def junk(self, tmp_path_factory):
        return _recorded("junk-authenticators",
                         tmp_path_factory.mktemp("junk"))

    def test_the_junk_reaches_the_auditor_and_the_archive(self, junk):
        _, _, ctx, _ = junk
        victim = ctx.notes["junk_victim"]
        held = ctx.monitor.authenticators_from(victim)
        junk_auths = [auth for auth in held if not auth.verify(ctx.keystore)]
        assert len(junk_auths) == 3
        archived = ctx.ingest.archive.authenticators_for(victim)
        assert all(auth in archived for auth in junk_auths)

    @pytest.mark.parametrize("path", ["one-chunk", "engine-process",
                                      "engine-inline", "archive-v1",
                                      "archive-v3"])
    def test_the_honest_machine_passes(self, junk, path):
        matrix, adversary, ctx, v3 = junk
        victim = ctx.notes["junk_victim"]
        auditor, audit = _paths(matrix, adversary, ctx, v3, victim)[path]
        held = auditor.authenticators_for(victim)
        genuine = [auth for auth in held if auth.verify(ctx.keystore)]
        assert len(held) - len(genuine) == 3
        result = audit(auditor)
        assert result.verdict is Verdict.PASS, result.reason
        assert result.authenticators_checked == len(genuine)

    @pytest.fixture(scope="class")
    def forged(self, tmp_path_factory):
        return _recorded("forged-authenticator",
                         tmp_path_factory.mktemp("forged"))

    @pytest.mark.parametrize("path", ["one-chunk", "engine-process",
                                      "engine-inline", "archive-v1",
                                      "archive-v3"])
    def test_a_valid_forged_authenticator_still_convicts(self, forged, path):
        matrix, adversary, ctx, v3 = forged
        auditor, audit = _paths(matrix, adversary, ctx, v3,
                                ctx.byzantine)[path]
        result = audit(auditor)
        assert (result.verdict, result.phase) == \
            (Verdict.FAIL, AuditPhase.AUTHENTICATOR_CHECK)
        assert f"log entry {ctx.notes['forged_sequence']} " in result.reason
        assert result.evidence.verify(ctx.keystore,
                                      ctx.reference_images[ctx.byzantine])


# ---------------------------------------------------------------------------
# A peer's junk about a cheater cannot make its conviction unprovable
# ---------------------------------------------------------------------------

def _zeroed(log, entry):
    """A junk authenticator for ``entry``: its true chain hash, consistent,
    and a zeroed signature."""
    genuine = log.authenticator_for(entry)
    return replace(genuine, signature=bytes(len(genuine.signature)))


class TestJunkCannotSpoilEvidence:
    @pytest.fixture(scope="class")
    def cheat(self, tmp_path_factory):
        return _recorded("cheating-guest", tmp_path_factory.mktemp("cheat"))

    @pytest.mark.parametrize("path", ["one-chunk", "engine-process",
                                      "engine-inline", "archive-v1",
                                      "archive-v3"])
    def test_junk_on_the_last_entry_of_the_convicting_chunk(self, cheat, path):
        matrix, adversary, ctx, v3 = cheat
        machine = ctx.byzantine
        auditor, audit = _paths(matrix, adversary, ctx, v3, machine)[path]
        clean = audit(auditor)
        assert clean.phase is AuditPhase.SEMANTIC_CHECK
        last = clean.evidence.segment.entries[-1]
        assert max(a.sequence for a in clean.evidence.authenticators) \
            < last.sequence

        auditor, audit = _paths(matrix, adversary, ctx, v3, machine)[path]
        auditor.collect_authenticators(
            machine, [_zeroed(ctx.monitors[machine].log, last)])
        result = audit(auditor)
        assert [result.verdict, result.phase, result.reason] == \
            [clean.verdict, clean.phase, clean.reason]
        assert result.evidence.authenticators == clean.evidence.authenticators
        assert result.evidence.verify(ctx.keystore,
                                      ctx.reference_images[machine])

    def test_a_chunk_only_junk_covers_extends_to_a_valid_one(self, cheat):
        # The first archive chunk, handed over with no valid authenticator on
        # it and junk on the entry after it: the evidence runs on to the next
        # entry a valid authenticator covers.
        matrix, adversary, ctx, _ = cheat
        machine = ctx.byzantine
        live = ctx.monitors[machine]
        log = live.log
        whole = log.full_segment()
        cut = len(live.segment_records()[0].entries)
        auditor = matrix._make_auditor(ctx, machine, adversary)
        junk = _zeroed(log, whole.entries[cut])
        later = [auth for auth in auditor.authenticators_for(machine)
                 if auth.sequence > junk.sequence]
        auditor.collected_authenticators[machine] = {}
        auditor.collect_authenticators(machine, later + [junk])

        result = auditor.audit(live, start=0, until=1)
        assert result.phase is AuditPhase.SEMANTIC_CHECK
        evidence = result.evidence
        assert evidence.authenticators == [
            min(later, key=lambda auth: auth.sequence)]
        assert evidence.segment.last_sequence == \
            evidence.authenticators[0].sequence > junk.sequence
        assert evidence.verify(ctx.keystore, ctx.reference_images[machine])


# ---------------------------------------------------------------------------
# A third party verifies each authenticator once
# ---------------------------------------------------------------------------

class TestEvidenceVerifiesEachAuthenticatorOnce:
    @pytest.fixture(scope="class")
    def conviction(self):
        """A ``tamper-modify`` kv conviction: evidence, keys and image."""
        spec = CellSpec("tamper-modify", "kv", "full", 2, 1100)
        matrix = ScenarioMatrix()
        adversary = make_adversary(spec.adversary, seed=spec.seed)
        ctx, run = matrix._build(spec, adversary, None)
        adversary.install(ctx)
        run()
        adversary.corrupt(ctx)
        result = matrix._audit(spec, ctx, adversary, {})[ctx.byzantine]
        assert result.phase is AuditPhase.AUTHENTICATOR_CHECK
        return result.evidence, ctx.keystore, ctx.reference_images[ctx.byzantine]

    @staticmethod
    def _counted(monkeypatch):
        """The signatures every ``RsaPublicKey.verify`` call is given."""
        calls = []
        verify = RsaPublicKey.verify

        def counting(self, message, signature):
            calls.append(signature)
            return verify(self, message, signature)
        monkeypatch.setattr(RsaPublicKey, "verify", counting)
        return calls

    @staticmethod
    def _covering(evidence):
        segment = evidence.segment
        return [auth for auth in evidence.authenticators
                if auth.machine == evidence.machine
                and segment.first_sequence <= auth.sequence
                <= segment.last_sequence]

    def test_one_verification_per_covering_authenticator(self, conviction,
                                                         monkeypatch):
        evidence, keystore, image = conviction
        covering = self._covering(evidence)
        assert len(covering) > 1
        calls = self._counted(monkeypatch)
        assert evidence.verify(keystore, image) is True
        assert len(calls) == len(covering)

    def test_no_valid_one_is_refused_each_verified_once(self, conviction,
                                                        monkeypatch):
        evidence, keystore, image = conviction
        rng = random.Random(7)
        spoiled = replace(evidence, authenticators=[
            flipped_signature(auth, rng) for auth in evidence.authenticators])
        calls = self._counted(monkeypatch)
        with pytest.raises(EvidenceError, match="no valid authenticator"):
            spoiled.verify(keystore, image)
        for auth in self._covering(spoiled):
            assert calls.count(auth.signature) == 1
