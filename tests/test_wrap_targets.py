"""Every wrap point of the benchmark's tracer names code that exists.

``bench/trace.py`` times the library from outside, by dotted name
(:data:`TARGETS`); a target that no longer resolves is skipped with a warning
and silently empties its ledger row.  These fast tests resolve every target
the way the tracer does, one test per target, so a rename or deletion in
``src/`` fails here under the target's own name, not only in the benchmark's
own smoke test.  The targets already dead are pinned: a test fails on any new
one, and on a pinned one that resolves again.  A traced fleet run then checks
that the wrappers see every layer of the pipeline.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.service.fleet import build_fleet
from repro.store.archive import LogArchive

ROOT = Path(__file__).resolve().parents[1]

#: targets ``bench/trace.py`` still names whose code is gone from ``src/``:
#: the v2 binary codec (deleted with format 2), the streaming cross-checker
#: and batched RSA verification (folded into the audit kernel), and the
#: serial front-end (every audit is the engine's plan)
KNOWN_MISSING = {
    "repro.audit.auditor.Auditor.audit_segment",
    "repro.log.codec.BinaryCodec.encode_segment",
    "repro.log.codec.BinaryCodec.decode_segment",
    "repro.audit.stream.StreamingCrossChecker.feed",
    "repro.audit.stream.StreamingCrossChecker.finish",
    "repro.crypto.signatures.RsaVerifyKey.verify_many",
}


def _bench_trace():
    spec = importlib.util.spec_from_file_location(
        "bench_trace_under_test", ROOT / "bench" / "trace.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look themselves up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TRACE = _bench_trace()


def _resolves(dotted: str) -> bool:
    try:
        TRACE._resolve(dotted)
    except (ImportError, AttributeError):
        return False
    return True


@pytest.mark.parametrize("dotted", [target.dotted for target in TRACE.TARGETS])
def test_wrap_target_resolves(dotted):
    if dotted in KNOWN_MISSING:
        assert not _resolves(dotted), \
            "a pinned dead wrap target resolves again: unpin it"
    else:
        assert _resolves(dotted), \
            "a wrap target of bench/trace.py no longer resolves"


def test_pins_name_targets_of_the_table():
    assert KNOWN_MISSING <= {target.dotted for target in TRACE.TARGETS}


def test_traced_fleet_covers_every_layer(tmp_path):
    """Record, ship, ingest and audit under the wrappers: each layer's span
    is closed at least once, the wrappers come off again, and the spans
    written out are one record per span."""
    tracer = TRACE.Tracer()
    unwrapped = LogArchive.append_segment
    with TRACE.installed(tracer):
        assert LogArchive.append_segment is not unwrapped
        fleet = build_fleet(num_machines=2, duration=4.0,
                            snapshot_interval=2.0,
                            archive=LogArchive(tmp_path / "archive"))
        tracer.phase = "audit"
        verdicts = {}
        for machine in fleet.machines:
            verdicts[machine] = fleet.ingest.audit_machine(
                fleet.make_auditor(machine, collect=False), machine).ok
    assert verdicts and all(verdicts.values()), verdicts
    assert not tracer.stack
    assert set(tracer.missing) == KNOWN_MISSING
    assert LogArchive.append_segment is unwrapped
    for span in ("crypto.sign", "log.append", "vm.exec", "avmm.deliver",
                 "avmm.snapshot", "avmm.ship", "network.send",
                 "service.ingest", "store.write"):
        assert tracer.total("setup", span).calls > 0, span
    for span in ("audit.run", "store.read", "log.decode", "avmm.replay"):
        assert tracer.total("audit", span).calls > 0, span

    path = tmp_path / "spans.jsonl"
    count = tracer.write_spans(path)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert count == len(spans) > 0
    assert len({span["id"] for span in spans}) == len(spans)
    for span in spans:
        assert span["start"] <= span["end"]
        assert span["phase"] in ("setup", "audit")
