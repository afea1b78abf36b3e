"""Smoke test of the benchmark of record (scale 0.05, well under a minute).

Run with ``python -m pytest bench/tests -q``.  It checks the benchmark's own
contract — names, correctness accounting, conviction, the comparison tool
and the refactor-proof wrap points — not the program's performance.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "run.py"
OUT = ROOT / "bench" / "out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SCALE = "0.05"
#: seeds nobody would use for a real run: result files are named after them
SEEDS = (9042, 9043)


def _run_all(seed: int, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--seed", str(seed), "--scale", SCALE,
         "--seconds", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((OUT / f"result-seed{seed}.json").read_text())


@pytest.fixture(scope="module")
def results():
    yield _run_all(SEEDS[0], "--traced"), _run_all(SEEDS[1])
    for seed in SEEDS:
        (OUT / f"result-seed{seed}.json").unlink(missing_ok=True)


def _runs(result: dict, traced: bool) -> dict:
    return {run["workload"]: run for run in result["runs"]
            if run["header"]["traced"] is traced}


def test_every_named_metric_and_workload_appears(results):
    full, _ = results
    workloads = [item["name"] for item in BENCHMARK["workloads"]]
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        runs = _runs(full, traced)
        assert sorted(runs) == sorted(workloads)
        for run in runs.values():
            for item in BENCHMARK[key]:
                assert NAME.fullmatch(item["name"])
                metric = run["metrics"][item["name"]]
                assert metric["unit"] == item["unit"]
                assert isinstance(metric["value"], (int, float))
    for name in workloads:
        assert NAME.fullmatch(name)


def test_result_header_is_shared(results):
    for result in results:
        for run in result["runs"]:
            assert set(run["header"]) >= {
                "schema_version", "git_sha", "python", "nproc", "seed",
                "scale", "traced", "env.archive_fs"}


def test_no_failed_ops_and_cheat_convicted(results):
    for result in results:
        for run in result["runs"]:
            assert run["failed_ops"] == 0, run["failures"]
            assert run["ops"] >= 1
            verdicts = run["verdicts"]
            if run["workload"] == "web_cheat":
                assert verdicts["web-server"] == \
                    "fail@semantic_check(evidence_verified=True)"
                assert verdicts["web-client"] == "pass"
            else:
                assert set(verdicts.values()) == {"pass"}


def test_fallbacks_only_on_the_cheat(results):
    for name, run in _runs(results[0], traced=True).items():
        fallbacks = run["metrics"]["audit.fallbacks"]["value"]
        second_pass = run["metrics"]["audit.second_pass_entries"]["value"]
        if name == "web_cheat":
            assert fallbacks > 0 and second_pass > 0
        else:
            assert fallbacks == 0 and second_pass == 0
        assert run["detail"]["missing_targets"] == []


def test_contract_line():
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "web_honest", "--seed", "5",
         "--seconds", "0", "--trace", "0", "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [
        item["name"] for item in BENCHMARK["end_to_end"]]
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"} and metric["value"] > 0


def test_compare_reports_no_regression(results):
    first = OUT / f"result-seed{SEEDS[0]}.json"
    second = OUT / f"result-seed{SEEDS[1]}.json"
    # The same two runs on both sides, in swapped order: whatever the
    # machine did between them, the medians agree.
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"),
         "--parent", str(first), str(second),
         "--change", str(second), str(first)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "regressed" not in done.stdout
    assert "improved" not in done.stdout
    for item in BENCHMARK["workloads"]:
        assert f"{item['name']}: failed_ops/ops" in done.stdout


def test_compare_verdict_rule():
    sys.path.insert(0, str(ROOT))
    try:
        from bench.compare import verdict
    finally:
        sys.path.remove(str(ROOT))
    parent = [10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 10.3, 9.9]
    assert verdict(parent, [v * 0.7 for v in parent], 0.1) == "improved"
    assert verdict(parent, [v * 1.2 for v in parent], 0.1) == "regressed"
    assert verdict(parent, list(reversed(parent)), 0.1) == "unchanged"
    noisy = [10.0, 14.0, 8.0, 13.0, 9.0, 12.0, 7.5, 11.0, 10.5, 9.5]
    assert verdict(noisy, list(reversed(noisy)), 0.1) == "unresolved"


def test_wrap_points_are_refactor_proof():
    """A vanished target warns and is skipped; wrappers keep their shape."""
    script = """
import inspect, pickle, sys
sys.path[:0] = [%r, %r]
from bench import trace
import repro.log.hashchain as hashchain
import repro.log.codec as codec
import repro.store.archive as archive
trace.TARGETS += (trace.Target("gone", "repro.nope.Renamed.method"),
                  trace.Target("gone", "repro.log.codec.NoSuchCodec.encode"),
                  trace.Target("probe", "repro.log.codec.TypedCodec._pack_header"))
tracer = trace.Tracer()
trace.install(tracer)
assert tracer.missing == ["repro.nope.Renamed.method",
                          "repro.log.codec.NoSuchCodec.encode"], tracer.missing
wrapped = hashchain.verify_chain_incremental
assert pickle.loads(pickle.dumps(wrapped)) is wrapped
assert archive.verify_chain_incremental is wrapped   # by-name importers too
assert inspect.isgeneratorfunction(codec.SegmentStreamDecoder.entries)
assert isinstance(inspect.getattr_static(codec.TypedCodec, "_pack_header"),
                  staticmethod)
print("ok")
""" % (str(ROOT), str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr
    assert done.stderr.count("warning: wrap target") == 2
