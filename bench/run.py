#!/usr/bin/env python3
"""The benchmark of record: record → ship → ingest → audit, four workloads.

Two ways in:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process (the gate's contract).  ``--trace 0``
    measures the end-to-end metrics; ``--trace 1`` makes an untraced
    reference pass and a traced pass and reports the per-layer ledger.  The
    last line of standard output is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``.

``run.py --seed N [--traced]``
    Every workload, each in a fresh subprocess, with a readable report and
    one result file ``bench/out/result-seed<N>.json``.

Nothing outside the checkout is read or written: archives live under
``bench/out/`` and are removed when a run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SCHEMA_VERSION = 1

if not (SRC / "repro").is_dir():
    sys.exit(f"bench: no program to measure: {SRC / 'repro'} is missing")
# The script directory would shadow the standard library's ``trace`` module.
sys.path[:] = [str(ROOT), str(SRC)] + [
    entry for entry in sys.path if Path(entry or ".").resolve() != HERE]

from bench import harness, trace  # noqa: E402
from bench.workloads import WORKLOADS, WebRequestTagger  # noqa: E402


def header(seed: int, scale: float, traced: bool) -> dict:
    """What every result file starts with."""
    return {
        "schema_version": SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "env.archive_fs": _filesystem_of(OUT),
        "load": "open loop on the simulated clock; generator lateness 0 "
                "by construction",
    }


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"             # the gate's checkout is not a repository


def _filesystem_of(path: Path) -> str:
    """Type of the filesystem archives are written to (fsync cost varies)."""
    best, kind = "", "unknown"
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            _, mount, fs_type = line.split()[:3]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, kind = mount, fs_type
    except (OSError, ValueError):
        pass
    return kind


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale: float) -> dict:
    workload = WORKLOADS[name](seed, scale)
    work = OUT / f"tmp-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if not traced:
            result, _ = harness.run_rounds(workload, work, seconds)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = harness.end_to_end(result, peak_rss_mb)
            bare_s = min(result.bare_s)
            detail = {"record_tax_x": {
                "value": min(result.record_s) / bare_s,
                "base": f"bare-hw record {bare_s:.4f} s "
                        f"(fastest of {len(result.bare_s)})"}}
        else:
            tracer = trace.Tracer()
            if workload.has_requests:
                tracer.request_of = WebRequestTagger()
            plain, result = harness.run_rounds(workload, work, seconds, tracer)
            # The wrappers must observe, not perturb: everything exact agrees
            # with the untraced pass, and every append went through one.
            result.op(result.exact == plain.exact,
                      f"traced run differs from untraced: {result.exact} "
                      f"!= {plain.exact}")
            appends = tracer.total("record", "log.append").calls
            entries = result.exact["log.entries"] * len(result.record_s)
            result.op(appends in (0, entries),
                      f"{appends} traced appends for {entries} log entries")
            result.ops += plain.ops
            result.failed_ops += plain.failed_ops
            result.failures += plain.failures
            metrics = harness.per_layer(workload, plain, result, tracer)
            OUT.mkdir(parents=True, exist_ok=True)
            spans = tracer.write_spans(OUT / f"spans-{name}.jsonl")
            detail = {"spans": spans, "missing_targets": tracer.missing}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "header": header(seed, scale, traced),
        "workload": name,
        "ops": result.ops,
        "failed_ops": result.failed_ops,
        "failures": result.failures[:20],
        "verdicts": result.verdicts,
        "exact": result.exact,
        "metrics": metrics,
        "detail": detail,
    }


def contract_line(report: dict) -> str:
    """The gate's result object: the metrics ``BENCHMARK.json`` lists.

    The full ledger has rows that are zero by construction on some workload
    (no archive, no conviction); the gate's list leaves those to the report.
    A listed row whose wrap points are all gone reads 0 here.
    """
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = benchmark["per_layer" if report["header"]["traced"]
                       else "end_to_end"]
    metrics = report["metrics"]
    return json.dumps({
        "correct": report["failed_ops"] == 0,
        "attempted": report["ops"],
        "failed": report["failed_ops"],
        "metrics": {item["name"]: {"value": metrics[item["name"]]["value"] or 0,
                                   "unit": item["unit"]}
                    for item in listed},
    })


def print_report(report: dict, stream=sys.stderr) -> None:
    head = report["header"]
    print(f"== {report['workload']}  seed={head['seed']} "
          f"scale={head['scale']} traced={head['traced']} "
          f"archive_fs={head['env.archive_fs']}", file=stream)
    for name, metric in report["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        extra = ""
        if "samples" in metric:
            extra = (f"  (fastest of {metric['samples']}, median "
                     f"{metric['median']:.4g}, max {metric['max']:.4g})")
        print(f"  {name:<28} {shown:>14} {metric['unit']}{extra}", file=stream)
    for name, item in report["detail"].items():
        print(f"  {name}: {item}", file=stream)
    print(f"  verdicts: {report['verdicts']}", file=stream)
    print(f"  ops {report['ops']}  failed_ops {report['failed_ops']}  "
          f"share {report['failed_ops'] / report['ops']:.4f}", file=stream)
    for failure in report["failures"]:
        print(f"  FAILED: {failure}", file=stream)


# ---------------------------------------------------------------------------
# Every workload, one subprocess each
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: float, traced: bool, scale: float) -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    reports = []
    for name in WORKLOADS:
        for trace_flag in ([0, 1] if traced else [0]):
            part = OUT / f"part-{name}-{trace_flag}.json"
            # PYTHONHASHSEED pinned: set iteration order must not be a
            # source of run-to-run difference in what gets recorded.
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace_flag), "--scale", str(scale),
                 "--report", str(part)],
                cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
                stdout=subprocess.DEVNULL, check=True, timeout=900)
            report = json.loads(part.read_text())
            part.unlink()
            print_report(report, sys.stdout)
            reports.append(report)
    # Same seed, separate processes: the exact quantities must agree between
    # the untraced and the traced run too.
    failed = sum(report["failed_ops"] for report in reports)
    by_workload = {}
    for report in reports:
        by_workload.setdefault(report["workload"], []).append(report["exact"])
    for name, exacts in by_workload.items():
        if any(exact != exacts[0] for exact in exacts[1:]):
            failed += 1
            print(f"FAILED: {name}: traced and untraced runs disagree: "
                  f"{exacts}")
    result_path = OUT / f"result-seed{seed}.json"
    result_path.write_text(json.dumps(
        {"header": header(seed, scale, traced), "runs": reports}, indent=1))
    print(f"wrote {result_path.relative_to(ROOT)}; failed ops: {failed}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: also make the traced runs")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies requests / simulated seconds")
    parser.add_argument("--report", help="write the full report here "
                        "instead of printing it (all-workloads mode uses it)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.traced, args.scale)
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale)
    if args.report:
        Path(args.report).write_text(json.dumps(report))
    else:
        print_report(report)
    print(contract_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
