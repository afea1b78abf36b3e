#!/usr/bin/env python3
"""Parent-vs-change verdicts from benchmark result files.

``compare.py --parent P1.json P2.json ... --change C1.json C2.json ...``

Files are what ``run.py`` writes (``bench/out/result-seed<N>.json`` or a
single ``--report``); the i-th parent file is paired with the i-th change
file, so list them in the order the pairs were run.  For every workload and
end-to-end metric it prints both medians and quartiles, the ratio with its
base, and a verdict:

* ``improved``   the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the distance
  between the parent's quartiles;
* ``regressed``  the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` the run-to-run spread of either side is wider than the
  bound, and not every change run beats every parent run;
* ``unchanged``  otherwise.

All end-to-end metrics are lower-is-better.  Exit status 1 if anything
regressed or either side has failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> Dict[str, dict]:
    """Untraced runs of one result file, by workload."""
    data = json.loads(Path(path).read_text())
    runs = data["runs"] if "runs" in data else [data]
    return {run["workload"]: run for run in runs
            if not run["header"]["traced"]}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def verdict(parent: List[float], change: List[float], bound: float) -> str:
    p1, p_median, p3 = quartiles(parent)
    c1, c_median, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(c < p for p, c in pairs)
    if wins >= 0.9 * len(pairs) and p_median - c_median > p3 - p1:
        return "improved"
    if c_median > p_median * (1.0 + bound):
        return "regressed"
    spread = max((p3 - p1) / p_median, (c3 - c1) / c_median)
    if spread > bound and not max(change) < min(parent):
        return "unresolved"
    return "unchanged"


def compare(parents: List[Dict[str, dict]], changes: List[Dict[str, dict]],
            bounds: Dict[str, float], out=sys.stdout) -> bool:
    """Print the table; returns whether the change is free of regressions."""
    ok = True
    for workload in parents[0]:
        sides = {}
        for side, runs in (("parent", parents), ("change", changes)):
            ops = sum(run[workload]["ops"] for run in runs)
            failed = sum(run[workload]["failed_ops"] for run in runs)
            sides[side] = f"{failed}/{ops} = {failed / ops:.4f}"
            ok = ok and failed == 0
        print(f"{workload}: failed_ops/ops  parent {sides['parent']}  "
              f"change {sides['change']}", file=out)
        for metric, bound in bounds.items():
            parent = [run[workload]["metrics"][metric]["value"]
                      for run in parents]
            change = [run[workload]["metrics"][metric]["value"]
                      for run in changes]
            unit = parents[0][workload]["metrics"][metric]["unit"]
            p1, p_median, p3 = quartiles(parent)
            c1, c_median, c3 = quartiles(change)
            result = verdict(parent, change, bound)
            ok = ok and result != "regressed"
            print(f"  {workload:<11} {metric:<13} "
                  f"parent {p_median:.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"change {c_median:.6g} [{c1:.6g}, {c3:.6g}] {unit}  "
                  f"ratio {c_median / p_median:.3f} of {p_median:.6g} {unit}  "
                  f"bound {bound:.0%}  {result}", file=out)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("runs come in pairs: as many --parent as --change files")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"]
              for metric in benchmark["end_to_end"]}
    ok = compare([load(path) for path in args.parent],
                 [load(path) for path in args.change], bounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
