"""The adversary scenario matrix — a Table-1-style detection table, scaled up.

Table 1 of the paper shows that every cheat in the catalog is detectable by
an audit.  This experiment generalises the claim across the whole adversary
catalog: log tampering, chain forks, forged and equivocating authenticators,
lying archive shippers, hidden nondeterminism, unrecorded inputs and cheating
guests — each crossed with workloads, audit modes and fleet sizes
(:mod:`repro.adversary.matrix`).  The printed table reports, per adversary:

* how many cells ran and in which audit modes,
* the detection rate (must be 100% for misbehaving adversaries, 0% — i.e.
  no accusation — for the honest control),
* how detection surfaced (audit phase, quarantine, equivocation proof),
* whether every accusation's evidence re-verified independently, and
* false accusations against honest fleet members (must be zero everywhere).
"""

from __future__ import annotations

import argparse
import json
from typing import Tuple

from repro.adversary.matrix import MatrixReport, ScenarioMatrix
from repro.experiments.harness import format_table


def run_matrix(smoke: bool = False) -> MatrixReport:
    """Run the scenario matrix (the smoke subset, or the full grid)."""
    matrix = ScenarioMatrix()
    return matrix.run(matrix.smoke_cells() if smoke else matrix.default_cells())


def _detection_summary(report: MatrixReport, adversary: str) -> Tuple[str, ...]:
    cells = report.cells_for(adversary)
    expected = cells[0].expect_detection if cells else True
    detected = sum(1 for cell in cells if cell.detected)
    modes = ",".join(sorted({cell.spec.mode for cell in cells}))
    surfaces = set()
    for cell in cells:
        if cell.verdict and cell.verdict != "pass":
            surfaces.add(cell.phase or cell.verdict)
        if cell.quarantined_shipments:
            surfaces.add("quarantine")
        if cell.equivocation_proof:
            surfaces.add("equivocation-proof")
        if cell.suspected_by:
            surfaces.add("suspected-at-run-time")
    evidence = all(cell.evidence_verified for cell in cells if cell.detected)
    false_accusations = sum(len(cell.false_accusations) for cell in cells)
    if expected:
        rate = f"{detected}/{len(cells)}"
    else:
        rate = f"{len(cells) - detected}/{len(cells)} clean"
    return (adversary, str(len(cells)), modes, rate,
            ";".join(sorted(surfaces)) or "-",
            "yes" if evidence else "NO",
            str(false_accusations))


def main() -> MatrixReport:
    """Print the detection table for the scenario matrix (``sys.argv``
    holds the flags)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the reduced CI subset of cells")
    parser.add_argument("--json", action="store_true",
                        help="emit the full report as JSON instead of a table")
    args = parser.parse_args()

    report = run_matrix(smoke=args.smoke)
    if args.json:
        payload = report.to_dict()
        payload["smoke"] = args.smoke
        print(json.dumps(payload, indent=2, sort_keys=True))
        return report
    rows = [_detection_summary(report, adversary)
            for adversary in report.adversaries()]
    print(f"Adversary scenario matrix: {len(report.cells)} cells "
          f"({'smoke subset' if args.smoke else 'full grid'})")
    print(format_table(
        ["adversary", "cells", "modes", "detected", "detection surface",
         "evidence ok", "false accusations"], rows))
    print(f"\ndetection rate on misbehaving cells: "
          f"{report.detection_rate:.0%}; false accusations: "
          f"{report.false_accusation_count}; all expectations met: {report.ok}")
    for cell in report.cells:
        if not cell.expectation_met:
            print(f"  !! {cell.describe()}")
    return report


if __name__ == "__main__":
    main()
