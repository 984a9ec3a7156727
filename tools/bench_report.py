"""Aggregate the committed bench artifacts into one trend table.

Each subsystem bench (``benchmarks/bench_s*.py``) commits a full run
under ``benchmarks/results/s*.json`` with its own schema, but every
cell carries a ``speedup`` (plus, where measured, a round-loop
``loop_speedup`` / ``end_to_end_speedup``).  This tool normalizes them
into one per-subsystem × per-workload summary — the performance
trajectory across PRs — prints it, and writes it to ``BENCH_S10.json``
at the repo root (regenerate after committing a new ``s*.json``)::

    PYTHONPATH=src python tools/bench_report.py

Exit status is nonzero when no artifacts are found, so CI can use it
as a sanity check that the committed results stay loadable.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Any

#: What each subsystem's ``speedup`` compares (kept in sync with the
#: bench module docstrings).
COMPARISONS = {
    "s3_backends": "array backend vs generator backend (end to end)",
    "s4_batched": "one batched run vs N sequential array runs (end to end)",
    "s5_weighted": "weighted pipeline: array/batched leg vs reference leg "
                   "(end to end)",
    "s6_switch": "vectorized switch engine vs scalar cell-slot loop "
                 "(end to end, equal SwitchStats)",
    "s7_scale": "scale tier: kopt array vs generator leg, int32 vs int64 "
                "CSR (end to end)",
    "s8_switch_batched": "one batched switch execution vs N sequential "
                         "one-lane runs (end to end, equal per-seed "
                         "SwitchStats)",
    "s9_lca": "one full global random-greedy run vs LCA-serving the "
              "cell's point-query batch (consistency asserted; "
              "crossover_queries records the honest break-even)",
    "s10_faults": "fault-free run vs the same run through the fault "
                  "seam (noop plan = the <1.05x overhead gate; active "
                  "epsilon-loss plan = the real filtering cost; "
                  "identity asserted before timing)",
}


def summarize_file(path: pathlib.Path) -> dict[str, Any]:
    """One committed artifact -> per-workload speedup summary."""
    data = json.loads(path.read_text())
    cells = data.get("cells", [])
    workloads: dict[str, list[float]] = {}
    for cell in cells:
        workloads.setdefault(cell["workload"], []).append(float(cell["speedup"]))
    return {
        "comparison": COMPARISONS.get(path.stem, "speedup vs reference leg"),
        "cells": len(cells),
        "workloads": {
            name: {
                "cells": len(vals),
                "best_speedup": max(vals),
                "median_speedup": statistics.median(vals),
            }
            for name, vals in sorted(workloads.items())
        },
    }


def build_report(results_dir: pathlib.Path) -> dict[str, Any]:
    files = sorted(results_dir.glob("s*.json"))
    return {
        "generated_by": "tools/bench_report.py",
        "sources": [str(f.relative_to(results_dir.parent.parent)) for f in files],
        "subsystems": {f.stem: summarize_file(f) for f in files},
    }


def render(report: dict[str, Any]) -> str:
    lines = ["subsystem     workload              cells  median   best",
             "-----------   --------------------  -----  ------  -----"]
    for sub, summary in report["subsystems"].items():
        for wl, s in summary["workloads"].items():
            lines.append(
                f"{sub:<13} {wl:<21} {s['cells']:>5}  "
                f"{s['median_speedup']:>5.1f}x {s['best_speedup']:>5.1f}x"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results-dir", type=pathlib.Path,
                    default=repo_root / "benchmarks" / "results")
    ap.add_argument("--out", type=pathlib.Path,
                    default=repo_root / "BENCH_S10.json")
    args = ap.parse_args(argv)
    if not args.results_dir.is_dir():
        print(f"error: no results directory at {args.results_dir}",
              file=sys.stderr)
        return 1
    report = build_report(args.results_dir)
    if not report["subsystems"]:
        print(f"error: no s*.json artifacts under {args.results_dir}",
              file=sys.stderr)
        return 1
    print(render(report))
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
