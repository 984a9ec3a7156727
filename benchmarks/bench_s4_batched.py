"""S4 — one seed-axis batched run vs one-lane runs per seed.

A sweep repeats the same graph over many seeds.  A single-seed array
run is itself a one-lane batch of the same array program, so this
bench compares two ways of covering a seed list:

* **sequential** — one public single-seed call per seed
  (``luby_mis(..., backend="array")``), each paying backend
  construction, the RNG lane setup and a full NumPy dispatch chain
  (what a sweep cell pays without ``seed_batch``);
* **batched** — one ``*_batched`` call over ``(num_seeds, n)`` SoA
  state, with every per-(seed, node) RNG stream replicated bit-exactly
  by ``repro.distributed.batch_rng``.

Every cell asserts the batched run's per-seed ``RunResult``s **equal**
the sequential runs' before any time is reported — the speedup is for
the *same* computation.  Timings are end to end (the graph is shared
and excluded), best of ``reps``.

Workloads: Luby MIS and Israeli–Itai across the scenario families at
n = 2000 with a 16-seed batch.  The seed-axis win concentrates where
per-run dispatch overhead dominates — many seeds on small-to-mid
graphs — so the CI smoke gate runs at n = 500 × 16 seeds, and full
runs append that cell too.  The committed full run lives at
``benchmarks/results/s4_batched.json``.

Run as a script for the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_s4_batched.py --out s4.json

``--quick`` restricts to the n=500 Luby/BA smoke cell (plus the II
cell on the same graph); ``--check`` exits 2 if the batched run is
slower than the sequential runs on that smoke cell — the CI gate.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

import harness
from repro.analysis import format_table, print_banner
from repro.baselines.israeli_itai import (
    israeli_itai_matching,
    israeli_itai_matching_batched,
)
from repro.baselines.luby_mis import luby_mis, luby_mis_batched

WORKLOADS: dict[str, tuple[Callable, Callable]] = {
    # name -> (single-seed wrapper, batched wrapper)
    "luby_mis": (luby_mis, luby_mis_batched),
    "israeli_itai": (israeli_itai_matching, israeli_itai_matching_batched),
}

#: The CI smoke cell: (workload, family, n, num_seeds) — the
#: dispatch-dominated regime the batch seam is for.
SMOKE_CELL = ("luby_mis", "barabasi_albert", 500, 16)

#: Graph sizes of the full matrix.
SIZES = [2000]

#: Seeds per batch in the full matrix.
NUM_SEEDS = 16

#: Best-of reps per leg: full run, ``--quick``.
REPS, QUICK_REPS = 3, 2

#: ``--check`` fails below this smoke-cell speedup.
MIN_SPEEDUP = 1.0


def bench_cell(
    workload: str, family: str, n: int, num_seeds: int, reps: int
) -> dict[str, Any]:
    """One batched-vs-sequential cell; asserts per-seed result identity."""
    single, batched = WORKLOADS[workload]
    g = harness.FAMILIES[family](n, 0)
    g.neighbor_sets()  # warm the shared graph caches for both legs
    seeds = list(range(1, num_seeds + 1))
    t_seq, r_seq = harness.best_of(
        lambda: [single(g, seed=s, backend="array")[1] for s in seeds], reps
    )
    t_bat, r_bat = harness.best_of(
        lambda: [res for _, res in batched(g, seeds)], reps
    )
    assert r_seq == r_bat, f"batched diverged on {workload}/{family} n={n}"
    return {
        "workload": workload,
        "family": family,
        "n": g.n,
        "m": g.m,
        "num_seeds": num_seeds,
        "rounds_per_seed": [r.rounds for r in r_seq],
        "sequential_s": t_seq,
        "batched_s": t_bat,
        "speedup": t_seq / t_bat,
        "per_seed_ms_sequential": 1e3 * t_seq / num_seeds,
        "per_seed_ms_batched": 1e3 * t_bat / num_seeds,
        "identical_results": True,
    }


def run(quick: bool) -> dict[str, Any]:
    wl, fam, n, k = SMOKE_CELL
    if quick:
        cells = [bench_cell(wl, fam, n, k, QUICK_REPS),
                 bench_cell("israeli_itai", fam, n, k, QUICK_REPS)]
        return {"sizes": [n], "num_seeds": k, "cells": cells}
    cells = [
        bench_cell(workload, family, size, NUM_SEEDS, REPS)
        for size in SIZES
        for workload in WORKLOADS
        for family in harness.FAMILIES
    ]
    # The gate cell is smaller than the matrix sizes, so full runs add
    # it to stay --check-able.
    cells.append(bench_cell(wl, fam, n, k, REPS))
    return {"sizes": SIZES, "num_seeds": NUM_SEEDS, "cells": cells}


def gate(data: dict[str, Any]) -> list[str]:
    wl, fam, n, k = SMOKE_CELL
    speedup = harness.find_cell(
        data, workload=wl, family=fam, n=n, num_seeds=k
    )["speedup"]
    if speedup < MIN_SPEEDUP:
        return [f"batched execution below {MIN_SPEEDUP:.2f}x on the "
                f"{SMOKE_CELL} smoke cell ({speedup:.2f}x)"]
    return []


def show(data: dict[str, Any]) -> None:
    print_banner(
        "S4 — batched multi-seed array execution",
        "per-seed RunResults asserted equal; one batch vs N one-lane runs",
    )
    print(format_table(
        ["workload", "family", "n", "seeds",
         "seq s", "batched s", "speedup", "ms/seed"],
        [
            [c["workload"], c["family"], c["n"], c["num_seeds"],
             c["sequential_s"], c["batched_s"], c["speedup"],
             c["per_seed_ms_batched"]]
            for c in data["cells"]
        ],
    ))
    best = max(data["cells"], key=lambda c: c["speedup"])
    print(f"\nbest end-to-end speedup {best['speedup']:.2f}x "
          f"({best['workload']}/{best['family']} n={best['n']} × "
          f"{best['num_seeds']} seeds)")


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, run, show, gate))
