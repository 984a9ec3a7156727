"""S3 — generator vs array execution backends.

Measures the same workload executed by both backends through the
public wrappers (``luby_mis`` / ``israeli_itai_matching`` with
``backend=``):

* **generator** — ``Network``: one Python generator per vertex, real
  message objects, per-group validation/sizing, inbox delivery;
* **array** — the algorithm's array program run as a one-lane batch:
  per-round vectorized NumPy updates over SoA state with CSR
  scatter/gather in place of the whole message plane.

Every cell asserts the two backends produce **equal** ``RunResult``s
(rounds, messages, bits, peak, outputs) before any time is reported —
the speedup is for the *same* computation, not an approximation of it.
Timings are end to end (engine construction, RNG setup and the run),
best of ``reps``.

Workloads: Luby MIS and Israeli–Itai maximal matching across the
scenario families, at n = 2000 and 5000.  The committed full run lives
at ``benchmarks/results/s3_backends.json``.

Run as a script for the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_s3_backends.py --out s3.json

``--quick`` restricts to the n=2000 Luby/BA smoke cell (plus the II
cell on the same graph); ``--check`` exits 2 if the array backend is
slower than the generator backend on that smoke cell — the CI gate.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

import harness
from repro.analysis import format_table, print_banner
from repro.baselines.israeli_itai import israeli_itai_matching
from repro.baselines.luby_mis import luby_mis

#: name -> public wrapper ``run(g, seed=, backend=) -> (output, RunResult)``.
WORKLOADS: dict[str, Callable] = {
    "luby_mis": luby_mis,
    "israeli_itai": israeli_itai_matching,
}

#: The CI smoke cell: (workload, family, n).
SMOKE_CELL = ("luby_mis", "barabasi_albert", 2000)

#: Graph sizes of the full matrix.
SIZES = [2000, 5000]

#: Best-of reps per leg: full run, ``--quick``.
REPS, QUICK_REPS = 3, 2

#: ``--check`` fails below this smoke-cell speedup (the committed full
#: run shows >= 3x at n=5000; CI boxes are noisy).
MIN_SPEEDUP = 1.0


def bench_cell(
    workload: str, family: str, n: int, reps: int, seed: int = 1
) -> dict[str, Any]:
    """One backend-comparison cell; asserts result identity."""
    run = WORKLOADS[workload]
    g = harness.FAMILIES[family](n, 0)
    g.neighbor_sets()  # warm the shared graph caches for both legs
    t_gen, r_gen = harness.best_of(
        lambda: run(g, seed=seed, backend="generator")[1], reps
    )
    t_arr, r_arr = harness.best_of(
        lambda: run(g, seed=seed, backend="array")[1], reps
    )
    assert r_gen == r_arr, f"backends diverged on {workload}/{family} n={n}"
    return {
        "workload": workload,
        "family": family,
        "n": g.n,
        "m": g.m,
        "rounds": r_gen.rounds,
        "messages": r_gen.total_messages,
        "generator_s": t_gen,
        "array_s": t_arr,
        "speedup": t_gen / t_arr,
        "identical_results": True,
    }


def run(quick: bool) -> dict[str, Any]:
    if quick:
        wl, fam, n = SMOKE_CELL
        cells = [bench_cell(wl, fam, n, QUICK_REPS),
                 bench_cell("israeli_itai", fam, n, QUICK_REPS)]
        return {"sizes": [n], "cells": cells}
    cells = [
        bench_cell(workload, family, n, REPS)
        for n in SIZES
        for workload in WORKLOADS
        for family in harness.FAMILIES
    ]
    return {"sizes": SIZES, "cells": cells}


def gate(data: dict[str, Any]) -> list[str]:
    wl, fam, n = SMOKE_CELL
    speedup = harness.find_cell(data, workload=wl, family=fam, n=n)["speedup"]
    if speedup < MIN_SPEEDUP:
        return [f"array backend slower than generator on the "
                f"{SMOKE_CELL} smoke cell ({speedup:.2f}x)"]
    return []


def show(data: dict[str, Any]) -> None:
    print_banner(
        "S3 — generator vs array execution backends",
        "equal RunResults asserted per cell; only the engine changes",
    )
    print(format_table(
        ["workload", "family", "n", "rounds", "msgs",
         "gen s", "arr s", "speedup"],
        [
            [c["workload"], c["family"], c["n"], c["rounds"], c["messages"],
             c["generator_s"], c["array_s"], c["speedup"]]
            for c in data["cells"]
        ],
    ))
    best = max(data["cells"], key=lambda c: c["speedup"])
    print(f"\nbest end-to-end speedup {best['speedup']:.2f}x "
          f"({best['workload']}/{best['family']} n={best['n']})")


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, run, show, gate))
