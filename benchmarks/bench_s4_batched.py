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
graphs — so the CI smoke gate runs at n = 500 × 16 seeds.  The
committed full run (``benchmarks/results/s4_batched.json``) predates
bulk lane draws in single-seed runs: its sequential leg still spawned
per-node Generators, hence its ~9–21x.

Run as a script for the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_s4_batched.py --out s4.json

``--quick`` restricts to the n=500 Luby/BA smoke cell (plus the II
cell on the same graph); ``--check`` exits nonzero if the batched run
is slower than the sequential runs on that smoke cell (tighten with
``--min-speedup``) — the CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable

from repro.analysis import format_table, print_banner
from repro.baselines.israeli_itai import (
    israeli_itai_matching,
    israeli_itai_matching_batched,
)
from repro.baselines.luby_mis import luby_mis, luby_mis_batched

try:
    from conftest import once
except ImportError:  # script mode: conftest only exists for pytest runs
    once = None

FAMILIES: dict[str, Callable[[int, int], Any]] = {}


def _build_families() -> None:
    from repro.graphs.generators import (
        barabasi_albert,
        gnp_random,
        powerlaw_configuration,
        watts_strogatz,
    )

    FAMILIES.update(
        {
            "barabasi_albert": lambda n, s: barabasi_albert(n, 4, seed=s),
            "watts_strogatz": lambda n, s: watts_strogatz(n, 4, 0.1, seed=s),
            "gnp": lambda n, s: gnp_random(n, 4.0 / n, seed=s),
            "powerlaw": lambda n, s: powerlaw_configuration(n, 2.5, seed=s),
        }
    )


_build_families()

WORKLOADS: dict[str, tuple[Callable, Callable]] = {
    # name -> (single-seed wrapper, batched wrapper)
    "luby_mis": (luby_mis, luby_mis_batched),
    "israeli_itai": (israeli_itai_matching, israeli_itai_matching_batched),
}

#: The CI smoke cell: (workload, family, n, num_seeds) — the
#: dispatch-dominated regime the batch seam is for.
SMOKE_CELL = ("luby_mis", "barabasi_albert", 500, 16)


def _best_of(fn: Callable[[], Any], reps: int) -> tuple[float, Any]:
    """Best-of-reps seconds and the last result."""
    best, result = None, None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best, result


def bench_cell(
    workload: str, family: str, n: int, num_seeds: int, reps: int
) -> dict[str, Any]:
    """One batched-vs-sequential cell; asserts per-seed result identity."""
    single, batched = WORKLOADS[workload]
    g = FAMILIES[family](n, 0)
    g.neighbor_sets()  # warm the shared graph caches for both legs
    seeds = list(range(1, num_seeds + 1))
    t_seq, r_seq = _best_of(
        lambda: [single(g, seed=s, backend="array")[1] for s in seeds], reps
    )
    t_bat, r_bat = _best_of(
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


def run_s4(
    sizes: list[int], num_seeds: int, reps: int, quick: bool = False
) -> dict[str, Any]:
    cells = []
    if quick:
        wl, fam, n, k = SMOKE_CELL
        cells.append(bench_cell(wl, fam, n, k, reps))
        cells.append(bench_cell("israeli_itai", fam, n, k, reps))
    else:
        for n in sizes:
            for workload in WORKLOADS:
                for family in FAMILIES:
                    cells.append(bench_cell(workload, family, n, num_seeds, reps))
        wl, fam, n, k = SMOKE_CELL
        if not any(
            (c["workload"], c["family"], c["n"], c["num_seeds"])
            == (wl, fam, n, k)
            for c in cells
        ):
            # Keep --check functional on full runs: the gate cell is
            # smaller than the default matrix sizes since ISSUE 5.
            cells.append(bench_cell(wl, fam, n, k, reps))
    return {
        "sizes": sizes if not quick else [SMOKE_CELL[2]],
        "num_seeds": num_seeds if not quick else SMOKE_CELL[3],
        "cells": cells,
    }


def smoke_speedup(data: dict[str, Any]) -> float:
    """Batched-vs-sequential end-to-end speedup of the CI smoke cell."""
    wl, fam, n, k = SMOKE_CELL
    for c in data["cells"]:
        if (c["workload"], c["family"], c["n"], c["num_seeds"]) == (wl, fam, n, k):
            return c["speedup"]
    raise LookupError(f"smoke cell {SMOKE_CELL} not in this run")


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


def test_batched_speedup(benchmark, report):
    data = once(benchmark, lambda: run_s4([500], 16, reps=2, quick=True))
    report(show, data)
    for c in data["cells"]:
        assert c["identical_results"]
    # CI boxes are noisy; a healthy run shows ~2x on the n=500 cell.
    assert smoke_speedup(data) >= 1.0, data


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[2000],
                    help="graph sizes for the full matrix")
    ap.add_argument("--num-seeds", type=int, default=16,
                    help="seeds per batch")
    ap.add_argument("--reps", type=int, default=None,
                    help="best-of reps (default: 3, or 2 with --quick)")
    ap.add_argument("--quick", action="store_true",
                    help="only the n=500 Luby/BA + II smoke cells")
    ap.add_argument("--check", action="store_true",
                    help="exit 2 if the batched run is slower than the "
                         "sequential runs on the Luby/BA smoke cell")
    ap.add_argument("--min-speedup", type=float, default=1.0,
                    help="threshold for --check (default 1.0; the "
                         "committed run clears 1.5 with a wide margin)")
    ap.add_argument("--out", type=str, default=None,
                    help="write the JSON report here")
    args = ap.parse_args(argv)
    reps = args.reps if args.reps is not None else (2 if args.quick else 3)
    data = run_s4(args.sizes, args.num_seeds, reps, quick=args.quick)
    show(data)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(data, fh, indent=2)
        print(f"\nwrote {args.out}")
    if args.check:
        try:
            speedup = smoke_speedup(data)
        except LookupError as e:
            print(f"FAIL: {e}", file=sys.stderr)
            return 2
        if speedup < args.min_speedup:
            print(f"FAIL: batched execution below {args.min_speedup:.2f}x on "
                  f"the {SMOKE_CELL} smoke cell ({speedup:.2f}x)",
                  file=sys.stderr)
            return 2
        print(f"check ok: smoke-cell batched speedup {speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
