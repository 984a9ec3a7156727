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
cell on the same graph); ``--check`` exits nonzero if the array
backend is slower than the generator backend on that smoke cell — the
CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable

from repro.analysis import format_table, print_banner
from repro.baselines.israeli_itai import israeli_itai_matching
from repro.baselines.luby_mis import luby_mis

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

#: name -> public wrapper ``run(g, seed=, backend=) -> (output, RunResult)``.
WORKLOADS: dict[str, Callable] = {
    "luby_mis": luby_mis,
    "israeli_itai": israeli_itai_matching,
}

#: The CI smoke cell: (workload, family, n).
SMOKE_CELL = ("luby_mis", "barabasi_albert", 2000)


def _measure(run: Callable, g, backend: str, seed: int, reps: int):
    """Best-of-reps end-to-end seconds and the run's ``RunResult``."""
    best, result = None, None
    for _ in range(reps):
        t0 = time.perf_counter()
        _, result = run(g, seed=seed, backend=backend)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best, result


def bench_cell(
    workload: str, family: str, n: int, reps: int, seed: int = 1
) -> dict[str, Any]:
    """One backend-comparison cell; asserts result identity."""
    run = WORKLOADS[workload]
    g = FAMILIES[family](n, 0)
    g.neighbor_sets()  # warm the shared graph caches for both legs
    t_gen, r_gen = _measure(run, g, "generator", seed, reps)
    t_arr, r_arr = _measure(run, g, "array", seed, reps)
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


def run_s3(
    sizes: list[int], reps: int, quick: bool = False
) -> dict[str, Any]:
    cells = []
    if quick:
        wl, fam, n = SMOKE_CELL
        cells.append(bench_cell(wl, fam, n, reps))
        cells.append(bench_cell("israeli_itai", fam, n, reps))
    else:
        for n in sizes:
            for workload in WORKLOADS:
                for family in FAMILIES:
                    cells.append(bench_cell(workload, family, n, reps))
    return {"sizes": sizes if not quick else [SMOKE_CELL[2]], "cells": cells}


def smoke_speedup(data: dict[str, Any]) -> float:
    """Array-vs-generator speedup of the CI smoke cell."""
    wl, fam, n = SMOKE_CELL
    for c in data["cells"]:
        if (c["workload"], c["family"], c["n"]) == (wl, fam, n):
            return c["speedup"]
    raise LookupError(f"smoke cell {SMOKE_CELL} not in this run")


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


def test_backend_speedup(benchmark, report):
    data = once(benchmark, lambda: run_s3([2000], reps=2, quick=True))
    report(show, data)
    for c in data["cells"]:
        assert c["identical_results"]
    # CI boxes are noisy; the committed full run shows >= 3x at n=5000.
    assert smoke_speedup(data) >= 1.0, data


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[2000, 5000],
                    help="graph sizes for the full matrix")
    ap.add_argument("--reps", type=int, default=None,
                    help="best-of reps (default: 3, or 2 with --quick)")
    ap.add_argument("--quick", action="store_true",
                    help="only the n=2000 Luby/BA + II smoke cells")
    ap.add_argument("--check", action="store_true",
                    help="exit 2 if the array backend is slower than the "
                         "generator backend on the Luby/BA n=2000 cell")
    ap.add_argument("--out", type=str, default=None,
                    help="write the JSON report here")
    args = ap.parse_args(argv)
    reps = args.reps if args.reps is not None else (2 if args.quick else 3)
    data = run_s3(args.sizes, reps, quick=args.quick)
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
        if speedup < 1.0:
            print(f"FAIL: array backend slower than generator on the "
                  f"{SMOKE_CELL} smoke cell ({speedup:.2f}x)", file=sys.stderr)
            return 2
        print(f"check ok: smoke-cell speedup {speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
