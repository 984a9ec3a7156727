"""S9 — the LCA query-serving layer (ISSUE 9).

PR 9 adds query access to the seeded random-greedy matching: answer
"who is v matched to?" by exploring only the neighborhood the answer
depends on (``repro.lca``), instead of computing the whole matching.
This bench measures the serving economics:

* **serving cells** (under ``"cells"``) — per graph size ``n``:
  consistency is asserted first (the mapping induced by point queries
  equals one global :func:`repro.lca.random_greedy_matching` run —
  byte-identical over all vertices up to n=20000, over a 2000-vertex
  random sample beyond, through the bare resolver and the service),
  then a fresh service serves a batch of uniform ``mate_of`` queries.
  Recorded: queries/sec, mean probes per query, the global scan/rounds
  engine times, and

  - ``speedup`` — one global run (its *faster* engine) vs serving the
    cell's query batch: "this many lookups cost 1/speedup of a full
    recompute";
  - ``crossover_queries`` — the honest break-even: how many point
    queries one global run buys (global seconds / per-query seconds).
    Below it the LCA is strictly cheaper even vs a single recompute.

* **probe curves** (under ``"curves"``) — mean probes/query vs ``n``
  at fixed average degree (:func:`repro.analysis.lca_query_curve`),
  the shape the LCA theorems bound (polylog per query, PAPERS.md:
  Alon–Rubinfeld–Vardi, Reingold–Vardi).

Run as a script for the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_s9_lca.py --out s9.json

``--quick`` restricts to n=2000 and n=20000; ``--check`` exits 2 if
the n=2000 cell serves below 1000 queries/sec (consistency is asserted
on every cell regardless — a mismatch raises before any time is
reported).  The committed full run (up to n=10^6
on the streamed scale-tier generators) lives at
``benchmarks/results/s9_lca.json``.
"""

from __future__ import annotations

import sys
import time
from typing import Any

import numpy as np

import harness
from repro.analysis import format_table, print_banner
from repro.analysis.lca_curves import crossover_queries, lca_query_curve
from repro.graphs.generators import gnp_random
from repro.lca import LcaMatching, MatchingService, random_greedy_matching

#: Average degree of the G(n, p) serving graphs.
AVG_DEG = 8.0
#: Full-map consistency check up to here; random-sample beyond.
FULL_CHECK_MAX_N = 20_000
#: Sample size for the consistency check on large graphs.
SAMPLE_CHECK = 2000
#: The CI gate cell.
SMOKE_N = 2000
#: ``--check`` fails below this many queries/sec on the gate cell: far
#: below the measured ~10^5, so only a real regression trips it.
MIN_QPS = 1000.0


def _assert_consistent(g, seed: int, truth: np.ndarray) -> str:
    """The resolver and the service agree with the oracle; returns the mode."""
    if g.n <= FULL_CHECK_MAX_N:
        vertices = np.arange(g.n)
        mode = "full"
    else:
        vertices = np.random.default_rng(seed).integers(
            g.n, size=SAMPLE_CHECK
        )
        mode = f"sample-{SAMPLE_CHECK}"
    svc = MatchingService(g, seed)
    bare = LcaMatching(g, seed)
    for v in vertices.tolist():
        want = int(truth[v])
        if not svc.mate_of(v) == bare.mate_of(v) == want:
            raise AssertionError(
                f"LCA/oracle mismatch at n={g.n} seed={seed} vertex={v}"
            )
    return mode


def run_cell(n: int, seed: int, queries: int) -> dict[str, Any]:
    """One serving cell: consistency, global engines, cold service."""
    g = gnp_random(n, AVG_DEG / (n - 1), seed=seed)

    t0 = time.perf_counter()
    oracle_scan = random_greedy_matching(g, seed, method="scan")
    scan_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle_rounds = random_greedy_matching(g, seed, method="rounds")
    rounds_s = time.perf_counter() - t0
    truth = oracle_scan.mate_array()
    if not np.array_equal(truth, oracle_rounds.mate_array()):
        raise AssertionError(f"scan/rounds oracle divergence at n={n}")
    check_mode = _assert_consistent(g, seed, truth)

    svc = MatchingService(g, seed)
    vs = np.random.default_rng(seed + 1).integers(n, size=queries).tolist()
    t0 = time.perf_counter()
    for v in vs:
        svc.mate_of(v)
    serve_s = time.perf_counter() - t0
    st = svc.stats
    global_best_s = min(scan_s, rounds_s)
    per_query = serve_s / queries
    return {
        "workload": "lca_serving",
        "n": n,
        "m": g.m,
        "seed": seed,
        "queries": queries,
        "consistency": check_mode,
        "identical_results": True,
        "matching_size": len(oracle_scan),
        "global_scan_s": round(scan_s, 4),
        "global_rounds_s": round(rounds_s, 4),
        "global_best_s": round(global_best_s, 4),
        "serve_s": round(serve_s, 4),
        "queries_per_sec": round(queries / serve_s, 1),
        "mean_probes": round(st.mean_probes, 3),
        "max_depth": st.max_depth,
        # One global run vs serving this cell's batch of point queries.
        "speedup": round(global_best_s / serve_s, 4),
        # Queries one global run buys (the break-even point).
        "crossover_queries": round(crossover_queries(global_best_s, per_query)),
    }


def run(quick: bool) -> dict[str, Any]:
    sizes = [2000, 20_000] if quick else [2000, 20_000, 200_000, 1_000_000]
    queries = 1500 if quick else 5000
    cells = [run_cell(n, seed=0, queries=queries) for n in sizes]
    curve_ns = [1000, 4000, 16_000] if quick else [1000, 4000, 16_000, 64_000, 256_000]
    curves = lca_query_curve(curve_ns, avg_degree=AVG_DEG, seed=0,
                             queries=min(queries, 2000))
    return {"quick": quick, "avg_degree": AVG_DEG,
            "cells": cells, "curves": curves}


def gate(data: dict[str, Any]) -> list[str]:
    qps = harness.find_cell(data, n=SMOKE_N)["queries_per_sec"]
    if qps < MIN_QPS:
        return [f"n={SMOKE_N} cell serves {qps:.0f} queries/sec, "
                f"below the {MIN_QPS:.0f} gate"]
    return []


def show(data: dict[str, Any]) -> None:
    print_banner(
        "S9 — the LCA query-serving layer",
        "point queries vs one global random-greedy run; "
        "consistency asserted per cell",
    )
    print(format_table(
        ["n", "m", "queries", "qps", "probes/q",
         "global s", "serve s", "speedup", "crossover"],
        [
            [c["n"], c["m"], c["queries"], c["queries_per_sec"],
             c["mean_probes"], c["global_best_s"],
             c["serve_s"], c["speedup"], c["crossover_queries"]]
            for c in data["cells"]
        ],
    ))
    print("\nprobe growth at fixed average degree "
          "(polylog per query is the LCA claim):")
    print(format_table(
        ["n", "m", "mean probes/query", "qps"],
        [
            [int(c["n"]), int(c["m"]), round(c["mean_probes"], 3),
             round(c["queries_per_sec"])]
            for c in data["curves"]
        ],
    ))
    big = data["cells"][-1]
    print(f"\nat n={big['n']}: one global run buys "
          f"~{big['crossover_queries']} point queries (break-even); "
          f"serving {big['queries']} queries took {big['serve_s']} s vs "
          f"{big['global_best_s']} s for one full global run")


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, run, show, gate))
