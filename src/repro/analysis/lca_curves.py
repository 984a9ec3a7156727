"""Query-cost curves for the LCA serving layer.

The serving benchmark's two questions, as reusable measurements:

* :func:`lca_query_curve` — for each ``n``, build a sparse random
  graph, serve a fixed mix of point queries, and record the measured
  queries/sec, mean probes per query and dependency depth.  The LCA
  theory (PAPERS.md: Alon–Rubinfeld–Vardi, Reingold–Vardi) bounds
  probes-per-query polylogarithmically in n while a global run grows
  like m — the curve makes that visible.
* :func:`crossover_queries` — the honest break-even: how many point
  queries one full global run buys.  Below the crossover, serving
  queries via the LCA is strictly cheaper than recomputing the
  matching even once; above it, a global run amortizes better.

Used by ``benchmarks/bench_s9_lca.py`` and ``examples/lca_queries.py``.
"""

from __future__ import annotations

import math
import time
from typing import Any, Iterable

import numpy as np

from repro.graphs.generators import gnp_random
from repro.lca.service import MatchingService


def serve_queries(
    service: MatchingService,
    vertices: Iterable[int],
) -> dict[str, float]:
    """Serve ``mate_of`` queries for ``vertices``; return timing + cost.

    Returns ``queries``, ``seconds``, ``queries_per_sec``,
    ``mean_probes``, ``max_depth`` for exactly this batch (the
    service's lifetime aggregates are left to the caller).
    """
    before = service.stats.merge(type(service.stats)())  # snapshot copy
    vs = [int(v) for v in vertices]
    t0 = time.perf_counter()
    for v in vs:
        service.mate_of(v)
    seconds = time.perf_counter() - t0
    agg = service.stats
    queries = agg.queries - before.queries
    probed = agg.edges_probed - before.edges_probed
    return {
        "queries": float(queries),
        "seconds": seconds,
        "queries_per_sec": queries / seconds if seconds > 0 else math.inf,
        "mean_probes": probed / queries if queries else 0.0,
        "max_depth": float(agg.max_depth),
    }


def lca_query_curve(
    ns: Iterable[int],
    *,
    avg_degree: float = 8.0,
    seed: int = 0,
    queries: int = 2000,
) -> list[dict[str, Any]]:
    """Probe cost and throughput vs graph size, one dict per ``n``.

    Each cell builds ``gnp_random(n, avg_degree/(n-1))`` (streamed;
    scale tier), serves ``queries`` uniformly drawn ``mate_of``
    queries, and records the :func:`serve_queries` measurements plus
    the cell parameters.
    """
    out: list[dict[str, Any]] = []
    for n in ns:
        n = int(n)
        g = gnp_random(n, min(1.0, avg_degree / max(1, n - 1)), seed=seed)
        svc = MatchingService(g, seed)
        rng = np.random.default_rng(seed)
        cell = serve_queries(svc, rng.integers(n, size=queries).tolist())
        cell.update({"n": n, "m": g.m, "avg_degree": avg_degree, "seed": seed})
        out.append(cell)
    return out


def crossover_queries(global_seconds: float, per_query_seconds: float) -> float:
    """Queries one global run buys: ``global_seconds / per_query_seconds``.

    Serving fewer than this many point lookups through the LCA is
    cheaper than computing the whole matching once; past it, the
    global run amortizes better (assuming every lookup is needed).
    """
    if per_query_seconds <= 0:
        return math.inf
    return global_seconds / per_query_seconds
