"""Local computation access to the seeded random-greedy matching.

The global engines in this repository answer "compute the whole
matching"; this package answers the production question the ROADMAP
calls the millions-of-point-lookups mode: *given a huge graph and
shared randomness, is this edge matched? who is this vertex matched
to?* — each query exploring only the small neighborhood the answer
depends on (Alon–Rubinfeld–Vardi space-efficient LCAs and
Reingold–Vardi's tighter bounds are the recipe; PAPERS.md).

Layers, bottom up:

* :mod:`repro.lca.ranks` — the shared seeded randomness: a per-edge
  64-bit rank, scalar and vectorized implementations bit-identical;
* :mod:`repro.lca.oracle` — :func:`random_greedy_matching`, the global
  run (reference scan + vectorized local-minima rounds) every point
  query provably agrees with;
* :mod:`repro.lca.lca` — :class:`LcaMatching`, the stateless
  per-query resolver with exploration counters
  (:class:`repro.distributed.metrics.LcaProbeStats`);
* :mod:`repro.lca.service` — :class:`MatchingService`, the serving
  layer: point and batched queries over one resolver.

Every query is answered from the shared random ranks alone, by a fresh
exploration; nothing is kept between queries, so the answers cannot
depend on what was asked before.

Also runnable from the shell: ``python -m repro lca --n 2000 --p 0.004
--queries 5000 --verify``.
"""

from repro.lca.lca import LcaMatching
from repro.lca.oracle import random_greedy_matching, rank_order
from repro.lca.ranks import edge_rank, edge_ranks
from repro.lca.service import BatchResult, MatchingService

__all__ = [
    "BatchResult",
    "LcaMatching",
    "MatchingService",
    "edge_rank",
    "edge_ranks",
    "random_greedy_matching",
    "rank_order",
]
