"""The global random-greedy matching — the LCA's consistency oracle.

:func:`random_greedy_matching` computes, in one global run, exactly
the matching whose membership the LCA answers pointwise: greedy over
the edges in increasing ``(rank, eid)`` order (see
:mod:`repro.lca.ranks`).  Two engines produce it:

* ``method="scan"`` — the reference: sort the edges by rank and scan,
  adding each edge whose endpoints are still free.  This is literally
  the process the LCA's recursive definition unrolls, so it is the
  ground truth the whole test net compares against.
* ``method="rounds"`` — vectorized local-minima rounds: repeatedly
  select every surviving edge that is the ``(rank, eid)``-minimum
  among the surviving edges at *both* its endpoints, add them all,
  drop every edge touching a newly matched vertex.  Folklore (and an
  easy induction on the rank order, sketched below) says this reaches
  the same matching as the sequential scan; the exhaustive and
  property suites pin the mate arrays byte-identical.  This is the
  fast global engine the serving benchmark amortizes against.

Why the rounds engine is exact, not approximate: call an edge *e*
"decided" once it is either selected or dropped.  Induct on edges in
``(rank, eid)`` order.  The order-minimal undecided edge is by
definition the minimum at both endpoints, so the rounds engine selects
it in the current round iff both endpoints are unmatched — exactly the
scan's decision for it — and every edge the scan would drop because of
it is dropped here too.  Hence the decision of every edge agrees with
the scan's.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.matching.matching import Matching

from repro.lca.ranks import edge_ranks

_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


def rank_order(g: Graph, seed: int) -> np.ndarray:
    """Edge ids in increasing ``(rank, eid)`` order — the greedy schedule.

    The stable argsort breaks rank ties by edge id, matching the
    lexicographic key the LCA compares (:mod:`repro.lca.ranks`).
    """
    return np.argsort(edge_ranks(g.m, seed), kind="stable")


def random_greedy_matching(g: Graph, seed: int, *, method: str = "scan") -> Matching:
    """The seeded random-greedy maximal matching of ``g``.

    A pure function of ``(g, seed)``; any two calls — and any set of
    LCA point queries under the same seed — agree edge for edge.
    """
    if method == "scan":
        return _scan(g, seed)
    if method == "rounds":
        return _rounds(g, seed)
    raise ValueError(f"method must be 'scan' or 'rounds', got {method!r}")


def _scan(g: Graph, seed: int) -> Matching:
    order = rank_order(g, seed)
    lo, hi = g.endpoints_array()
    us = lo[order].tolist()
    vs = hi[order].tolist()
    mate = [-1] * g.n
    for u, v in zip(us, vs):
        if mate[u] == -1 and mate[v] == -1:
            mate[u] = v
            mate[v] = u
    return Matching.from_mate_array(g, np.asarray(mate, dtype=np.int64))


def _rounds(g: Graph, seed: int) -> Matching:
    n, m = g.n, g.m
    # The surviving edges as compacted (eid, rank, lo, hi) columns in
    # the graph's index dtype: each round keeps only the edges whose
    # endpoints are both still free.
    u, v = g.endpoints_array()
    e = np.arange(m, dtype=u.dtype)
    r = edge_ranks(m, seed)
    mate = np.full(n, -1, dtype=np.int64)
    best_rank = np.empty(n, dtype=np.uint64)
    best_eid = np.empty(n, dtype=u.dtype)
    while e.size:
        # Per-vertex minimum surviving rank, then minimum eid among the
        # edges achieving it — together the (rank, eid) minimum, so a
        # 64-bit rank collision cannot select two adjacent edges.
        best_rank.fill(_U64_MAX)
        np.minimum.at(best_rank, u, r)
        np.minimum.at(best_rank, v, r)
        best_eid.fill(m)
        at_min_u = r == best_rank[u]
        at_min_v = r == best_rank[v]
        np.minimum.at(best_eid, u[at_min_u], e[at_min_u])
        np.minimum.at(best_eid, v[at_min_v], e[at_min_v])
        win = (best_eid[u] == e) & (best_eid[v] == e)
        mate[u[win]] = v[win]
        mate[v[win]] = u[win]
        keep = (mate[u] == -1) & (mate[v] == -1)
        e, r, u, v = e[keep], r[keep], u[keep], v[keep]
    return Matching.from_mate_array(g, mate)
