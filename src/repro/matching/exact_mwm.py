"""Exact maximum *weight* matching oracles.

Two implementations with disjoint roles:

* :func:`exact_mwm_small` — our own bitmask dynamic program, exact for
  graphs up to ~22 vertices, no third-party dependency.  O(2^n · n)
  time / O(2^n) memory.
* :func:`max_weight_matching` — delegates to
  ``networkx.max_weight_matching`` (Galil's weighted blossom) for
  larger graphs.  This is a *test/benchmark oracle*, not part of the
  reproduced system; the two oracles are cross-checked against each
  other in the test suite.
"""

from __future__ import annotations

from functools import lru_cache

from repro.graphs.graph import Graph
from repro.matching.matching import Matching

_SMALL_LIMIT = 22


def exact_mwm_small(g: Graph) -> Matching:
    """Exact MWM by DP over vertex subsets (n <= 22).

    State = set of vertices still available; transition = either leave
    the lowest available vertex unmatched, or match it to an available
    neighbor.
    """
    n = g.n
    if n > _SMALL_LIMIT:
        raise ValueError(f"exact_mwm_small supports n <= {_SMALL_LIMIT}, got {n}")
    nbr_masks: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in g.iter_weighted_edges():
        nbr_masks[u].append((v, w))
        nbr_masks[v].append((u, w))

    @lru_cache(maxsize=None)
    def best(avail: int) -> tuple[float, int]:
        """Return (weight, chosen-edge-encoding) for the subset ``avail``.

        The second component re-derives the choice at this state: -1
        for "skip lowest vertex", else the matched neighbor.
        """
        if avail == 0:
            return 0.0, -1
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        best_w, choice = best(rest)[0], -1
        for u, w in nbr_masks[v]:
            if avail >> u & 1:
                cand = w + best(rest & ~(1 << u))[0]
                if cand > best_w + 1e-12:
                    best_w, choice = cand, u
        return best_w, choice

    m = Matching(g)
    avail = (1 << n) - 1
    while avail:
        v = (avail & -avail).bit_length() - 1
        _, choice = best(avail)
        avail &= ~(1 << v)
        if choice != -1:
            m.add(v, choice)
            avail &= ~(1 << choice)
    best.cache_clear()
    return m


def max_weight_matching(g: Graph) -> Matching:
    """Exact MWM via networkx (oracle for graphs beyond the DP limit)."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    for u, v, w in g.iter_weighted_edges():
        h.add_edge(u, v, weight=w)
    pairs = nx.max_weight_matching(h, maxcardinality=False)
    m = Matching(g)
    for u, v in pairs:
        m.add(u, v)
    return m
