"""Sequential greedy baselines.

The paper's introduction: "the greedy algorithm (that repeatedly adds
the heaviest remaining edge to the matching and removes all its
incident edges from the graph) finds a ½-MCM or ½-MWM."  These are the
centralized yardsticks in the comparison table E5.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.matching.matching import Matching


def greedy_maximal_matching(
    g: Graph, rng: np.random.Generator | None = None
) -> Matching:
    """Maximal matching by scanning edges (random order with ``rng``).

    Any maximal matching is a ½-MCM (every M* edge shares an endpoint
    with some M edge, and a vertex of M covers at most one M* edge...
    i.e. each M edge blocks at most two M* edges).
    """
    order = list(g.edge_ids())
    if rng is not None:
        rng.shuffle(order)
    m = Matching(g)
    for eid in order:
        u, v = g.edge_endpoints(eid)
        if m.is_free(u) and m.is_free(v):
            m.add(u, v)
    return m


def greedy_mwm(g: Graph) -> Matching:
    """Heaviest-edge-first greedy: a ½-MWM (Preis/Drake–Hougardy folklore).

    Ties are broken by edge id so the result is deterministic.  The
    weight sort runs on the graph's bulk weight array (stable lexsort:
    descending weight, then ascending edge id).
    """
    order = np.lexsort((np.arange(g.m), -g.weights_array()))
    lo, hi = g.endpoints_array()
    mate = [-1] * g.n
    for u, v in zip(lo[order].tolist(), hi[order].tolist()):
        if mate[u] == -1 and mate[v] == -1:
            mate[u] = v
            mate[v] = u
    return Matching.from_mate_array(g, mate)
