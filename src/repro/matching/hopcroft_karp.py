"""Hopcroft–Karp maximum bipartite matching, from scratch.

Reference [13] of the paper.  One phase loop, :func:`hk_mates`, runs
over per-X adjacency lists and returns the X side's mates; three
callers feed it:

* :func:`hopcroft_karp` — the exact bipartite oracle for approximation
  ratios (|M*| in δ-MCM checks);
* :func:`hopcroft_karp_truncated` — runs only the phases with
  augmenting-path length <= 2k−1 and stops, yielding a centralized
  (1−1/k)-MCM *reference* with exactly the guarantee of Theorem 3.8
  (by Lemmas 3.4/3.5).  Tests cross-check the distributed bipartite
  algorithm against it;
* the switch schedulers' request-matrix cores
  (:mod:`repro.switch.schedulers`), which feed each input's ascending
  backlogged outputs — the demand graph's port order, so they match
  the two :class:`~repro.graphs.graph.Graph` wrappers pair for pair.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.matching.matching import Matching


def hk_mates(
    adj: Sequence[Sequence[int]], num_y: int, max_phase_len: int | None
) -> list[int]:
    """Hopcroft–Karp phases over per-X adjacency lists.

    ``adj[x]`` lists X vertex ``x``'s neighbors, Y ids in
    ``range(num_y)``, in the order the DFS visits them.  Each phase
    layers the X side breadth-first from the free X vertices, one layer
    at a time, and stops at the first layer ``d`` with an edge to a free
    Y vertex: the shortest augmenting paths have ``2d + 1`` edges.  A
    DFS from each free X vertex, in index order, then augments along
    the layering's shortest paths, pruning the X vertices it finds dead
    for the rest of the phase.  Phases run while a path exists and,
    when ``max_phase_len`` is given, while ``2d + 1 <= max_phase_len``.
    Returns ``mate_x``: the Y mate of each X vertex, or -1.
    """
    num_x = len(adj)
    mate_x = [-1] * num_x
    mate_y = [-1] * num_y
    unreached = num_x + 1  # above every layer index
    dist = [unreached] * num_x

    def dfs(x: int) -> bool:
        """Augment along a layered path from ``x``; prune it on failure.

        A free Y neighbor ends the path: only the last layer has one,
        since the BFS stopped at the first layer that did.
        """
        deeper = dist[x] + 1
        for y in adj[x]:
            nxt = mate_y[y]
            if nxt == -1 or (dist[nxt] == deeper and dfs(nxt)):
                mate_x[x] = y
                mate_y[y] = x
                return True
        dist[x] = unreached  # dead end for the rest of the phase
        return False

    old_limit = sys.getrecursionlimit()
    try:
        while True:
            layer = []
            for x in range(num_x):
                if mate_x[x] == -1:
                    dist[x] = 0
                    layer.append(x)
                else:
                    dist[x] = unreached
            top = -1
            d = 0
            while layer and top < 0:
                nxt_layer = []
                for x in layer:
                    for y in adj[x]:
                        nxt = mate_y[y]
                        if nxt == -1:
                            top = d
                            break
                        if dist[nxt] == unreached:
                            dist[nxt] = d + 1
                            nxt_layer.append(nxt)
                    if top >= 0:
                        # unlabel the partial layer d + 1, so that every
                        # layered path ends at layer d
                        for v in nxt_layer:
                            dist[v] = unreached
                        break
                layer = nxt_layer
                d += 1
            if top < 0 or (
                max_phase_len is not None and 2 * top + 1 > max_phase_len
            ):
                break
            # the DFS recurses once per layer
            sys.setrecursionlimit(old_limit + top + 1)
            for x in range(num_x):
                if mate_x[x] == -1:
                    dfs(x)
    finally:
        sys.setrecursionlimit(old_limit)
    return mate_x


def _sides(g: Graph, xs: Sequence[int] | None) -> list[int]:
    """One side of ``g``'s bipartition: ``xs`` once checked, else a 2-coloring."""
    if xs is None:
        part = g.bipartition()
        if part is None:
            raise ValueError("graph is not bipartite")
        return part[0]
    arr = np.asarray(xs, dtype=np.int64).reshape(-1)
    bad = arr[(arr < 0) | (arr >= g.n)]
    if bad.size:
        raise ValueError(
            f"xs names vertex {int(bad[0])}, outside 0..{g.n - 1}"
        )
    in_x = np.zeros(g.n, dtype=bool)
    in_x[arr] = True
    if int(in_x.sum()) != arr.size:
        vals, counts = np.unique(arr, return_counts=True)
        raise ValueError(f"xs repeats vertex {int(vals[counts > 1][0])}")
    lo, hi = g.endpoints_array()
    same = np.flatnonzero(in_x[lo] == in_x[hi])
    if same.size:
        e = int(same[0])
        where = "inside" if in_x[lo[e]] else "outside"
        raise ValueError(
            f"edge ({int(lo[e])}, {int(hi[e])}) has both ends {where} xs: "
            "xs must be one side of a bipartition"
        )
    return arr.tolist()


def _hk(g: Graph, xs: list[int], max_phase_len: int | None) -> Matching:
    """The phase loop on ``g``'s port order, as a validated matching."""
    mate_x = hk_mates([g.neighbors(x) for x in xs], g.n, max_phase_len)
    mate = np.full(g.n, -1, dtype=np.int64)
    x_ids = np.asarray(xs, dtype=np.int64)
    y_ids = np.asarray(mate_x, dtype=np.int64)
    hit = y_ids >= 0
    mate[x_ids[hit]] = y_ids[hit]
    mate[y_ids[hit]] = x_ids[hit]
    return Matching.from_mate_array(g, mate)


def hopcroft_karp(g: Graph, xs: Sequence[int] | None = None) -> Matching:
    """Maximum cardinality matching of a bipartite graph.

    ``xs`` optionally names one side (otherwise a 2-coloring is
    computed); it must hold distinct vertex ids and every edge must
    have exactly one end in it, else :class:`ValueError`.
    O(m·sqrt(n)).
    """
    return _hk(g, _sides(g, xs), None)


def hopcroft_karp_truncated(
    g: Graph, k: int, xs: Sequence[int] | None = None
) -> Matching:
    """Run HK phases only while the shortest augmenting path is <= 2k−1.

    By Lemma 3.4 each phase kills all shortest augmenting paths, and by
    Lemma 3.5 stopping when the shortest augmenting path exceeds 2k−1
    leaves a matching of size at least (1 − 1/k)·|M*| — wait: shortest
    length > 2k−1 means length >= 2(k+1)−1, so Lemma 3.5 gives
    (1 − 1/(k+1)) >= (1 − 1/k).  This is the centralized analogue of
    Theorem 3.8's guarantee.  ``xs`` is checked as in
    :func:`hopcroft_karp`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _hk(g, _sides(g, xs), 2 * k - 1)
