"""Augmenting-path machinery.

The paper's unweighted algorithms are built on the Hopcroft–Karp
phase structure:

* Lemma 3.4 — augmenting along a *maximal* set of shortest augmenting
  paths strictly increases the shortest augmenting-path length;
* Lemma 3.5 — if the shortest augmenting path has length 2k−1 then
  ``|M| >= (1 - 1/k)|M*|``.

This module provides path predicates, exhaustive enumeration of short
augmenting paths (the node set of the conflict graph C_M(ℓ) of
Definition 3.1), maximal-disjoint-set selection (the centralized
reference for ``Aug(H, M, ℓ)``), and path application (``M ⊕ P``).

Enumeration is exponential in ℓ — exactly as in the paper, where the
conflict graph has ``n^O(ℓ)`` nodes — so callers keep ℓ small (ℓ =
2k−1 for constant k).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.matching.matching import Matching

Path = tuple[int, ...]


def is_augmenting_path(g: Graph, m: Matching, path: Sequence[int]) -> bool:
    """Whether ``path`` (a vertex sequence) is an augmenting path w.r.t. M.

    Checks: simplicity, both endpoints free, edges exist, and edges
    alternate unmatched/matched/… (so the length is odd).
    """
    if len(path) < 2 or len(set(path)) != len(path):
        return False
    if not (m.is_free(path[0]) and m.is_free(path[-1])):
        return False
    if len(path) % 2 != 0:  # odd number of edges => even number of vertices
        return False
    for i in range(len(path) - 1):
        u, v = path[i], path[i + 1]
        if not g.has_edge(u, v):
            return False
        should_be_matched = i % 2 == 1
        if m.is_matched_edge(u, v) != should_be_matched:
            return False
    return True


def _canonical(path: Sequence[int]) -> Path:
    """Orient a path so the smaller endpoint comes first (dedup key)."""
    p = tuple(path)
    return p if p[0] <= p[-1] else p[::-1]


def find_augmenting_paths_upto(g: Graph, m: Matching, max_len: int) -> list[Path]:
    """All augmenting paths w.r.t. M of length (edges) at most ``max_len``.

    These are exactly the nodes of the conflict graph ``C_M(max_len)``
    (Definition 3.1).  Paths are returned in canonical orientation,
    deduplicated, sorted.  Cost is exponential in ``max_len``.
    """
    if max_len < 1:
        return []
    if max_len == 1:
        # Scale fast path: a length-1 augmenting path is exactly a
        # free–free edge, already in canonical (lo, hi) orientation.
        # Provably the DFS output: every such edge is found from its
        # smaller endpoint, nothing longer fits, and the lexsort below
        # reproduces ``sorted(found)`` on 2-tuples.
        mate = m.mate_array()
        free_mask = mate == -1
        lo, hi = g.endpoints_array()
        sel = np.flatnonzero(free_mask[lo] & free_mask[hi])
        sel = sel[np.lexsort((hi[sel], lo[sel]))]
        return list(zip(lo[sel].tolist(), hi[sel].tolist()))
    found: set[Path] = set()
    free = m.free_vertices()
    for s in free:
        # DFS over alternating simple paths starting at the free vertex s.
        # Stack entries: (path_so_far, next_edge_must_be_matched)
        stack: list[tuple[list[int], bool]] = [([s], False)]
        while stack:
            path, want_matched = stack.pop()
            v = path[-1]
            if len(path) - 1 >= max_len:
                continue
            for u in g.neighbors(v):
                if u in path:
                    continue
                if m.is_matched_edge(v, u) != want_matched:
                    continue
                new_path = path + [u]
                # A complete augmenting path ends at a free vertex via
                # an unmatched edge (odd edge count).
                if not want_matched and m.is_free(u):
                    found.add(_canonical(new_path))
                    # A free vertex cannot extend via a matched edge, so
                    # this branch ends here.
                    continue
                stack.append((new_path, not want_matched))
    return sorted(found)


def shortest_augmenting_path_length(
    g: Graph, m: Matching, upto: int | None = None
) -> int | None:
    """Length of the shortest augmenting path w.r.t. M, or ``None``.

    For bipartite graphs this is exact (layered alternating BFS).  For
    general graphs, alternating BFS can miss paths that re-visit a
    vertex with the other parity (blossoms), so we fall back to
    bounded enumeration up to ``upto`` (default 9 edges) and return the
    exact answer within that horizon; ``None`` means "no augmenting
    path of length <= horizon".
    """
    if g.is_bipartite():
        return _bipartite_shortest_aug_len(g, m)
    horizon = 9 if upto is None else upto
    for length in range(1, horizon + 1, 2):
        if find_augmenting_paths_upto(g, m, length):
            return length
    return None


def _bipartite_shortest_aug_len(g: Graph, m: Matching) -> int | None:
    """Exact shortest augmenting path length in a bipartite graph.

    Standard Hopcroft–Karp layering: BFS from all free X vertices along
    unmatched edges to Y and matched edges back to X; the first layer
    containing a free Y vertex gives the length.
    """
    part = g.bipartition()
    assert part is not None
    xs, _ys = part
    x_side = [False] * g.n
    for x in xs:
        x_side[x] = True

    dist = [-1] * g.n
    q: deque[int] = deque()
    for v in range(g.n):
        if x_side[v] and m.is_free(v):
            dist[v] = 0
            q.append(v)
    best: int | None = None
    while q:
        v = q.popleft()
        if best is not None and dist[v] >= best:
            break
        if x_side[v]:
            for u in g.neighbors(v):
                if m.is_matched_edge(v, u) or dist[u] != -1:
                    continue
                dist[u] = dist[v] + 1
                if m.is_free(u):
                    if best is None or dist[u] < best:
                        best = dist[u]
                else:
                    q.append(u)
        else:
            u = m.mate(v)
            if u != -1 and dist[u] == -1:
                dist[u] = dist[v] + 1
                q.append(u)
    return best


def augmenting_paths_maximal_set(
    g: Graph,
    m: Matching,
    max_len: int,
    rng: np.random.Generator | None = None,
) -> list[Path]:
    """A maximal set of vertex-disjoint augmenting paths of length <= max_len.

    Centralized reference implementation of the paper's ``Aug(H, M, ℓ)``
    subroutine (Section 3.3): enumerate candidates, then greedily keep
    paths that do not touch previously used vertices.  With an ``rng``
    the scan order is shuffled (matching the randomized distributed
    selection); otherwise the order is deterministic (sorted).

    Maximality: every augmenting path of length <= max_len shares a
    vertex with a selected path — the defining property used by
    Lemma 3.9's (k+1)-intersection argument.
    """
    candidates = find_augmenting_paths_upto(g, m, max_len)
    if rng is not None:
        order = list(candidates)
        rng.shuffle(order)
        candidates = order
    used = [False] * g.n
    chosen: list[Path] = []
    for p in candidates:
        if any(used[v] for v in p):
            continue
        chosen.append(p)
        for v in p:
            used[v] = True
    return chosen


def apply_paths(m: Matching, paths: Iterable[Sequence[int]]) -> Matching:
    """``M ⊕ (union of paths)`` with vertex-disjointness validation.

    Implements step 7 of Algorithm 1.  Raises ``ValueError`` when two
    paths share a vertex or a path is not augmenting w.r.t. M — the
    situation Algorithm 1's MIS step is there to prevent.
    """
    used: set[int] = set()
    edges: list[tuple[int, int]] = []
    for p in paths:
        if not is_augmenting_path(m.graph, m, p):
            raise ValueError(f"not an augmenting path w.r.t. M: {tuple(p)}")
        overlap = used.intersection(p)
        if overlap:
            raise ValueError(f"paths conflict at vertices {sorted(overlap)}")
        used.update(p)
        edges.extend((p[i], p[i + 1]) for i in range(len(p) - 1))
    return m.symmetric_difference(edges)


def apply_paths_array(m: Matching, paths: Sequence[Sequence[int]]) -> Matching:
    """Array twin of :func:`apply_paths`: same checks, same matching.

    Validation runs whole-array over the concatenated paths — range,
    simplicity, cross-path disjointness, free endpoints, edge existence
    (via :meth:`Graph.edge_ids_array`) and alternation — then the
    augmentation is mate surgery: in a path ``v0..v_{2t+1}`` the new
    matched pairs are exactly the even-indexed edges, and every path
    vertex lies on exactly one of them, so assigning those pairs *is*
    ``M ⊕ P``.  The result goes through the validated
    :meth:`Matching.from_mate_array` constructor.  No Python edge sets
    are built, so cost is O(n + m + total path length) — this is step 7
    of Algorithm 1 at the million-node tier, where
    ``symmetric_difference``'s tuple sets are the memory wall.  When
    several paths are invalid the one reported may differ from
    :func:`apply_paths`'s (which scans sequentially); the accept/reject
    decision never does.
    """
    g = m.graph
    paths = [tuple(p) for p in paths]
    if not paths:
        return m.copy()
    lens = np.array([len(p) for p in paths], dtype=np.int64)
    flat = np.concatenate([np.asarray(p, dtype=np.int64) for p in paths])
    num = lens.size
    ends = np.cumsum(lens)
    starts = ends - lens
    pid = np.repeat(np.arange(num, dtype=np.int64), lens)

    def _reject(i: int) -> None:
        raise ValueError(f"not an augmenting path w.r.t. M: {paths[i]}")

    bad_shape = (lens < 2) | (lens % 2 != 0)
    if bad_shape.any():
        _reject(int(np.flatnonzero(bad_shape)[0]))
    out_of_range = (flat < 0) | (flat >= g.n)
    if out_of_range.any():
        _reject(int(pid[out_of_range][0]))
    # One sort settles both uniqueness checks: a duplicated vertex
    # inside one path is a non-simple path, across paths a conflict.
    order = np.argsort(flat, kind="stable")
    sf, sp = flat[order], pid[order]
    dup = np.flatnonzero(sf[1:] == sf[:-1])
    if dup.size:
        same_path = sp[dup] == sp[dup + 1]
        if same_path.any():
            _reject(int(sp[dup][same_path].min()))
        overlap = np.unique(sf[dup]).tolist()
        raise ValueError(f"paths conflict at vertices {overlap}")
    mate = m.mate_array()
    first, last = flat[starts], flat[ends - 1]
    not_free = (mate[first] != -1) | (mate[last] != -1)
    if not_free.any():
        _reject(int(np.flatnonzero(not_free)[0]))
    # Edge positions: every in-path vertex except the last one.
    edge_mask = np.ones(flat.size, dtype=bool)
    edge_mask[ends - 1] = False
    pos = np.flatnonzero(edge_mask)
    src, dst = flat[pos], flat[pos + 1]
    missing = g.edge_ids_array(src, dst) < 0
    if missing.any():
        _reject(int(pid[pos[missing]][0]))
    idx_in_path = pos - np.repeat(starts, lens - 1)
    bad_alt = (mate[src] == dst) != (idx_in_path % 2 == 1)
    if bad_alt.any():
        _reject(int(pid[pos[bad_alt]][0]))
    new_mate = mate.copy()
    even = idx_in_path % 2 == 0
    new_mate[src[even]] = dst[even]
    new_mate[dst[even]] = src[even]
    return Matching.from_mate_array(g, new_mate)

