"""The random-greedy maximal-matching LCA.

:class:`LcaMatching` answers "is edge ``(u, v)`` in the matching?" and
"who is ``v`` matched to?" without ever computing the matching: it
explores, on demand, only the part of the graph the answer depends on.

**The exploration-order contract.**  Fix a seed.  Every edge gets a
64-bit rank (:mod:`repro.lca.ranks`); the total order is lexicographic
``(rank, eid)``.  Membership is defined by the recursion

    ``e ∈ M  ⟺  no adjacent edge e' with key(e') < key(e) has e' ∈ M``

which is exactly the decision the global greedy scan makes for ``e``
when it reaches it in rank order — so every point query agrees with
one fixed global matching, :func:`repro.lca.oracle.random_greedy_matching`,
*by construction*.  Dependencies always have strictly smaller keys, so
the recursion is a DAG and terminates.  The resolver below runs it as
an explicit-stack DFS (no Python recursion limit on adversarial
rank-descending paths), visiting each edge's lower-key dependencies in
increasing key order with early exit on the first matched one — the
canonical random-greedy probe order, whose expected probe count is
polylog for random ranks (Nguyen–Onak; Yoshida–Yamamoto–Ito analysis).

**Statelessness.**  ``LcaMatching`` keeps no answer state across
queries: each query starts a fresh memo and drops it on return, so an
answer depends on the shared random ranks alone and two calls can never
influence each other — the LCA model of Alon–Rubinfeld–Vardi–Xie and
Reingold–Vardi (PAPERS.md).  What a query leaves behind is its cost,
added to :attr:`LcaMatching.stats`.

**Buffer reads.**  The resolver reads the graph's CSR (``indptr``,
``indices``, ``eids``), its ``lo``/``hi`` endpoint arrays and the rank
array (all ``m`` ranks, hashed in one vectorized pass at construction)
through memoryviews.  Indexing a ``memoryview`` yields a plain
Python int, so the hot loop neither boxes NumPy scalars nor needs an
O(m) Python structure: the graph's lazy edge-tuple list and edge-id
dict are never built, and an edge query finds its edge id by scanning
the lower-degree endpoint's adjacency.

Per-query cost is accounted in a
:class:`repro.distributed.metrics.LcaProbeStats` (edges probed,
neighborhood slots scanned, dependency depth) and aggregated on
``self.stats``.
"""

from __future__ import annotations

import operator

from repro.distributed.metrics import LcaProbeStats
from repro.graphs.graph import Graph

from repro.lca.ranks import edge_ranks


def vertex_id(v: object) -> int:
    """``v`` as a Python ``int`` vertex id.

    Python and NumPy integers pass; anything else (a float, a string,
    a ``bool`` — Python's or NumPy's) raises :class:`TypeError` naming
    it, rather than being read as some vertex.
    """
    if type(v) is int:
        return v
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise TypeError(f"vertex id must be an integer, got {v!r}")


def vertex_in_range(v: object, n: int) -> int:
    """:func:`vertex_id` of ``v``, which must also be a vertex of an
    ``n``-vertex graph: :class:`IndexError` otherwise."""
    v = vertex_id(v)
    if not 0 <= v < n:
        raise IndexError(f"vertex {v} out of range for n={n}")
    return v


class LcaMatching:
    """Query access to the random-greedy matching of ``(graph, seed)``.

    Parameters
    ----------
    graph:
        The (immutable) graph to answer queries about.
    seed:
        The shared-randomness seed.  Same ``(graph, seed)`` — same
        answers, across instances, processes, and query orders.

    Construction hashes all ``m`` ranks in one vectorized pass
    (:func:`repro.lca.ranks.edge_ranks`): O(m) setup and 8 bytes per
    edge, the right trade for a service answering many queries.
    """

    def __init__(self, graph: Graph, seed: int) -> None:
        self.graph = graph
        self.seed = int(seed)
        indptr, indices, eids = graph.adjacency_arrays()
        lo, hi = graph.endpoints_array()
        self._ptr = memoryview(indptr)
        self._nbr = memoryview(indices)
        self._eid = memoryview(eids)
        self._lo = memoryview(lo)
        self._hi = memoryview(hi)
        self._rank = memoryview(edge_ranks(graph.m, self.seed))
        #: Aggregate cost over this instance's lifetime.
        self.stats = LcaProbeStats()
        #: Cost of the most recent query (None before the first).
        self.last_stats: LcaProbeStats | None = None

    # ------------------------------------------------------------------
    # Public point queries
    # ------------------------------------------------------------------

    def edge_in_matching(self, u: int, v: int) -> bool:
        """Whether ``(u, v) ∈ M`` (False when ``(u, v)`` is not an edge,
        mirroring :meth:`repro.matching.Matching.is_matched_edge`)."""
        ans, _ = self.query_edge(u, v)
        return ans

    def mate_of(self, v: int) -> int:
        """``M(v)``: the partner of ``v``, or -1 when ``v`` is free."""
        ans, _ = self.query_mate(v)
        return ans

    # ------------------------------------------------------------------
    # Queries that also return their exploration cost
    # ------------------------------------------------------------------

    def query_edge(self, u: int, v: int) -> tuple[bool, LcaProbeStats]:
        """Resolve one edge query; returns ``(answer, stats)``."""
        q = LcaProbeStats(queries=1)
        eid = self._find_edge(vertex_id(u), vertex_id(v))
        ans = eid >= 0 and self._state(eid, {}, q)
        self._account(q)
        return ans, q

    def query_mate(self, v: int) -> tuple[int, LcaProbeStats]:
        """Resolve one mate query; returns ``(mate, stats)``.

        Walks ``v``'s incident edges in increasing key order under one
        shared memo; the first one in M names the mate (it blocks every
        higher-key incident edge, so no later edge can also be in M).
        When none is, ``v`` is free (-1) — and the memo then certifies
        every incident edge out of the matching, which is what makes
        the induced mapping maximal.
        """
        v = vertex_in_range(v, self.graph.n)
        a, b = self._ptr[v], self._ptr[v + 1]
        q = LcaProbeStats(queries=1, adjacency_scanned=b - a)
        memo: dict[int, bool] = {}
        rank = self._rank
        incident = sorted(
            (rank[e], e, w) for e, w in zip(self._eid[a:b], self._nbr[a:b])
        )
        mate = -1
        for _, e, w in incident:
            if self._state(e, memo, q):
                mate = w
                break
        self._account(q)
        return mate, q

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _account(self, q: LcaProbeStats) -> None:
        self.stats.add(q)
        self.last_stats = q

    def _find_edge(self, u: int, v: int) -> int:
        """Edge id of ``(u, v)``, or -1 when it is not an edge.

        Negative and out-of-range vertices are not edges; a self pair
        finds nothing because the graph has no self-loops.
        """
        n = self.graph.n
        if not (0 <= u < n and 0 <= v < n):
            return -1
        ptr = self._ptr
        if ptr[u + 1] - ptr[u] > ptr[v + 1] - ptr[v]:
            u, v = v, u
        a = ptr[u]
        for i, w in enumerate(self._nbr[a:ptr[u + 1]], a):
            if w == v:
                return self._eid[i]
        return -1

    def _deps(self, eid: int) -> tuple[list[int], int]:
        """Lower-key adjacent edges of ``eid`` in increasing key order,
        and the number of adjacency slots scanned to list them."""
        rank, eids, ptr = self._rank, self._eid, self._ptr
        r0 = rank[eid]
        keyed: list[tuple[int, int]] = []
        scanned = 0
        for w in (self._lo[eid], self._hi[eid]):
            a, b = ptr[w], ptr[w + 1]
            scanned += b - a
            for e2 in eids[a:b]:
                r = rank[e2]
                if r < r0 or (r == r0 and e2 < eid):
                    keyed.append((r, e2))
        keyed.sort()
        return [e2 for _, e2 in keyed], scanned

    def _state(self, eid0: int, memo: dict[int, bool], q: LcaProbeStats) -> bool:
        """Membership of ``eid0`` — explicit-stack DFS over the rank DAG.

        A frame is ``[eid, deps, next]``: the open edge, its lower-key
        adjacent edges in increasing key order, and the index of the
        first one not yet known to be out of M.
        """
        s = memo.get(eid0)
        if s is not None:
            return s
        deps, scanned = self._deps(eid0)
        stack = [[eid0, deps, 0]]
        probed = depth = 1
        while stack:
            frame = stack[-1]
            eid, deps, i = frame
            k = len(deps)
            while i < k:
                dep = deps[i]
                s = memo.get(dep)
                if s is None:
                    break
                if s:
                    # A lower-key adjacent edge is matched: eid blocked.
                    i = k + 1
                    break
                i += 1
            if i < k:
                # deps[i] is unresolved: open a frame for it.
                frame[2] = i
                deps, sc = self._deps(dep)
                scanned += sc
                stack.append([dep, deps, 0])
                probed += 1
                if len(stack) > depth:
                    depth = len(stack)
                continue
            # i == k: every lower-key adjacent edge resolved out of M;
            # i == k + 1: one of them is in M.
            memo[eid] = i == k
            stack.pop()
        q.edges_probed += probed
        q.adjacency_scanned += scanned
        q.max_depth = max(q.max_depth, depth)
        return memo[eid0]
