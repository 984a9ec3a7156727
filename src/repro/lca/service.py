"""The matching query service: batching + LRU'd neighborhood reuse.

:class:`MatchingService` is the production face of the LCA: millions
of independent point lookups against one huge graph, where recomputing
the global matching per lookup (or even once, if the graph barely fits)
is the wrong cost model.  It wraps an :class:`repro.lca.lca.LcaMatching`
with

* an **LRU cache of explored neighborhoods** keyed by
  ``(seed, vertex)`` — a ``mate_of`` query stores its answer *and* the
  membership of every edge it resolved; later queries read those edge
  states through the resolver's lookup seam instead of re-exploring;
* a **flat edge-state index** with per-edge reference counts, so a
  cached state is found in O(1) no matter which vertex entry owns it,
  and is dropped exactly when its last owning entry is evicted;
* a **batched query API** (:meth:`batch`) taking mixed
  ``("mate", v)`` / ``("edge", u, v)`` queries and returning a
  :class:`BatchResult` with the answers and aggregate exploration
  statistics (empty input returns an empty result — the
  ``ExperimentResult``-style guard, instead of raising from a
  zero-length NumPy reduction).

**Why caching cannot change an answer.**  Membership of an edge is a
pure function of ``(graph, seed)``; the cache only ever stores values
that a fresh exploration computed, and the resolver treats a cache hit
exactly like its own memo.  So any cache content — including none,
after an eviction storm — yields the same answers, which the fuzz net
(`tests/test_lca/test_service.py`) hammers with tiny ``max_entries``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.distributed.metrics import LcaProbeStats
from repro.graphs.graph import Graph

from repro.lca.lca import LcaMatching, vertex_id, vertex_in_range


@dataclass
class BatchResult:
    """Answers + aggregate exploration cost of one :meth:`MatchingService.batch`."""

    answers: list = field(default_factory=list)
    queries: int = 0
    edges_probed: int = 0
    mean_probes: float = 0.0
    max_depth: int = 0
    cache_hits: int = 0
    cache_hit_rate: float = 0.0


class _Entry:
    """One cached neighborhood: the mate plus the owned edge states."""

    __slots__ = ("mate", "eids")

    def __init__(self, mate: int, eids: tuple[int, ...]) -> None:
        self.mate = mate
        self.eids = eids


class MatchingService:
    """Batched, cached query serving over one ``(graph, seed)`` matching.

    Parameters
    ----------
    graph, seed:
        Forwarded to :class:`LcaMatching`; the seed also keys every
        cache entry, so entries from different seeds could share one
        store without ever colliding.
    max_entries:
        LRU capacity in *vertex entries* (each owns the edge states of
        its exploration).  Must be >= 1.
    cache:
        ``False`` disables all cross-query reuse — every query then
        explores from scratch, byte-identical answers (the consistency
        suite runs both ways).
    """

    def __init__(self, graph: Graph, seed: int, *,
                 max_entries: int = 4096, cache: bool = True) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.lca = LcaMatching(graph, seed)
        self.graph = graph
        self.seed = int(seed)
        self.max_entries = max_entries
        self.cache_enabled = bool(cache)
        self._lru: OrderedDict[tuple[int, int], _Entry] = OrderedDict()
        self._edge_states: dict[int, bool] = {}
        self._edge_refs: dict[int, int] = {}
        #: Aggregate cost over the service lifetime (vertex-LRU hits
        #: included as queries with zero probes).
        self.stats = LcaProbeStats()
        #: Cost of the most recent query.
        self.last_query_stats = LcaProbeStats()

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------

    def mate_of(self, v: int) -> int:
        """``M(v)`` — served from the LRU when possible."""
        v = vertex_id(v)
        if self.cache_enabled:
            entry = self._lru_get((self.seed, v))
            if entry is not None:
                self._account(LcaProbeStats(queries=1, cache_hits=1))
                return entry.mate
        mate, stats, memo = self.lca.query_mate(
            v, lookup=self._edge_states.get if self.cache_enabled else None
        )
        if self.cache_enabled:
            self._store((self.seed, v), mate, memo)
        self._account(stats)
        return mate

    def edge_in_matching(self, u: int, v: int) -> bool:
        """Whether ``(u, v) ∈ M`` (False for non-edges).

        A cached endpoint answers immediately: ``(u, v) ∈ M`` iff the
        cached mate of ``u`` is ``v``.  Edge queries read the caches
        but do not create vertex entries (they resolve one edge's
        state, not a whole neighborhood).
        """
        u, v = vertex_id(u), vertex_id(v)
        if self.cache_enabled:
            for a, b in ((u, v), (v, u)):
                entry = self._lru_get((self.seed, a))
                if entry is not None:
                    self._account(LcaProbeStats(queries=1, cache_hits=1))
                    return entry.mate == b
        ans, stats, _ = self.lca.query_edge(
            u, v, lookup=self._edge_states.get if self.cache_enabled else None
        )
        self._account(stats)
        return ans

    # ------------------------------------------------------------------
    # Batch API
    # ------------------------------------------------------------------

    def batch(self, queries: Iterable[Sequence]) -> BatchResult:
        """Run mixed ``("mate", v)`` / ``("edge", u, v)`` queries.

        Every query is checked before any is served: a query of another
        shape raises :class:`ValueError`, a non-integer vertex id
        :class:`TypeError` and a ``("mate", v)`` with ``v`` out of range
        :class:`IndexError`, with the service's state untouched.  An
        ``("edge", u, v)`` with an end out of range is a non-edge and
        answers ``False``.  Returns a :class:`BatchResult`;
        ``batch([])`` returns the empty result (guard for the
        zero-length reductions below).
        """
        calls = []
        for qr in queries:
            op = qr[0] if isinstance(qr, Sequence) and qr else None
            if op == "mate" and len(qr) == 2:
                calls.append((self.mate_of,
                              (vertex_in_range(qr[1], self.graph.n),)))
            elif op == "edge" and len(qr) == 3:
                calls.append((self.edge_in_matching,
                              (vertex_id(qr[1]), vertex_id(qr[2]))))
            else:
                raise ValueError(
                    f"query must be ('mate', v) or ('edge', u, v), got {qr!r}"
                )
        if not calls:
            return BatchResult()
        answers: list = []
        probes: list[int] = []
        depths: list[int] = []
        hits = 0
        for call, args in calls:
            answers.append(call(*args))
            st = self.last_query_stats
            probes.append(st.edges_probed)
            depths.append(st.max_depth)
            hits += st.cache_hits
        parr = np.asarray(probes, dtype=np.int64)
        total = int(parr.sum())
        return BatchResult(
            answers=answers,
            queries=len(calls),
            edges_probed=total,
            mean_probes=float(parr.mean()),
            max_depth=int(np.max(depths)),
            cache_hits=hits,
            cache_hit_rate=hits / (hits + total) if hits + total else 0.0,
        )

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def cache_info(self) -> dict[str, int]:
        """Current cache occupancy (entries, owned edge states, capacity)."""
        return {
            "entries": len(self._lru),
            "edge_states": len(self._edge_states),
            "max_entries": self.max_entries,
        }

    def clear_cache(self) -> None:
        """Drop every cached neighborhood (answers are unaffected)."""
        self._lru.clear()
        self._edge_states.clear()
        self._edge_refs.clear()

    def _account(self, stats: LcaProbeStats) -> None:
        self.stats.add(stats)
        self.last_query_stats = stats

    def _lru_get(self, key: tuple[int, int]) -> _Entry | None:
        entry = self._lru.get(key)
        if entry is not None:
            self._lru.move_to_end(key)
        return entry

    def _store(self, key: tuple[int, int], mate: int,
               memo: dict[int, bool]) -> None:
        if key in self._lru:  # repeated query raced past the LRU probe
            self._lru.move_to_end(key)
            return
        eids = tuple(memo)
        for eid in eids:
            self._edge_refs[eid] = self._edge_refs.get(eid, 0) + 1
            self._edge_states[eid] = memo[eid]
        self._lru[key] = _Entry(mate, eids)
        while len(self._lru) > self.max_entries:
            _, evicted = self._lru.popitem(last=False)
            for eid in evicted.eids:
                left = self._edge_refs[eid] - 1
                if left:
                    self._edge_refs[eid] = left
                else:
                    del self._edge_refs[eid]
                    del self._edge_states[eid]
