"""The matching query service: point and batched queries.

:class:`MatchingService` is the production face of the LCA: millions
of independent point lookups against one huge graph, where recomputing
the global matching per lookup (or even once, if the graph barely fits)
is the wrong cost model.  It serves every query through one
:class:`repro.lca.lca.LcaMatching`, which explores afresh from the
shared random ranks each time and keeps nothing between queries, and
adds a **batched query API** (:meth:`MatchingService.batch`) taking
mixed ``("mate", v)`` / ``("edge", u, v)`` queries and returning a
:class:`BatchResult` with the answers and their aggregate exploration
statistics (empty input returns an empty result — the
``ExperimentResult``-style guard, instead of raising from a
zero-length NumPy reduction).

The service's :attr:`MatchingService.stats` and
:attr:`MatchingService.last_query_stats` are its resolver's own
counters: every query is an exploration, so there is one record of
what the queries cost.
"""

from __future__ import annotations

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


class MatchingService:
    """Point and batched query serving over one ``(graph, seed)`` matching.

    Parameters
    ----------
    graph, seed:
        Forwarded to :class:`LcaMatching` (``self.lca``); same
        ``(graph, seed)`` — same answers, whatever was asked before.
    """

    def __init__(self, graph: Graph, seed: int) -> None:
        self.lca = LcaMatching(graph, seed)
        self.graph = graph
        self.seed = self.lca.seed

    @property
    def stats(self) -> LcaProbeStats:
        """Aggregate cost over the service lifetime (the resolver's)."""
        return self.lca.stats

    @property
    def last_query_stats(self) -> LcaProbeStats | None:
        """Cost of the most recent query (None before the first)."""
        return self.lca.last_stats

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------

    def mate_of(self, v: int) -> int:
        """``M(v)``: the partner of ``v``, or -1 when ``v`` is free."""
        mate, _ = self.lca.query_mate(v)
        return mate

    def edge_in_matching(self, u: int, v: int) -> bool:
        """Whether ``(u, v) ∈ M`` (False for non-edges)."""
        ans, _ = self.lca.query_edge(u, v)
        return ans

    # ------------------------------------------------------------------
    # Batch API
    # ------------------------------------------------------------------

    def batch(self, queries: Iterable[Sequence]) -> BatchResult:
        """Run mixed ``("mate", v)`` / ``("edge", u, v)`` queries.

        Every query is checked before any is served: a query of another
        shape raises :class:`ValueError`, a non-integer vertex id
        :class:`TypeError` and a ``("mate", v)`` with ``v`` out of range
        :class:`IndexError`, with no query served or counted.  An
        ``("edge", u, v)`` with an end out of range is a non-edge and
        answers ``False``.  Returns a :class:`BatchResult`;
        ``batch([])`` returns the empty result (guard for the
        zero-length reductions below).
        """
        lca = self.lca
        calls = []
        for qr in queries:
            op = qr[0] if isinstance(qr, Sequence) and qr else None
            if op == "mate" and len(qr) == 2:
                calls.append((lca.query_mate,
                              (vertex_in_range(qr[1], self.graph.n),)))
            elif op == "edge" and len(qr) == 3:
                calls.append((lca.query_edge,
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
        for call, args in calls:
            ans, st = call(*args)
            answers.append(ans)
            probes.append(st.edges_probed)
            depths.append(st.max_depth)
        parr = np.asarray(probes, dtype=np.int64)
        return BatchResult(
            answers=answers,
            queries=len(calls),
            edges_probed=int(parr.sum()),
            mean_probes=float(parr.mean()),
            max_depth=int(np.max(depths)),
        )
