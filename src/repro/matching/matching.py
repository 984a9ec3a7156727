"""The :class:`Matching` data structure.

Section 2 of the paper: ``M ⊆ E`` is a matching, a vertex is *free*
w.r.t. M if no M edge is incident to it, and ``A ⊕ B`` is the symmetric
difference.  This module gives those notions a concrete, validated
representation used by every algorithm in the repository.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.graphs.graph import Graph


def mate_vector(
    n: int, outputs: Mapping[int, int | None]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node mate outputs as one ``int64[n]`` mate vector.

    ``outputs`` maps node -> claimed mate; ``None`` (a crashed node) and
    ``-1`` claim nothing, and nodes missing from it read as ``-1``.
    Returns ``(mate, one_sided)``: ``one_sided`` holds, ascending, every
    node ``v`` whose claim ``c != -1`` is not claimed back — including
    out-of-range and negative ``c``, which stay in ``mate`` as given.
    A self-claim ``c == v`` is symmetric here;
    :meth:`Matching.from_mate_array` rejects it.
    """
    mate = np.full(n, -1, dtype=np.int64)
    nodes = np.fromiter(outputs, dtype=np.int64, count=len(outputs))
    mate[nodes] = [-1 if c is None else c for c in outputs.values()]
    claimed = np.flatnonzero(mate != -1)
    partner = mate[claimed]
    inside = (partner >= 0) & (partner < n)
    back = np.full(claimed.size, -1, dtype=np.int64)
    back[inside] = mate[partner[inside]]
    return mate, claimed[back != claimed]


def symmetric_mate_vector(
    n: int, outputs: Mapping[int, int | None]
) -> np.ndarray:
    """:func:`mate_vector` of outputs that must all be reciprocated.

    Raises ``ValueError`` naming the lowest node whose claim is
    one-sided — a distributed matching whose two endpoints disagree is
    broken, and tests should see that loudly.
    """
    mate, one_sided = mate_vector(n, outputs)
    if one_sided.size:
        v = int(one_sided[0])
        c = int(mate[v])
        raise ValueError(
            f"asymmetric mates: node {v} claims {c}, "
            f"node {c} claims {outputs.get(c)}"
        )
    return mate


class Matching:
    """A matching in a :class:`~repro.graphs.Graph`.

    Stored as a mate array: ``mate[v]`` is the partner of ``v`` or
    ``-1``.  Construction validates disjointness and edge existence, so
    an instance is a matching *by construction* — algorithms can't
    accidentally return overlapping edges.
    """

    __slots__ = ("graph", "_mate", "_size")

    def __init__(self, graph: Graph, edges: Iterable[tuple[int, int]] = ()) -> None:
        self.graph = graph
        self._mate = [-1] * graph.n
        self._size = 0
        for u, v in edges:
            self.add(u, v)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, u: int, v: int) -> None:
        """Add edge ``(u, v)``; raises if it's absent or conflicts."""
        if not self.graph.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge of the graph")
        if self._mate[u] != -1:
            raise ValueError(f"vertex {u} already matched to {self._mate[u]}")
        if self._mate[v] != -1:
            raise ValueError(f"vertex {v} already matched to {self._mate[v]}")
        self._mate[u] = v
        self._mate[v] = u
        self._size += 1

    def remove(self, u: int, v: int) -> None:
        """Remove edge ``(u, v)``; raises if it's not in the matching."""
        if self._mate[u] != v or self._mate[v] != u:
            raise ValueError(f"({u},{v}) not in matching")
        self._mate[u] = -1
        self._mate[v] = -1
        self._size -= 1

    # ------------------------------------------------------------------
    # Queries (paper notation)
    # ------------------------------------------------------------------

    def mate(self, v: int) -> int:
        """``M(v)``: the partner of ``v``, or -1 when ``v`` is free."""
        return self._mate[v]

    def is_free(self, v: int) -> bool:
        """Whether ``v`` is free w.r.t. M (Section 2)."""
        return self._mate[v] == -1

    def is_matched_edge(self, u: int, v: int) -> bool:
        """Whether ``(u, v) ∈ M``."""
        return self._mate[u] == v

    def free_vertices(self) -> list[int]:
        """All free vertices."""
        return [v for v in range(self.graph.n) if self._mate[v] == -1]

    def __len__(self) -> int:
        return self._size

    def __contains__(self, edge: tuple[int, int]) -> bool:
        u, v = edge
        return 0 <= u < self.graph.n and self._mate[u] == v

    def edges(self) -> list[tuple[int, int]]:
        """Matching edges as ``(u, v)`` with ``u < v``, sorted."""
        out = []
        for v, m in enumerate(self._mate):
            if m > v:
                out.append((v, m))
        return out

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.edges())

    def weight(self) -> float:
        """``w(M)``: total weight (cardinality on unweighted graphs).

        Summed with scalar adds in :meth:`edges` order (ascending lower
        endpoint), so the value and its type are exactly those of adding
        ``graph.weight(u, v)`` edge by edge: the empty matching weighs
        the int ``0``.
        """
        mate = np.asarray(self._mate, dtype=np.int64)
        lo, hi = self.graph.endpoints_array()
        eids = np.flatnonzero(mate[lo] == hi)
        eids = eids[np.argsort(lo[eids], kind="stable")]
        return sum(self.graph.weights_array()[eids].tolist())

    def copy(self) -> "Matching":
        """Independent copy sharing the (immutable) graph."""
        m = Matching(self.graph)
        m._mate = list(self._mate)
        m._size = self._size
        return m

    # ------------------------------------------------------------------
    # Bulk mate-array operations (the array-backend surface)
    # ------------------------------------------------------------------

    def mate_array(self) -> np.ndarray:
        """The mate vector as an ``int64`` array (an independent copy)."""
        return np.asarray(self._mate, dtype=np.int64)

    @classmethod
    def from_mate_array(cls, graph: Graph, mate: np.ndarray) -> "Matching":
        """Build a validated matching from a mate vector in O(n + m).

        The vectorized twin of feeding :meth:`add` edge by edge —
        validation is as strict, but whole-array: mates must be in
        range, symmetric (``mate[mate[v]] == v``), and every matched
        pair must be a graph edge.  The edge-existence check rides on a
        counting argument: a mate array is disjoint by construction
        (one slot per vertex), so the matched vertices split into pairs
        and each pair is an edge iff the number of edges whose
        endpoints name each other equals half the matched vertices.
        """
        mate = np.asarray(mate, dtype=np.int64)
        if mate.shape != (graph.n,):
            raise ValueError(
                f"mate array must have shape ({graph.n},), got {mate.shape}"
            )
        matched = np.flatnonzero(mate != -1)
        if matched.size:
            partners = mate[matched]
            if (partners < 0).any() or (partners >= graph.n).any():
                raise ValueError("mate entries must be -1 or vertex ids")
            if (partners == matched).any():
                raise ValueError("a vertex cannot be its own mate")
            if (mate[partners] != matched).any():
                bad = int(matched[mate[partners] != matched][0])
                raise ValueError(
                    f"asymmetric mates: vertex {bad} claims {int(mate[bad])}, "
                    f"vertex {int(mate[bad])} claims {int(mate[mate[bad]])}"
                )
        lo, hi = graph.endpoints_array()
        matched_edges = int((mate[lo] == hi).sum()) if graph.m else 0
        if 2 * matched_edges != matched.size:
            raise ValueError("matched pair is not an edge of the graph")
        m = cls(graph)
        m._mate = mate.tolist()
        m._size = matched_edges
        return m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.graph is other.graph and self._mate == other._mate

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Matching(size={self._size}, n={self.graph.n})"

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------

    def symmetric_difference(self, edges: Iterable[tuple[int, int]]) -> "Matching":
        """``M ⊕ P`` for an edge set P, validated to yield a matching.

        This is the augmentation primitive of Algorithm 1 step 7 and
        Algorithm 5 step 5.  The caller must supply a P for which M ⊕ P
        is a matching (e.g. a union of vertex-disjoint augmenting
        paths); otherwise ``ValueError`` propagates from :meth:`add`.
        """
        cur = {tuple(sorted(e)) for e in self.edges()}
        for e in edges:
            key = tuple(sorted(e))
            if key in cur:
                cur.remove(key)
            else:
                cur.add(key)
        return Matching(self.graph, sorted(cur))

    def is_maximal(self) -> bool:
        """Whether no edge of G has both endpoints free (vectorized)."""
        free = np.asarray(self._mate, dtype=np.int64) == -1
        lo, hi = self.graph.endpoints_array()
        return not bool((free[lo] & free[hi]).any())
