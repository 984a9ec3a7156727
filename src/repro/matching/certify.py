"""Optimality certificates for matchings.

Approximation experiments live or die by trusting the oracle, so we
make the oracles *self-certifying* where classical duality allows:

* **König** (bipartite): a vertex cover of size |M| certifies that M
  is maximum — extracted from the Hopcroft–Karp alternating forest.
  Every bipartite |M*| used in the benchmarks can carry this
  certificate.
* **Berge**: M is maximum iff there is no augmenting path; checked by
  searching for one (exact in bipartite graphs; bounded-length in
  general graphs, where it certifies the Lemma 3.5 bound instead).

These are used by tests to validate the oracles and by downstream
users who want to trust reported ratios.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.matching.matching import Matching, mate_vector
from repro.matching.augmenting import shortest_augmenting_path_length


def konig_vertex_cover(g: Graph, m: Matching, xs: list[int] | None = None) -> list[int]:
    """A vertex cover of size |M| from a *maximum* bipartite matching M.

    König's construction: let Z be the vertices reachable from free X
    vertices by alternating paths (unmatched edges X→Y, matched edges
    Y→X).  Then ``(X \\ Z) ∪ (Y ∩ Z)`` is a vertex cover of size |M|.

    Raises ``ValueError`` if the graph is not bipartite.  If ``m`` is
    not maximum, the returned set is still a cover candidate but its
    size exceeds |M| — :func:`verify_cover_certificate` will say so.
    """
    if xs is None:
        part = g.bipartition()
        if part is None:
            raise ValueError("König requires a bipartite graph")
        xs = part[0]
    x_side = [False] * g.n
    for x in xs:
        x_side[x] = True

    reachable = [False] * g.n
    q: deque[int] = deque()
    for v in xs:
        if m.is_free(v):
            reachable[v] = True
            q.append(v)
    while q:
        v = q.popleft()
        if x_side[v]:
            for u in g.neighbors(v):
                if not m.is_matched_edge(v, u) and not reachable[u]:
                    reachable[u] = True
                    q.append(u)
        else:
            u = m.mate(v)
            if u != -1 and not reachable[u]:
                reachable[u] = True
                q.append(u)
    cover = [
        v
        for v in range(g.n)
        if (x_side[v] and not reachable[v]) or (not x_side[v] and reachable[v])
    ]
    return cover


def is_vertex_cover(g: Graph, cover: list[int]) -> bool:
    """Whether every edge has an endpoint in ``cover`` (vectorized)."""
    in_cover = np.zeros(g.n, dtype=bool)
    if cover:
        in_cover[np.asarray(list(cover), dtype=np.int64)] = True
    lo, hi = g.endpoints_array()
    return bool((in_cover[lo] | in_cover[hi]).all())


def verify_cover_certificate(g: Graph, m: Matching, cover: list[int]) -> bool:
    """The König certificate check: cover valid and |cover| = |M|.

    By weak duality |M'| ≤ |C| for every matching M' and cover C, so
    equality proves simultaneously that M is maximum and C minimum.
    """
    return is_vertex_cover(g, cover) and len(cover) == len(m)


def certify_maximum_bipartite(
    g: Graph, m: Matching, xs: list[int] | None = None
) -> bool:
    """End-to-end: extract the König cover and verify it against M."""
    try:
        cover = konig_vertex_cover(g, m, xs)
    except ValueError:
        return False
    return verify_cover_certificate(g, m, cover)


def certify_no_short_augmenting_path(
    g: Graph, m: Matching, max_len: int
) -> bool:
    """Berge-style bounded certificate (general graphs).

    True iff no augmenting path of length ≤ ``max_len`` exists — the
    hypothesis of Lemma 3.5, certifying |M| ≥ (1 − 1/(k+1))·|M*| for
    max_len = 2k−1.
    """
    length = shortest_augmenting_path_length(g, m, upto=max_len)
    return length is None or length > max_len


def certified_ratio_lower_bound(g: Graph, m: Matching, max_len: int) -> float:
    """The best ratio certified by the absence of short augmenting paths.

    Returns (1 − 1/(k+1)) for the largest k with 2k−1 ≤ certified
    horizon, or 0.0 when even single-edge augmentations exist.
    """
    best = 0.0
    for ell in range(1, max_len + 1, 2):
        if not certify_no_short_augmenting_path(g, m, ell):
            break
        k = (ell + 1) // 2
        best = 1.0 - 1.0 / (k + 1)
    return best


# ----------------------------------------------------------------------
# Degradation oracle (robustness tier)
# ----------------------------------------------------------------------
#
# Under a fault plan a distributed matching run no longer terminates
# with a clean maximal matching: crashed nodes report nothing, and a
# lost ACCEPT or a crash between accept and announce leaves a *widow* —
# a survivor whose claimed mate does not claim it back.  The oracle
# below grades exactly what honest degradation permits: the symmetric
# survivor pairs must still form a valid matching, and it must be
# maximal on the survivor subgraph once widows (who rightly believe
# they are matched, and so stop proposing) are excused.


@dataclass(frozen=True)
class DegradationReport:
    """Verdict of :func:`certify_degraded_matching`.

    ``widows`` are ``(vertex, claimed_mate)`` pairs whose claim is not
    reciprocated — expected fault damage, reported but not a violation.
    ``violations`` are survivor edges with both endpoints free and
    neither endpoint a widow — impossible for a correct fault-adaptive
    protocol, so any entry is a real bug.
    """

    matched_pairs: int
    survivors: int
    crashed: int
    widows: tuple[tuple[int, int], ...]
    violations: tuple[tuple[int, int], ...]
    valid: bool
    maximal_on_survivors: bool

    @property
    def ok(self) -> bool:
        """Valid matching, maximal on survivors modulo widows."""
        return self.valid and self.maximal_on_survivors


def degraded_matching(
    g: Graph, outputs: dict[int, int | None]
) -> tuple[Matching, list[tuple[int, int]]]:
    """Assemble the symmetric-pair matching from faulted run outputs.

    The fault-tolerant sibling of ``matching_from_mates``: a pair
    (u, v) joins the matching only when *both* endpoints claim each
    other; one-sided claims are returned as widows (ascending by
    claimant) instead of raising.  ``None`` outputs (crashed nodes)
    claim nothing.  A self-claim or a claimed pair that is not an edge
    still raises ``ValueError``.
    """
    mate, one_sided = mate_vector(g.n, outputs)
    widows = list(zip(one_sided.tolist(), mate[one_sided].tolist()))
    mate[one_sided] = -1
    return Matching.from_mate_array(g, mate), widows


def survivor_subgraph(
    g: Graph,
    outputs: dict[int, int | None],
    failed_links: "np.ndarray | list[int]" = (),
) -> Graph:
    """The subgraph a faulted run leaves behind.

    Keeps every edge whose link survived and whose endpoints both
    completed the run (an output of ``None`` marks a crashed node).
    Vertex set unchanged; crashed vertices become isolated.
    """
    lo, hi = g.endpoints_array()
    alive = np.zeros(g.n, dtype=bool)
    for v, out in outputs.items():
        alive[v] = out is not None
    keep = alive[lo] & alive[hi]
    if len(failed_links):
        keep[np.asarray(failed_links, dtype=np.int64)] = False
    return g.subgraph(np.flatnonzero(keep))


def certify_degraded_matching(
    g: Graph,
    outputs: dict[int, int | None],
    failed_links: "np.ndarray | list[int]" = (),
) -> DegradationReport:
    """Grade a faulted matching run against honest-degradation rules.

    ``valid``: every symmetric pair is a real edge with distinct live
    endpoints, so a node claiming itself makes it False (one-sided
    claims are widows, not violations).
    ``maximal_on_survivors``: no surviving edge joins two free
    non-widow survivors — free nodes quit only when every live
    neighbor was announced matched, so such an edge would prove the
    protocol (not the faults) wrong.  ``failed_links`` are the edge
    ids whose links died during the run
    (:meth:`repro.distributed.faults.FaultState.failed_links_by` of
    the final round).
    """
    try:
        m, widows = degraded_matching(g, outputs)
        valid = True
        matched = len(m)
    except (ValueError, IndexError):
        # a claimed pair that is not an edge, or a node claiming itself
        m, widows, valid, matched = None, [], False, 0
    alive = np.zeros(g.n, dtype=bool)
    for v, out in outputs.items():
        alive[v] = out is not None
    widowed = np.zeros(g.n, dtype=bool)
    for v, _ in widows:
        widowed[v] = True
    violations: list[tuple[int, int]] = []
    if m is not None:
        lo, hi = g.endpoints_array()
        keep = alive[lo] & alive[hi]
        if len(failed_links):
            keep[np.asarray(failed_links, dtype=np.int64)] = False
        free = (m.mate_array() == -1) & ~widowed
        bad = keep & free[lo] & free[hi]
        violations = [
            (int(u), int(w)) for u, w in zip(lo[bad], hi[bad])
        ]
    return DegradationReport(
        matched_pairs=matched,
        survivors=int(alive.sum()),
        crashed=int(g.n - alive.sum()),
        widows=tuple(widows),
        violations=tuple(violations),
        valid=valid,
        maximal_on_survivors=not violations,
    )
