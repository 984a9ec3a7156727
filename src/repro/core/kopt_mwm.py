"""k-opt weighted matching — the extension behind the paper's remark.

The remark after Theorem 4.5 sketches a (1−ε)-MWM by adapting the
PRAM algorithm of Hougardy–Vinkemeier [14] ("details omitted from this
extended abstract").  The engine of that result is Lemma 4.2
(Pettie–Sanders [24]):

    for all k > 0 there is a collection P of disjoint augmentations,
    each with at most k unmatched edges, with
    w(M ⊕ P) ≥ w(M) + (k+1)/(2k+1) · (k/(k+1)·w(M*) − w(M)).

Consequence: a matching that admits **no positive-gain augmentation
with ≤ k unmatched edges** already satisfies
``w(M) ≥ k/(k+1) · w(M*)`` — a (1 − 1/(k+1))-MWM.

This module provides that *centralized reference* (the paper omits the
distributed details, so we make no distributed claim for it):

* :func:`find_gain_augmentations` — enumerate alternating paths *and
  cycles* with ≤ k unmatched edges and positive gain (exponential in
  k, fine for the small k of interest);
* :func:`kopt_mwm` — local search: repeatedly apply a greedy
  positive-gain disjoint set until none remains.  Terminates (weight
  strictly increases and the instance has finitely many matchings) at
  a k-optimal matching with the bound above.

Two evaluation paths (ISSUE 5): the enumeration order is shared, but
gains can be computed per candidate walk (the scalar reference) or for
*all* enumerated walks in one vectorized pass with the batch applied
as bulk mate surgery (``backend="array"``) — identical results, bit
for bit, pinned by the seed-identity goldens.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graphs.graph import Graph
from repro.matching.matching import Matching


def _gain(g: Graph, m: Matching, edges: list[tuple[int, int]]) -> float:
    """w(M ⊕ edges) − w(M) for an alternating edge set."""
    total = 0.0
    for u, v in edges:
        w = g.weight(u, v)
        total += -w if m.is_matched_edge(u, v) else w
    return total


def _canonical(edges: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(tuple(sorted(e)) for e in edges))


def _alternating_walks(
    g: Graph, m: Matching, k: int
) -> Iterator[list[tuple[int, int]]]:
    """All candidate alternating walks, in deterministic DFS order.

    Yields every edge list the augmentation search must price — each
    in its walk order, so a gain evaluated over it reproduces the
    sequential float accumulation of :func:`_gain` regardless of how
    the pricing is batched.  An *augmentation* here is any edge set
    whose symmetric difference with M is again a matching: alternating
    paths (either endpoint may be matched or free — ends on matched
    edges shrink M there) and alternating even cycles.

    DFS over alternating simple walks.  Validity of M ⊕ P is a pure
    endpoint condition: a *path* is valid iff each endpoint whose
    terminal edge is unmatched is free (otherwise that vertex would
    end up doubly covered); ends on matched edges and alternating
    even cycles are always valid.
    """
    for start in range(g.n):
        stack: list[tuple[list[int], bool, int]] = []
        # First edge unmatched (only from a free start) or matched.
        if m.is_free(start):
            stack.append(([start], False, 0))
        else:
            stack.append(([start], True, 0))
        while stack:
            path, want_matched, used = stack.pop()
            v = path[-1]
            for u in g.neighbors(v):
                if m.is_matched_edge(v, u) != want_matched:
                    continue
                if u == path[0] and len(path) >= 3:
                    # Closing an alternating even cycle: the closing
                    # edge's type must differ from the first edge's
                    # (alternation at the shared vertex).
                    first_matched = m.is_matched_edge(path[0], path[1])
                    if want_matched != first_matched:
                        yield [
                            (path[i], path[i + 1])
                            for i in range(len(path) - 1)
                        ] + [(v, u)]
                    continue
                if u in path:
                    continue
                new_used = used + (0 if want_matched else 1)
                if new_used > k:
                    continue
                new_path = path + [u]
                # Endpoint condition at u for the path to be applicable
                # as-is: unmatched terminal edge needs u free.
                if want_matched or m.is_free(u):
                    yield [
                        (new_path[i], new_path[i + 1])
                        for i in range(len(new_path) - 1)
                    ]
                stack.append((new_path, not want_matched, new_used))


def _rank(
    walks: list[list[tuple[int, int]]], gains: "np.ndarray | list[float]"
) -> list[tuple[float, tuple[tuple[int, int], ...]]]:
    """Shared tail of both pricing paths: threshold, dedup, sort.

    Walks are replayed in enumeration order; a walk whose gain clears
    the float-noise threshold overwrites its canonical form's entry
    (later walk orders of the same edge set may carry a slightly
    different float sum — last positive writer wins, as the historic
    inline accumulation did).
    """
    found: dict[tuple[tuple[int, int], ...], float] = {}
    for walk, gain in zip(walks, gains):
        if gain > 1e-12:
            found[_canonical(walk)] = float(gain)
    return sorted(
        ((gain, edges) for edges, gain in found.items()),
        key=lambda t: (-t[0], t[1]),
    )


def find_gain_augmentations(
    g: Graph, m: Matching, k: int
) -> list[tuple[float, tuple[tuple[int, int], ...]]]:
    """All positive-gain alternating paths/cycles with ≤ k unmatched edges.

    Returns ``(gain, edge-tuple)`` pairs, gain-descending — the scalar
    reference pricing (one :func:`_gain` accumulation per walk).
    """
    walks = list(_alternating_walks(g, m, k))
    return _rank(walks, [_gain(g, m, w) for w in walks])


#: Root-block granularity for the vectorized walk enumeration: the
#: frontier of a block is O(roots · Δ^(k+1)) in the worst case, so the
#: enumeration is chunked over start vertices to bound peak memory.
_ROOT_BLOCK = 1 << 15


def _walks_arrays(
    g: Graph, m: Matching, k: int, roots: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All walks :func:`_alternating_walks` yields from ``roots``, as arrays.

    Level-synchronous frontier expansion over the CSR structure: level
    ``ℓ`` extends every live walk prefix by one half-edge at once, with
    the scalar DFS's per-candidate tests (alternation, cycle closing,
    simplicity, the ≤k unmatched budget, the free-endpoint yield rule)
    evaluated as whole-frontier masks.  Walks strictly alternate, so a
    path prefix has at most ``2k + 1`` edges; a cycle may add one more
    (the closing edge is exempt from the unmatched budget, exactly as
    in the scalar DFS, where only *extensions* are charged), so the
    loop runs at most ``2k + 2`` levels.

    Returns ``(verts, ports, nedges)``: walk ``i`` has ``nedges[i]``
    edges, its vertex sequence is ``verts[i, :nedges[i] + 1]`` (a cycle
    repeats its start vertex at the end), and ``ports[i, j]`` is the
    CSR port index its ``j``-th edge took out of its source vertex —
    enough to reconstruct the scalar DFS's emission order (see
    :func:`find_gain_augmentations_array`).  Unused slots are ``-1``.
    """
    indptr, indices, _ = g.adjacency_arrays()
    indptr = indptr.astype(np.int64, copy=False)
    deg = np.diff(indptr)
    mate = m.mate_array()
    free = mate == -1
    max_edges = 2 * k + 2  # longest walk: a full cycle
    verts = np.full((roots.size, max_edges + 1), -1, dtype=np.int64)
    verts[:, 0] = roots
    ports = np.full((roots.size, max_edges), -1, dtype=np.int64)
    # First edge matched from a matched start, unmatched from a free one.
    want = ~free[roots]
    used = np.zeros(roots.size, dtype=np.int64)
    out_v: list[np.ndarray] = []
    out_p: list[np.ndarray] = []
    out_n: list[np.ndarray] = []
    for level in range(max_edges):
        if verts.shape[0] == 0:
            break
        last = verts[:, level]
        d = deg[last].astype(np.int64)
        total = int(d.sum())
        if total == 0:
            break
        rep = np.repeat(np.arange(verts.shape[0]), d)
        head = np.cumsum(d) - d
        port = np.arange(total, dtype=np.int64) - np.repeat(head, d)
        u = indices[indptr[last][rep] + port].astype(np.int64)
        wrep = want[rep]
        ok = (mate[last[rep]] == u) == wrep
        is_start = u == verts[rep, 0]
        if level >= 2:
            # Closing an alternating even cycle: the closing edge's
            # type must differ from the first edge's.
            first_matched = mate[verts[:, 0]] == verts[:, 1]
            cyc = ok & is_start & (wrep != first_matched[rep])
        else:
            cyc = np.zeros(total, dtype=bool)
        in_path = is_start.copy()
        for j in range(1, level + 1):
            in_path |= verts[rep, j] == u
        new_used = used[rep] + (~wrep).astype(np.int64)
        ext = ok & ~in_path & (new_used <= k)
        # A path is applicable as-is iff an unmatched terminal edge
        # ends on a free vertex; extensions are explored regardless.
        emit = cyc | (ext & (wrep | free[u]))
        if emit.any():
            er = rep[emit]
            ev = verts[er].copy()
            ev[:, level + 1] = u[emit]
            ep = ports[er].copy()
            ep[:, level] = port[emit]
            out_v.append(ev)
            out_p.append(ep)
            out_n.append(np.full(er.size, level + 1, dtype=np.int64))
        if level + 1 >= max_edges or not ext.any():
            if level + 1 >= max_edges:
                break
            verts = verts[:0]
            continue
        kr = rep[ext]
        nv = verts[kr].copy()
        nv[:, level + 1] = u[ext]
        np_ = ports[kr].copy()
        np_[:, level] = port[ext]
        verts, ports = nv, np_
        want = ~wrep[ext]
        used = new_used[ext]
    width_v, width_p = max_edges + 1, max_edges
    if not out_v:
        return (
            np.empty((0, width_v), dtype=np.int64),
            np.empty((0, width_p), dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    return np.vstack(out_v), np.vstack(out_p), np.concatenate(out_n)


def find_gain_augmentations_array(
    g: Graph, m: Matching, k: int
) -> list[tuple[float, tuple[tuple[int, int], ...]]]:
    """Vectorized twin of :func:`find_gain_augmentations`.

    Since ISSUE 7 both halves are array-native: the walk *enumeration*
    runs as a level-synchronous frontier expansion (the scalar DFS was
    the cell's actual bottleneck — the pricing it fed was already
    vectorized) and the *pricing* accumulates position by position
    across all walks at once, reproducing each walk's scalar
    left-to-right float sum bit for bit (``reduceat`` would not: its
    in-segment summation is pairwise, and near-tied gains then sort
    differently than the scalar path).

    Deduplication must also match: the scalar `_rank` keeps, for every
    canonical edge set, the gain of its **last positively-priced walk
    in DFS emission order**.  That order is recovered without running
    the DFS: within one expansion, yields happen in port order, and
    pushed extensions are popped LIFO — so prefixes are expanded in
    reverse-port preorder, and a walk's emission slot is exactly the
    lexicographic key ``(start, -p_1, ..., -p_{L-1}, p_L)`` over its
    port sequence, with absent prefix positions below every real port
    (a prefix is expanded before its extensions).  One ``lexsort``
    therefore replays the scalar tie-breaking exactly.
    """
    n = g.n
    if n == 0:
        return []
    mate = m.mate_array()
    weights = g.weights_array()
    max_edges = 2 * k + 2
    blocks = [
        _walks_arrays(g, m, k, np.arange(s, min(s + _ROOT_BLOCK, n), dtype=np.int64))
        for s in range(0, n, _ROOT_BLOCK)
    ]
    verts = np.vstack([b[0] for b in blocks])
    ports = np.vstack([b[1] for b in blocks])
    nedges = np.concatenate([b[2] for b in blocks])
    rows = nedges.size
    if rows == 0:
        return []
    gains = np.zeros(rows, dtype=np.float64)
    edge_keys = np.full((rows, max_edges), np.int64(n) * n, dtype=np.int64)
    for pos in range(int(nedges.max())):
        alive = nedges > pos
        u, v = verts[alive, pos], verts[alive, pos + 1]
        eid = g.edge_ids_array(u, v)
        w = weights[eid].astype(np.float64)
        gains[alive] += np.where(mate[u] == v, -w, w)
        edge_keys[alive, pos] = np.minimum(u, v) * n + np.maximum(u, v)
    keep = np.flatnonzero(gains > 1e-12)
    if keep.size == 0:
        return []
    # DFS emission rank of each surviving walk (docstring key).
    kp = ports[keep]
    kn = nedges[keep]
    pad = np.int64(-(n + 2))  # below every -(port + 1)
    cols = np.arange(max_edges - 1)
    prefix = np.where(
        cols[None, :] < (kn - 1)[:, None], -(kp[:, : max_edges - 1] + 1), pad
    )
    plast = kp[np.arange(keep.size), kn - 1]
    order = np.lexsort(
        (plast,)
        + tuple(prefix[:, j] for j in range(max_edges - 2, -1, -1))
        + (verts[keep, 0],)
    )
    rank = np.empty(keep.size, dtype=np.int64)
    rank[order] = np.arange(keep.size)
    # Last positive writer per canonical edge set: group rows on their
    # sorted edge keys, keep the max-rank member of each group.
    ek = edge_keys[keep]
    ek.sort(axis=1)
    gorder = np.lexsort(tuple(ek[:, j] for j in range(max_edges - 1, -1, -1)))
    sek = ek[gorder]
    gid = np.cumsum(
        np.r_[True, (sek[1:] != sek[:-1]).any(axis=1)]
    ) - 1
    worder = np.lexsort((rank[gorder], gid))
    last_of_group = np.r_[gid[worder][1:] != gid[worder][:-1], True]
    winners = gorder[worder[last_of_group]]
    out: list[tuple[float, tuple[tuple[int, int], ...]]] = []
    for i in winners.tolist():
        keys_row = [kk for kk in ek[i].tolist() if kk < n * n]
        edges = tuple((kk // n, kk % n) for kk in keys_row)
        out.append((float(gains[keep[i]]), edges))
    out.sort(key=lambda t: (-t[0], t[1]))
    return out


def _apply_batch_array(
    m: Matching, batch: list[tuple[int, int]]
) -> Matching:
    """``M ⊕ batch`` as bulk mate surgery (validated on construction)."""
    mate = m.mate_array()
    arr = np.asarray(batch, dtype=np.int64).reshape(-1, 2)
    u, v = arr[:, 0], arr[:, 1]
    toggled_off = mate[u] == v
    mate[u[toggled_off]] = -1
    mate[v[toggled_off]] = -1
    au, av = u[~toggled_off], v[~toggled_off]
    mate[au] = av
    mate[av] = au
    return Matching.from_mate_array(m.graph, mate)


def kopt_mwm(
    g: Graph, k: int = 2, max_passes: int = 10_000, backend: str = "generator"
) -> tuple[Matching, int]:
    """Local-search (1 − 1/(k+1))-MWM via ≤k-unmatched-edge augmentations.

    Greedy per pass: scan augmentations by gain, apply those disjoint
    from already-applied ones, recompute, repeat until no positive
    gain remains.  Returns ``(matching, passes)``.

    For k = 1 this is 3-augmentation-optimality (the ½ of Lemma 4.2's
    k=1 case, i.e. what Algorithm 5 converges to); k = 2 gives 2/3,
    k = 3 gives 3/4, matching the (2/3−ε) of [7]/[24] and beyond.

    ``backend`` keeps the layer-4 routing names: ``"generator"`` is
    the scalar reference (kopt is centralized — there is no network —
    so the name only marks the unvectorized path), ``"array"`` prices
    all candidate walks in one vectorized pass and applies each batch
    as bulk mate surgery.  Both produce identical matchings and pass
    counts.
    """
    if not g.weighted:
        raise ValueError("kopt_mwm needs a weighted graph")
    if k < 1:
        raise ValueError("k must be >= 1")
    if backend not in ("generator", "array"):
        raise ValueError(f"unknown backend {backend!r}")
    finder = (
        find_gain_augmentations_array
        if backend == "array"
        else find_gain_augmentations
    )
    m = Matching(g)
    passes = 0
    for passes in range(1, max_passes + 1):
        candidates = finder(g, m, k)
        if not candidates:
            break
        used: set[int] = set()
        batch: list[tuple[int, int]] = []
        for _gain_val, edges in candidates:
            verts = {v for e in edges for v in e}
            if verts & used:
                continue
            used |= verts
            batch.extend(edges)
        if backend == "array":
            m = _apply_batch_array(m, batch)
        else:
            m = m.symmetric_difference(batch)
    else:
        raise RuntimeError("kopt_mwm failed to converge")
    return m, passes
