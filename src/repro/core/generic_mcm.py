"""Algorithms 1 & 2 — the generic (1−ε)-MCM (Theorem 3.1).

Phase structure (Algorithm 1): for ℓ = 1, 3, …, 2k−1 with k = ⌈1/ε⌉,

1. construct the conflict graph C_M(ℓ) — implemented by Algorithm 2's
   neighborhood flooding: every node learns its distance-2ℓ view (the
   messages here carry graph descriptions, hence Theorem 3.1's
   O(|V|+|E|)-bit message bound);
2. compute an MIS of C_M(ℓ) with a distributed MIS algorithm
   ([20]/[1]); by Lemma 3.3 each MIS round is emulated by O(ℓ) rounds
   of G (messages between conflict-graph nodes are routed via their
   leaders along the augmenting paths);
3. augment along the MIS paths (M ← M ⊕ P).

Inductively (Lemmas 3.4/3.5) the matching after the last phase is a
(1 − 1/(k+1))-MCM ≥ (1−ε)-MCM.

Implementation split: the flooding of Algorithm 2 is
simulated natively as node programs — this is where the message-size
behaviour lives, and node-local views are returned so tests can verify
each node's P_v(ℓ) agrees with the global enumeration.  The MIS of
step 5 runs as a genuine distributed Luby network *on the conflict
graph*, and its rounds are charged at the Lemma 3.3 exchange rate of
ℓ+1 G-rounds per C_M(ℓ)-round (plus ℓ rounds for the final
augmentation walk), recorded in ``RunResult.charged_rounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Generator

import numpy as np

from repro.baselines.luby_mis import luby_mis
from repro.core.conflict_graph import build_conflict_graph
from repro.distributed.backends import (
    BatchedArrayContext,
    int_payload_bits,
    run_program_batched,
)
from repro.distributed.message import Sized
from repro.distributed.network import RunResult
from repro.distributed.node import Node
from repro.graphs.graph import Graph, sorted_unique
from repro.matching.augmenting import (
    apply_paths,
    apply_paths_array,
    augmenting_paths_maximal_set,
)
from repro.matching.matching import Matching

# View records: ("v", id, free) vertex records, ("e", u, v, matched) edges.
_VERTEX = "v"
_EDGE = "e"

#: int8 level cells shared by one block of the array flood's
#: breadth-first searches: a block holds ``FLOOD_CELLS // n`` sources.
FLOOD_CELLS = 1 << 24


def flood_views_program(
    node: Node, depth: int, mates: list[int], keep_views: bool = True
) -> Generator[None, None, frozenset | None]:
    """Algorithm 2 step 1: learn the distance-``depth`` ball of G.

    Per round, a node forwards the records it learned in the previous
    round (delta flooding — information-equivalent to the paper's
    full-view resend, and never larger).  After ``depth`` rounds the
    returned view contains every vertex/edge record within distance
    ``depth``, including matched flags and free statuses — everything
    needed to enumerate augmenting paths locally.
    """
    my_mate = mates[node.id]
    fresh: list[tuple] = [(_VERTEX, node.id, my_mate == -1)]
    for u in node.neighbors:
        a, b = (node.id, u) if node.id < u else (u, node.id)
        fresh.append((_EDGE, a, b, u == my_mate))
    known: set[tuple] = set(fresh)
    for _ in range(depth):
        if fresh:
            node.broadcast(Sized(tuple(sorted(fresh))))
        yield
        incoming: set[tuple] = set()
        for _src, records in node.inbox:
            incoming.update(records)
        fresh = sorted(incoming - known)
        known.update(fresh)
    return frozenset(known) if keep_views else None


def flood_views_array(
    ctx: BatchedArrayContext, depth: int, mates: list[int],
    keep_views: bool = True,
) -> list[list[frozenset]] | None:
    """Array program of :func:`flood_views_program`, run as a one-lane batch.

    Delta flooding sends each record exactly once, one round after the
    sender learned it, so node ``v``'s round-``i`` broadcast is the set
    of records at distance ``i``: the vertex records of the layer
    ``L_i(v)`` plus the edge records whose nearer endpoint lies in
    ``L_i(v)`` (edges from ``L_i`` to ``L_{i+1}``, and edges inside
    ``L_i``).  A ``Sized`` payload's bit count is the sum over its
    records, and a record's size does not depend on its flag, so the
    mates never affect the counters.  The program therefore computes
    ``bits[i, v]`` — the size of that broadcast — from one
    breadth-first search per source over vertex ids, then replays the
    rows through the context's accounting: ``v`` sends in round ``i``
    iff ``L_i(v)`` is non-empty and ``deg(v) > 0``.  Rounds, messages,
    bits and the peak match the generator run bit for bit; the
    ``max_rounds`` error is raised during the replay, after the search.

    The searches run in blocks of ``FLOOD_CELLS // n`` sources that
    share one int8 level scratch (0 = unseen, else ``level % 3 + 1``:
    a neighbour of layer ``i`` lies in layer ``i - 1``, ``i`` or
    ``i + 1``); every round expands the block's frontier over its CSR
    slots in one ragged pass.  The work is
    ``sum_v sum_{u in B_{depth-1}(v)} deg(u)`` candidate slots.

    With ``keep_views=True`` the search runs one layer further, and
    node ``v``'s view is the vertex records of its radius-``depth``
    ball plus the edge record of every edge incident to that ball —
    the generator's final ``known`` set, as a frozenset.  With
    ``keep_views=False`` outputs are ``None``; counters are unchanged.

    The flood draws no randomness, so every seed would run the same
    flood: the program takes exactly one lane.
    """
    if ctx.num_seeds != 1:
        raise ValueError("the flood is deterministic: run it as one lane")
    g = ctx.graph
    n = ctx.n
    num_edges = g.m
    indptr, indices, eids = g.adjacency_arrays()
    deg = np.diff(indptr).astype(np.int64)
    lo, hi = g.endpoints_array()
    # Record sizes: ("v", id, free) is 8 (tag str) + ipb(id) + 1 (bool
    # flag), ("e", a, b, matched) is 8 + ipb(a) + ipb(b) + 1.  Float64
    # so bincount sums them exactly: per-node totals stay far below 2^53.
    vbits = (9 + int_payload_bits(np.arange(n))).astype(np.float64)
    ebits = (9 + int_payload_bits(lo) + int_payload_bits(hi)).astype(np.float64)
    if keep_views:
        mate = np.asarray(mates, dtype=np.int64)
        vrec = [(_VERTEX, v, free) for v, free in enumerate((mate == -1).tolist())]
        erec = [
            (_EDGE, a, b, mm)
            for a, b, mm in zip(lo.tolist(), hi.tolist(), (mate[lo] == hi).tolist())
        ]
        views: list[frozenset] = []
    hops = depth + 1 if keep_views else depth
    bits = np.zeros((depth, n), dtype=np.int64)
    block = max(1, min(n, FLOOD_CELLS // max(n, 1)))
    level = np.zeros(block * n, dtype=np.int8)
    for first in range(0, n, block):
        count = min(block, n - first)
        # Cell j * n + u holds u's level in the search from first + j.
        front = np.arange(count, dtype=np.int64) * (n + 1) + first
        level[front] = 1
        layers = [front]
        edge_keys = []
        for i in range(hops):
            src, u = np.divmod(front, n)
            cnt = deg[u]
            # One ragged expansion pass: slot j of frontier entry k is
            # indptr[u_k] + j, a running arange plus a per-entry base.
            base = indptr[u].astype(np.int64) - (np.cumsum(cnt) - cnt)
            slot = np.arange(int(cnt.sum()), dtype=np.int64)
            slot += np.repeat(base, cnt)
            w = indices[slot]
            slot_src = np.repeat(src, cnt)
            cell = slot_src * n + w
            seen = level[cell]
            new = seen == 0
            # The edge records whose nearer endpoint is u: edges to the
            # next layer, and edges inside u's layer (counted at u < w).
            # (Index arrays: a scattered boolean mask gathers slowly.)
            near = np.flatnonzero(
                new | ((seen == i % 3 + 1) & (np.repeat(u, cnt) < w))
            )
            near_src = slot_src[near]
            near_eid = eids[slot[near]]
            if i < depth:
                bits[i, first:first + count] = np.bincount(
                    src, weights=vbits[u], minlength=count
                ) + np.bincount(near_src, weights=ebits[near_eid], minlength=count)
            if keep_views:
                edge_keys.append(near_src * num_edges + near_eid)
            if i + 1 == hops:
                break
            front = sorted_unique(cell[np.flatnonzero(new)])
            if not front.size:
                break
            level[front] = (i + 1) % 3 + 1
            layers.append(front)
        for layer in layers:
            level[layer] = 0
        if keep_views:
            vkeys = np.sort(np.concatenate(layers))
            # Each incident edge is near to exactly one layer: no dups.
            ekeys = np.sort(np.concatenate(edge_keys))
            heads = np.arange(count + 1, dtype=np.int64)
            vb = np.searchsorted(vkeys, heads * n).tolist()
            eb = np.searchsorted(ekeys, heads * num_edges).tolist()
            vs = (vkeys % n).tolist()
            es = (ekeys % max(num_edges, 1)).tolist()
            for j in range(count):
                views.append(frozenset(chain(
                    map(vrec.__getitem__, vs[vb[j]:vb[j + 1]]),
                    map(erec.__getitem__, es[eb[j]:eb[j + 1]]),
                )))
    live = np.full(1, n)
    for i in range(depth):
        ctx.begin_step(live)
        # account_groups drops the groups of degree-0 senders itself.
        senders = np.flatnonzero(bits[i])
        ctx.account_groups(bits[i, senders], deg[senders], np.zeros_like(senders))
        ctx.end_step(live > 0)
    ctx.begin_step(live)  # final resume: every program returns
    return [views] if keep_views else None


@dataclass
class GenericStats:
    """Per-run accounting for :func:`generic_mcm`."""

    result: RunResult = field(default_factory=RunResult)
    #: per phase ℓ: number of conflict-graph nodes (augmenting paths)
    conflict_sizes: dict[int, int] = field(default_factory=dict)
    #: per phase ℓ: size of the selected MIS
    mis_sizes: dict[int, int] = field(default_factory=dict)
    #: per-node views from the *last* phase's flooding (test hook)
    views: dict[int, frozenset] = field(default_factory=dict)


def generic_mcm(
    g: Graph,
    k: int | None = None,
    eps: float | None = None,
    seed: int = 0,
    max_rounds: int = 1_000_000,
    backend: str = "generator",
    keep_views: bool = True,
) -> tuple[Matching, GenericStats]:
    """Theorem 3.1: distributed (1−1/(k+1))-MCM (so ≥ (1−ε) for k=⌈1/ε⌉).

    Exactly one of ``k``/``eps`` must be given.  Randomness enters via
    the MIS subroutine.  Intended for small ℓ — the conflict graph has
    n^O(ℓ) nodes, as in the paper.  ``backend`` selects the execution
    engine for both distributed subroutines (the Algorithm 2 flooding
    and the conflict-graph MIS); results are byte-identical across
    backends for the same seed.  ``keep_views=False`` skips
    materializing the per-node view frozensets (``stats.views`` stays
    empty; all counters are unchanged).  A view holds every record of a
    node's distance-2ℓ ball, so building them costs more time and
    memory than the rest of the run: callers that never read
    ``stats.views`` pass ``keep_views=False``.
    """
    if (k is None) == (eps is None):
        raise ValueError("pass exactly one of k / eps")
    if k is None:
        assert eps is not None
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        k = math.ceil(1.0 / eps)
    if k < 1:
        raise ValueError("k must be >= 1")

    seq = np.random.SeedSequence(seed)
    phase_seeds = seq.spawn(2 * k)
    m = Matching(g)
    stats = GenericStats()
    for phase, ell in enumerate(range(1, 2 * k, 2)):
        mates = m.mate_array().tolist()
        # Step 4 (Algorithm 2): flood views to distance 2ℓ.
        flood_res = run_program_batched(
            g,
            backend=backend,
            generator_program=flood_views_program,
            batched_array_program=flood_views_array,
            params={"depth": 2 * ell, "mates": mates, "keep_views": keep_views},
            seeds=[int(phase_seeds[phase].generate_state(1)[0])],
            max_rounds=max_rounds,
        )[0]
        if keep_views:
            stats.views = dict(flood_res.outputs)
        stats.result = stats.result.merge(flood_res)

        # Conflict graph: because views are exact balls, the union of
        # all leaders' locally-enumerated paths equals the global
        # enumeration (verified by tests against local_view_paths).
        paths, cg, _leaders = build_conflict_graph(g, m, ell)
        stats.conflict_sizes[ell] = len(paths)
        if not paths:
            continue
        # Step 5: MIS of C_M(ℓ) via distributed Luby on the conflict
        # graph; charge Lemma 3.3's routing factor.
        mis, mis_res = luby_mis(
            cg,
            seed=int(phase_seeds[k + phase].generate_state(1)[0]),
            backend=backend,
        )
        stats.result.total_messages += mis_res.total_messages
        stats.result.total_bits += mis_res.total_bits
        stats.result.max_message_bits = max(
            stats.result.max_message_bits, mis_res.max_message_bits
        )
        stats.result.charged_rounds += mis_res.rounds * (ell + 1) + ell
        stats.mis_sizes[ell] = len(mis)
        # Step 7: apply the selected (vertex-disjoint) augmentations —
        # the array twin (same validation, same matching) keeps this
        # O(n + m) instead of rebuilding Python edge sets.
        m = apply_paths_array(m, [paths[i] for i in sorted(mis)])
    return m, stats


def generic_mcm_reference(
    g: Graph, k: int, seed: int | None = None
) -> Matching:
    """Centralized reference of Algorithm 1 (same phase structure).

    Per phase, augments along a maximal set of vertex-disjoint
    augmenting paths of length ≤ ℓ; by Lemmas 3.4/3.5 the result is a
    (1 − 1/(k+1))-MCM.  With a ``seed`` the greedy selection order is
    randomized (mirroring the MIS's arbitrariness); deterministic
    otherwise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = None if seed is None else np.random.default_rng(seed)
    m = Matching(g)
    for ell in range(1, 2 * k, 2):
        chosen = augmenting_paths_maximal_set(g, m, ell, rng=rng)
        if chosen:
            m = apply_paths(m, chosen)
    return m
