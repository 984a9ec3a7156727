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
from typing import Generator

import numpy as np

from repro.baselines.luby_mis import luby_mis
from repro.core.conflict_graph import build_conflict_graph
from repro.distributed.backends import (
    BatchedArrayContext,
    int_payload_bits,
    run_program_batched,
)
from repro.distributed.message import Sized, bit_size
from repro.distributed.network import Network, RunResult
from repro.distributed.node import Node
from repro.graphs.graph import Graph
from repro.matching.augmenting import (
    apply_paths,
    apply_paths_array,
    augmenting_paths_maximal_set,
)
from repro.matching.matching import Matching

# View records: ("v", id, free) vertex records, ("e", u, v, matched) edges.
_VERTEX = "v"
_EDGE = "e"




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

    The whole flood runs on **record ids**: record ``r < n`` is the
    vertex record ``("v", r, free)`` and record ``n + eid`` the edge
    record ``("e", lo, hi, matched)``.  Per-node known/fresh sets
    become sorted arrays of flat ``node * (n+m) + record`` keys, one
    round of flooding is a ragged CSR expansion + ``np.unique`` +
    sorted-membership subtraction, and the per-sender payload bits are
    one ``bincount`` over precomputed per-record sizes (a ``Sized``
    payload's bit count is the sum over its records, which is
    order-independent — and a record's bit size does not depend on its
    boolean flag, so sizes are fixed per record id).  Accounting flows
    through the context and matches the generator run bit for bit.

    With ``keep_views=False`` the per-node frozensets are never
    materialized (outputs are ``None``); counters are unchanged.  This
    is the scale path — at n=10^6 the Python set/tuple universe is
    orders of magnitude more memory than the key arrays.

    The flood draws no randomness, so every seed would run the same
    flood: the program takes exactly one lane.
    """
    if ctx.num_seeds != 1:
        raise ValueError("the flood is deterministic: run it as one lane")
    g = ctx.graph
    size = ctx.n
    n = size
    num_edges = g.m
    R = n + num_edges  # record-id universe
    indptr, indices, eids = g.adjacency_arrays()
    deg = np.diff(indptr).astype(np.int64)
    lo, hi = g.endpoints_array()
    rec_bits = np.empty(R, dtype=np.int64)
    if n:
        # ("v", id, free): 8 (tag str) + ipb(id) + 1 (bool flag).
        rec_bits[:n] = 9 + int_payload_bits(np.arange(n, dtype=np.int64))
    if num_edges:
        # ("e", a, b, matched): 8 + ipb(a) + ipb(b) + 1.
        rec_bits[n:] = (
            9
            + int_payload_bits(lo.astype(np.int64))
            + int_payload_bits(hi.astype(np.int64))
        )
    owner = np.repeat(np.arange(n, dtype=np.int64), deg)
    vids = np.arange(n, dtype=np.int64)
    init_keys = np.concatenate(
        [vids * R + vids, owner * R + (n + eids.astype(np.int64))]
    )
    known = np.sort(init_keys)
    fresh = known.copy()
    live = np.full(1, size)
    for _ in range(depth):
        ctx.begin_step(live)
        if fresh.size:
            fnodes = fresh // R
            frecs = fresh % R
            # Exact integer sums: per-node bit totals stay far below
            # 2^53, so the float64 bincount accumulator is lossless.
            bits_per = np.bincount(
                fnodes, weights=rec_bits[frecs].astype(np.float64), minlength=n
            ).astype(np.int64)
            senders = np.flatnonzero((bits_per > 0) & (deg > 0))
            ctx.account_groups(
                bits_per[senders], deg[senders], np.zeros_like(senders)
            )
        ctx.end_step(live > 0)
        if fresh.size:
            cnt = deg[fnodes]
            total = int(cnt.sum())
            if total:
                # One ragged expansion pass: slot j of fresh pair i is
                # indptr[node_i] + j, laid out as a running arange with
                # a per-pair base offset (a single repeat — this loop
                # is the scale-tier hot path, so every O(total) pass
                # counts).
                base = indptr[fnodes].astype(np.int64) - (np.cumsum(cnt) - cnt)
                slot = np.arange(total, dtype=np.int64)
                slot += np.repeat(base, cnt)
                cand = np.multiply(indices[slot], R, dtype=np.int64)
                del slot
                cand += np.repeat(frecs, cnt)
                cand.sort()
                keep = np.empty(cand.size, dtype=bool)
                keep[0] = True
                np.not_equal(cand[1:], cand[:-1], out=keep[1:])
                cand = cand[keep]
                pos = np.minimum(np.searchsorted(known, cand), known.size - 1)
                fresh = cand[known[pos] != cand]
                if fresh.size:
                    # Two sorted runs: the stable sort (timsort) merges
                    # them in O(len) instead of re-sorting from scratch.
                    known = np.concatenate([known, fresh])
                    known.sort(kind="stable")
            else:
                fresh = fresh[:0]
    ctx.begin_step(live)  # final resume: every program returns
    if not keep_views:
        return None
    mate = np.asarray(mates, dtype=np.int64)
    free_flag = (mate == -1).tolist()
    matched_flag = (mate[lo] == hi).tolist() if num_edges else []
    rec_tuples: list[tuple] = [
        (_VERTEX, v, free_flag[v]) for v in range(n)
    ] + [
        (_EDGE, a, b, mm)
        for a, b, mm in zip(lo.tolist(), hi.tolist(), matched_flag)
    ]
    knodes = known // R
    krecs = (known % R).tolist()
    bounds = np.searchsorted(knodes, np.arange(n + 1, dtype=np.int64))
    return [[
        frozenset(rec_tuples[r] for r in krecs[bounds[v]: bounds[v + 1]])
        for v in range(n)
    ]]


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
    empty; all counters are unchanged) — the scale-tier switch for
    million-node runs, where the Python tuple universe would dwarf the
    flood's own arrays.
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
