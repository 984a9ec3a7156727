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
from typing import Generator, Iterator

import numpy as np

from repro.baselines.luby_mis import luby_mis
from repro.core.conflict_graph import build_conflict_graph
from repro.distributed.backends import (
    BatchedArrayContext,
    int_payload_bits,
    run_program_batched,
    segment_bounds,
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

#: Bytes of scratch the flood works in.  A block of the ragged search
#: holds ``FLOOD_CELLS // n`` sources, one int8 level cell per (source,
#: vertex); a bit layer gathers neighbour rows and unpacks rows to one
#: byte per (row, source) at most ``FLOOD_CELLS`` bytes at a time.
FLOOD_CELLS = 1 << 24

#: What one CSR slot of the ragged search costs, in words of a bit
#: layer: a block goes bit-parallel at the first layer whose frontier's
#: slots, times this ratio, exceed one whole-graph bit layer.
FLOOD_SWITCH = 8


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


def _switches(layer: int, slots: int, words: int) -> bool:
    """The switch rule: does a block run its layers from ``layer`` on bits?

    ``slots`` is the CSR slot total of the block's ragged frontier and
    ``words`` the cost of one bit layer (:class:`_BitFlood`).  The rule
    reads only these counts; ``layer`` lets a test force the switch.
    """
    return FLOOD_SWITCH * slots > words


def _bit_rows(layers: list[np.ndarray], n: int, words: int) -> np.ndarray:
    """A block's cells ``j * n + u`` as bit ``j % 64`` of word ``j // 64``
    of row ``u``: one ``(n, words)`` ``uint64`` array."""
    rows = np.zeros(n * words, dtype=np.uint64)
    for cells in layers:
        j, u = np.divmod(cells, n)
        np.bitwise_or.at(
            rows, u * words + (j >> 6), np.uint64(1) << (j & 63).astype(np.uint64)
        )
    return rows.reshape(n, words)


class _BitFlood:
    """The flood's bit-parallel kernel: 64 sources to a ``uint64`` word.

    Row ``u`` of a block's layer has bit ``b`` of word ``j`` set when
    ``u`` lies in that layer of source ``first + 64j + b``.  The next
    layer is the OR of the neighbours' rows minus the ball so far; an
    edge's record goes out in round ``min(d(lo), d(hi))``, so the edges
    of layer ``i`` are ``(F[lo] | F[hi]) & ~(P[lo] | P[hi])`` with ``F``
    the layer and ``P`` the ball before it.  A layer's per-source bits
    are the record sizes summed over the rows that carry the source's
    bit.  Records come in runs of equal size (vertex ids by bit length,
    edges sorted by size once); the rows are unpacked to one byte per
    source, and each run's bytes are summed per source in int32 and
    weighted by the run's size.  A layer over a block of ``count``
    sources and ``W = ceil(count / 64)`` words costs ``2m·W`` gathered
    words plus ``(n + m)·count`` unpacked bytes, whatever its size: the
    gathers and the unpacking run over row chunks of at most
    ``FLOOD_CELLS`` bytes.
    """

    def __init__(self, g: Graph, vbits: np.ndarray, ebits: np.ndarray) -> None:
        self.n = g.n
        indptr, self.indices, _ = g.adjacency_arrays()
        # Degree-0 rows stay zero: reduceat would hand them a neighbour.
        self.nonempty = np.flatnonzero(np.diff(indptr))
        self.starts = indptr[self.nonempty]
        self.ends = indptr[self.nonempty + 1]
        self.vbits = vbits
        self.order = np.argsort(ebits, kind="stable")
        self.ebits = ebits[self.order]
        lo, hi = g.endpoints_array()
        self.lo, self.hi = lo[self.order], hi[self.order]
        self.vruns = segment_bounds(vbits)
        self.eruns = segment_bounds(self.ebits)

    def run(
        self,
        layers: list[np.ndarray],
        hops: int,
        count: int,
        vkeys: list[np.ndarray] | None,
        ekeys: list[np.ndarray] | None,
    ) -> Iterator[np.ndarray]:
        """Run a block's layers ``i = len(layers) - 1`` on, up to ``hops``.

        ``layers`` holds the ragged search's cells of layers ``0..i``.
        Yields each layer's per-source bits until the frontier empties.
        With key lists, appends the (source, vertex) keys of the layers
        past ``i`` and the (source, edge) keys of layers ``i`` on.
        """
        words = -(-count // 64)
        step = max(1, FLOOD_CELLS // (64 * words))  # rows per unpacked chunk
        front = _bit_rows(layers[-1:], self.n, words)
        seen = _bit_rows(layers[:-1], self.n, words)
        for i in range(len(layers) - 1, hops):
            yield _tally(
                lambda a, b: front[a:b], self.vbits, self.vruns, step, count,
                vkeys if i >= len(layers) else None, None,
            ) + _tally(
                lambda a, b: self._edge_rows(front, seen, a, b),
                self.ebits, self.eruns, step, count, ekeys, self.order,
            )
            if i + 1 == hops:
                return
            seen |= front
            front = self._neighbors(front)
            front &= ~seen
            if not front.any():
                return

    def _edge_rows(self, front, seen, a: int, b: int) -> np.ndarray:
        lo, hi = self.lo[a:b], self.hi[a:b]
        rows = front[lo] | front[hi]
        rows &= ~(seen[lo] | seen[hi])
        return rows

    def _neighbors(self, front: np.ndarray) -> np.ndarray:
        """Each row's OR of its neighbours' rows."""
        out = np.zeros_like(front)
        cap = max(1, FLOOD_CELLS // front[:1].nbytes)  # slots per gather
        a = 0
        while a < self.starts.size:
            base = self.starts[a]
            b = max(a + 1, int(np.searchsorted(self.ends, base + cap, "right")))
            out[self.nonempty[a:b]] = np.bitwise_or.reduceat(
                front[self.indices[base:self.ends[b - 1]]],
                self.starts[a:b] - base,
                axis=0,
            )
            a = b
        return out


def _tally(rows, sizes, runs, step, count, keys, ids) -> np.ndarray:
    """Per-source bits of bit rows ``rows(a, b)`` of records sized ``sizes``.

    ``runs`` bounds the runs of equal size (:func:`segment_bounds`), and
    the rows are unpacked ``step`` at a time.  Returns the sums of the
    ``count`` sources.  With ``keys`` a list, appends ``source * stride +
    record`` for every set bit (record ``ids[k]`` of row ``k``, or ``k``
    itself when ``ids`` is None; the stride is the record count).
    """
    stride = sizes.size
    sent = np.zeros(-(-count // 64) * 64, dtype=np.int64)
    for a in range(0, stride, step):
        b = min(a + step, stride)
        # Bit s of a row is byte s of its little-endian unpacking.
        bitmap = np.unpackbits(
            rows(a, b).astype("<u8", copy=False).view(np.uint8),
            axis=1, bitorder="little",
        )
        # Each run's rows counted per source, weighted by the run's size.
        cuts = np.unique(np.clip(runs, a, b)).tolist()
        for c, d in zip(cuts, cuts[1:]):
            sent += sizes[c] * bitmap[c - a:d - a].sum(axis=0, dtype=np.int32)
        if keys is not None:
            k, src = np.nonzero(bitmap)
            k += a
            keys.append(src * stride + (k if ids is None else ids[k]))
        del bitmap  # before the next chunk is gathered and unpacked
    return sent[:count]


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
    iff ``L_i(v)`` is non-empty and ``deg(v) > 0``.  Once no source has
    a layer left, the remaining rounds carry no message and replay as
    one :meth:`~BatchedArrayContext.idle_steps` call.  Rounds,
    messages, bits and the peak match the generator run bit for bit;
    the ``max_rounds`` error is raised during the replay, after the
    search.

    The searches run in blocks of ``FLOOD_CELLS // n`` sources, on two
    kernels.  A block starts ragged: the sources share one int8 level
    scratch (0 = unseen, else ``level % 3 + 1``: a neighbour of layer
    ``i`` lies in layer ``i - 1``, ``i`` or ``i + 1``), and every
    round expands the block's frontier over its CSR slots in one pass,
    so a layer costs its frontier's slots.  Once the balls fill the
    graph that is more than a whole-graph pass: at the first layer
    where ``FLOOD_SWITCH`` times the frontier's slots exceed one bit
    layer (:func:`_switches`), the block converts its cells to bit rows
    and runs its remaining layers 64 sources to a word
    (:class:`_BitFlood`), as in multi-source BFS.

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
    # flag), ("e", a, b, matched) is 8 + ipb(a) + ipb(b) + 1.
    vbits = 9 + int_payload_bits(np.arange(n))
    ebits = 9 + int_payload_bits(lo) + int_payload_bits(hi)
    if keep_views:
        mate = np.asarray(mates, dtype=np.int64)
        vrec = [(_VERTEX, v, free) for v, free in enumerate((mate == -1).tolist())]
        erec = [
            (_EDGE, a, b, mm)
            for a, b, mm in zip(lo.tolist(), hi.tolist(), (mate[lo] == hi).tolist())
        ]
        views: list[frozenset] = []
    hops = depth + 1 if keep_views else depth
    # bits[i][v]: the size of v's round-i broadcast, for the layers some
    # source reaches; the rounds after them are silent.
    bits: list[np.ndarray] = []

    def row(i: int) -> np.ndarray:
        while len(bits) <= i:
            bits.append(np.zeros(n, dtype=np.int64))
        return bits[i]

    block = max(1, min(n, FLOOD_CELLS // max(n, 1)))
    level = np.zeros(block * n, dtype=np.int8)
    bit_flood = None
    for first in range(0, n, block):
        count = min(block, n - first)
        bit_layer = 2 * num_edges * -(-count // 64) + (n + num_edges) * count // 8

        # Cell j * n + u holds u's level in the search from first + j.
        front = np.arange(count, dtype=np.int64) * (n + 1) + first
        level[front] = 1
        layers = [front]
        # Views' keys past the ragged layers; an edgeless bit search adds none.
        vert_keys = [] if keep_views else None
        edge_keys = [np.zeros(0, dtype=np.int64)] if keep_views else None
        for i in range(hops):
            src, u = np.divmod(front, n)
            cnt = deg[u]
            slots = int(cnt.sum())
            if _switches(i, slots, bit_layer):
                if bit_flood is None:
                    bit_flood = _BitFlood(g, vbits, ebits)
                for j, sent in enumerate(
                    bit_flood.run(layers, hops, count, vert_keys, edge_keys), i
                ):
                    if j < depth:
                        row(j)[first:first + count] = sent
                break
            # One ragged expansion pass: slot j of frontier entry k is
            # indptr[u_k] + j, a running arange plus a per-entry base.
            base = indptr[u].astype(np.int64) - (np.cumsum(cnt) - cnt)
            slot = np.arange(slots, dtype=np.int64)
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
                row(i)[first:first + count] = np.bincount(
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
            vkeys = np.sort(np.concatenate(layers + vert_keys))
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
    for sent in bits:
        ctx.begin_step(live)
        # account_groups drops the groups of degree-0 senders itself.
        senders = np.flatnonzero(sent)
        ctx.account_groups(sent[senders], deg[senders], np.zeros_like(senders))
        ctx.end_step(live > 0)
    # No source has a layer left: the rest of the rounds are silent (an
    # empty graph has no node to yield, so it gains no round).
    if n:
        ctx.idle_steps(live, depth - len(bits))
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
