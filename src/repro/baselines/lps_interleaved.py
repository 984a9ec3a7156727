"""Interleaved weight-class MWM — the O(log n)-style LPS variant.

The sequential implementation in :mod:`repro.baselines.lps_mwm`
processes weight classes one after another (O(log W · log n) rounds) —
the deviation DESIGN.md §2 documents.  The actual [18] result
interleaves the classes to finish in O(log n).  This module provides
an interleaved *engineering* variant:

every phase, each unmatched node targets its **heaviest class with an
available incident edge** and runs one Israeli–Itai step restricted to
that class; acceptors only accept proposals of their own current
class.  Since a node's current class is its best available one, a
proposal can never arrive on a class strictly heavier than the
acceptor's (that edge would *be* the acceptor's class), so priorities
are mutually consistent and heavier edges win locally.

Phases are not pre-scheduled per class, so the total round count
behaves like Israeli–Itai's O(log n) rather than O(log W · log n);
bench A4 measures both that and the quality difference.  We make no
sharper claim than the measured ≥ ¼-style behaviour (the exact [18]
analysis does not transfer verbatim to this simplification — see the
bench's printed comparison).

Two executable forms (ISSUE 4): :func:`lps_interleaved_program` is the
generator spec, :func:`lps_interleaved_array` the vectorized array
program; ``lps_interleaved_mwm(..., backend=...)`` picks, and both
produce byte-identical ``RunResult``s from the same seed.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.baselines.israeli_itai import matching_from_mates
from repro.baselines.lps_mwm import _weight_class
from repro.distributed.backends import (
    ArrayContext,
    int_payload_bits,
    run_program,
    segment_bounds,
)
from repro.distributed.network import Network, RunResult
from repro.distributed.node import Node
from repro.graphs.graph import Graph
from repro.matching.matching import Matching

_PROPOSE = "p"
_ACCEPT = "a"
_MATCHED = "m"


def lps_interleaved_program(
    node: Node,
    wmax: float,
    num_classes: int,
) -> Generator[None, None, int]:
    """Node program; returns the node's mate id, or -1."""
    cls_of: dict[int, int] = {}
    for u in node.neighbors:
        j = _weight_class(node.edge_weight(u), wmax)
        if j < num_classes:
            cls_of[u] = j
    mate = -1
    dead: set[int] = set()
    announced = False
    while True:
        active = (
            {u for u in cls_of if u not in dead} if mate == -1 else set()
        )
        if mate != -1 or not active:
            node.finish(mate)
            return mate
        # Heaviest available class = smallest index among active edges.
        my_cls = min(cls_of[u] for u in active)
        cands = sorted(u for u in active if cls_of[u] == my_cls)
        proposer = bool(node.rng.integers(0, 2))
        target = -1
        if proposer:
            target = int(node.rng.choice(cands))
            node.send(target, (_PROPOSE, my_cls))
        yield
        if not proposer:
            # Accept only same-class proposals (heavier can't arrive).
            props = sorted(
                src
                for src, p in node.inbox
                if p[0] == _PROPOSE and p[1] == my_cls and src in cands
            )
            if props:
                mate = int(node.rng.choice(props))
                node.send(mate, (_ACCEPT,))
        yield
        if proposer and target != -1:
            if any(s == target and p[0] == _ACCEPT for s, p in node.inbox):
                mate = target
        if mate != -1 and not announced:
            node.broadcast((_MATCHED,))
            announced = True
        yield
        for src, p in node.inbox:
            if p[0] == _MATCHED:
                dead.add(src)


def lps_interleaved_array(
    ctx: ArrayContext, wmax: float, num_classes: int
) -> list[int]:
    """Array program twin of :func:`lps_interleaved_program`.

    SoA state: an ``int64`` ``mate`` column, an ``alive`` mask of
    not-yet-returned nodes, and a ``dead`` mask of nodes whose
    ``_MATCHED`` broadcast has been delivered (the announcement is a
    broadcast, so every generator node's private ``dead`` set agrees
    with this one global mask).  Each node's *current class* — the
    heaviest weight class with a live incident edge — is a masked CSR
    segment reduction over per-half-edge classes; the coin flips and
    the two ``choice`` replays follow the per-node RNG streams exactly
    as the generator program draws them.
    """
    g = ctx.graph
    size = ctx.n
    indptr, indices = ctx.indptr, ctx.indices
    _, _, eids = g.adjacency_arrays()
    weights = g.weights_array()
    edge_cls = np.fromiter(
        (_weight_class(float(w), wmax) for w in weights),
        dtype=np.int64,
        count=weights.size,
    )
    he_cls = edge_cls[eids]  # class of each half-edge, CSR-aligned
    usable = he_cls < num_classes
    # Per-vertex neighbor ids sorted ascending, with aligned classes —
    # the order the generator program's sorted() candidate lists use.
    snbr: list[np.ndarray] = []
    scls: list[np.ndarray] = []
    for v in range(size):
        seg = slice(int(indptr[v]), int(indptr[v + 1]))
        nb, cl = indices[seg], he_cls[seg]
        keep = cl < num_classes
        nb, cl = nb[keep], cl[keep]
        order = np.argsort(nb)
        snbr.append(nb[order])
        scls.append(cl[order])
    outputs: list[int | None] = [None] * size
    mate = np.full(size, -1, dtype=np.int64)
    alive = np.ones(size, dtype=bool)
    dead = np.zeros(size, dtype=bool)
    degrees = g.degrees()
    rngs = ctx.rngs
    eight = np.int64(8)
    starts = indptr[:-1]
    while alive.any():
        # Resume A: matched nodes and nodes without a live usable edge
        # return; the rest target their heaviest available class, flip
        # proposer coins, and invite one random same-class neighbor.
        ctx.begin_step(int(alive.sum()))
        active_he = usable & ~dead[indices]
        inverted = np.where(active_he, num_classes - he_cls, 0)
        if indices.size:
            # Zero sentinel: keeps trailing degree-0 vertices' starts
            # in range without shifting the last non-empty segment's
            # boundary.
            best = np.maximum.reduceat(
                np.concatenate((inverted, [np.int64(0)])), starts
            )
            best[indptr[:-1] == indptr[1:]] = 0
        else:
            best = np.zeros(size, dtype=np.int64)
        my_cls = num_classes - best  # valid where best > 0
        returning = alive & ((mate != -1) | (best == 0))
        for v in np.flatnonzero(returning).tolist():
            outputs[v] = int(mate[v])
        alive &= ~returning
        live = np.flatnonzero(alive)
        if live.size == 0:
            break  # everyone returned without yielding: no round counted
        proposer = np.zeros(size, dtype=bool)
        target = np.full(size, -1, dtype=np.int64)
        for v in live.tolist():
            if rngs[v].integers(0, 2):
                cand = snbr[v][
                    (scls[v] == my_cls[v]) & ~dead[snbr[v]]
                ]
                target[v] = int(rngs[v].choice(cand.tolist()))
                proposer[v] = True
        proposer_ids = np.flatnonzero(proposer)
        ctx.account_groups(
            eight + int_payload_bits(my_cls[proposer_ids]),
            np.ones(proposer_ids.size, np.int64),
        )
        ctx.end_step(True)
        # Resume B: each live non-proposer accepts one same-class
        # proposal uniformly at random (heavier classes cannot arrive).
        ctx.begin_step(live.size)
        accepted_by = np.full(size, -1, dtype=np.int64)
        targets = target[proposer_ids]
        accept_count = 0
        if targets.size:
            order = np.argsort(targets, kind="stable")  # per-target, src asc.
            sorted_targets = targets[order]
            sorted_srcs = proposer_ids[order]
            bounds = segment_bounds(sorted_targets)
            for k in range(bounds.size - 1):
                dst = int(sorted_targets[bounds[k]])
                if proposer[dst] or not alive[dst]:
                    continue  # proposers (and returned nodes) ignore proposals
                grp = sorted_srcs[bounds[k]: bounds[k + 1]]
                props = grp[my_cls[grp] == my_cls[dst]].tolist()
                if props:
                    accepted_by[dst] = int(rngs[dst].choice(props))
                    accept_count += 1
        ctx.account_groups(
            np.full(accept_count, eight), np.ones(accept_count, np.int64)
        )
        ctx.end_step(True)
        # Resume C: proposers learn acceptance; every freshly matched
        # node broadcasts _MATCHED once to its *full* neighborhood.
        ctx.begin_step(live.size)
        successful = proposer_ids[accepted_by[targets] == proposer_ids]
        mate[successful] = target[successful]
        acceptors = np.flatnonzero(accepted_by != -1)
        mate[acceptors] = accepted_by[acceptors]
        matched_now = np.concatenate((successful, acceptors))
        ctx.account_groups(
            np.full(matched_now.size, eight), degrees[matched_now]
        )
        ctx.end_step(True)
        dead[matched_now] = True  # the broadcast lands next resume A
    return outputs


def lps_interleaved_mwm(
    g: Graph,
    seed: int = 0,
    num_classes: int | None = None,
    max_rounds: int = 1_000_000,
    backend: str = "generator",
) -> tuple[Matching, RunResult]:
    """Run the interleaved weight-class matching; returns (M, metrics).

    ``backend`` selects the execution engine (``"generator"`` or
    ``"array"``); both yield byte-identical results from the same seed,
    so the paper's interleaved-matching pipeline runs vectorized end to
    end when ``"array"`` is chosen.
    """
    if not g.weighted:
        raise ValueError("lps_interleaved_mwm needs a weighted graph")
    if g.m == 0:
        return Matching(g), RunResult()
    import math

    wmax = max(w for *_, w in g.iter_weighted_edges())
    if num_classes is None:
        num_classes = 2 * max(1, math.ceil(math.log2(max(2, g.n)))) + 4
    res = run_program(
        g,
        backend=backend,
        generator_program=lps_interleaved_program,
        array_program=lps_interleaved_array,
        params={"wmax": wmax, "num_classes": num_classes},
        seed=seed,
        max_rounds=max_rounds,
    )
    return matching_from_mates(g, res.outputs), res
