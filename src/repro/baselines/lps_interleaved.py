"""Interleaved weight-class MWM — the O(log n)-style LPS variant.

The sequential implementation in :mod:`repro.baselines.lps_mwm`
processes weight classes one after another (O(log W · log n) rounds) —
the deviation that module documents.  The actual [18] result
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
claim A4 of ``benchmarks/bench_claims.py`` measures both that and the
quality difference.  We make no sharper claim than the measured
≥ ¼-style behaviour (the exact [18] analysis does not transfer
verbatim to this simplification — see A4's rows).

Two executable forms: :func:`lps_interleaved_program` is the generator
spec, :func:`lps_interleaved_array` the array program over a lane axis
of seeds; ``lps_interleaved_mwm(..., backend="array")`` runs it as a
one-lane batch, and both forms produce byte-identical ``RunResult``s
from the same seed.  The array program's per-phase edge work is one
compaction of its live candidate pairs, ordered by class per owner.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.baselines.israeli_itai import matching_from_mates
from repro.baselines.lps_mwm import _weight_class, _weight_class_array
from repro.distributed.backends import (
    BatchedArrayContext,
    int_payload_bits,
    pair_keys,
    replay_acceptor_choices,
    resolve_backend,
    run_program_batched,
    sorted_csr,
)
from repro.distributed.network import RunResult
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
    ctx: BatchedArrayContext, wmax: float, num_classes: int
) -> list[list[int]]:
    """Array program of :func:`lps_interleaved_program`, one lane per seed.

    State is flat over lane ids (``seed_index * n + vertex``): an
    ``int64`` ``mate`` column, an ``alive`` mask of not-yet-returned
    nodes (lanes terminate independently), a ``dead`` mask of nodes
    whose ``_MATCHED`` broadcast has been delivered (one mask per lane
    agrees with every generator node's private ``dead`` set), and the
    usable half-edges as one list of ``(owner, neighbor)`` key pairs
    (:func:`~repro.distributed.backends.pair_keys`), each owner's pairs
    ordered by class, then neighbor id.  Every resume A drops the pairs
    with a dead end; a node's *current class* is then the class of its
    first pair, and its ``sorted(cands)`` the leading class run.  Coin
    flips and the two ``choice`` replays are bulk ``ctx.lanes`` draws:
    a proposer's target is the drawn offset into its leading run, and
    acceptances replay over same-class proposals
    (:func:`~repro.distributed.backends.replay_acceptor_choices`).  A
    returned node's mate never changes again, so the final ``mate``
    rows are the outputs.
    """
    g = ctx.graph
    num_seeds, size = ctx.num_seeds, ctx.n
    shape = (num_seeds, size)
    indptr, indices = ctx.indptr, ctx.indices
    _, _, eids = g.adjacency_arrays()
    sidx, s_nbr = sorted_csr(indptr, indices)
    row_cls = np.tile(
        _weight_class_array(g.weights_array(), wmax)[eids[sidx]], num_seeds
    )
    rows = np.flatnonzero(row_cls < num_classes)  # the usable half-edges
    own, nbr = pair_keys(indptr, s_nbr, num_seeds, rows)
    cls = row_cls[rows]
    # each owner's pairs by class; the stable sort keeps neighbor order
    order = np.argsort(own.astype(np.int64) * num_classes + cls, kind="stable")
    own, nbr, cls = own[order], nbr[order], cls[order]
    mate = np.full(num_seeds * size, -1, dtype=np.int64)
    alive = np.ones(num_seeds * size, dtype=bool)
    dead = np.zeros(num_seeds * size, dtype=bool)
    my_cls = np.zeros(num_seeds * size, dtype=np.int64)  # read at drawers only
    degrees = g.degrees()
    lanes = ctx.lanes
    eight = np.int64(8)
    while alive.any():
        # Resume A: matched nodes and nodes without a live usable edge
        # return; the rest target their heaviest available class, flip
        # proposer coins, and invite one random same-class neighbor.
        ctx.begin_step(alive.reshape(shape).sum(axis=1))
        keep = ~(dead[own] | dead[nbr])
        own, nbr, cls = own[keep], nbr[keep], cls[keep]
        if own.size == 0:
            break  # every lane returned without yielding: no round counted
        # One run per owner and class; each owner's leading run holds
        # its current class's candidates.
        new_own = np.concatenate(([True], own[1:] != own[:-1]))
        runs = np.flatnonzero(
            new_own | np.concatenate(([False], cls[1:] != cls[:-1]))
        )
        leading = new_own[runs]
        cand_deg = np.diff(np.append(runs, own.size))[leading]
        heads = runs[leading]
        drawers = own[heads]
        alive[:] = False
        alive[drawers] = True
        my_cls[drawers] = cls[heads]
        live = alive.reshape(shape).sum(axis=1)
        in_phase = live > 0
        picked = lanes.integers(0, 2, drawers) == 1
        prop = drawers[picked]
        tflat = nbr[heads[picked] + lanes.integers(0, cand_deg[picked], prop)]
        pr = prop // size
        pcols = prop - pr * size
        pcls = my_cls[prop]
        ctx.account_groups(
            eight + int_payload_bits(pcls), np.ones(prop.size, np.int64), pr
        )
        ctx.end_step(in_phase)
        # Resume B: each live non-proposer accepts one same-class
        # proposal uniformly at random (heavier classes cannot arrive).
        ctx.begin_step(live)
        same = my_cls[tflat] == pcls
        ignores = ~alive  # returned nodes ignore proposals
        ignores[prop] = True  # and so do proposers
        acc, chosen = replay_acceptor_choices(
            lanes, tflat[same], pcols[same], ignores
        )
        accepted_by = np.full(num_seeds * size, -1, dtype=np.int64)
        accepted_by[acc] = chosen
        arows = acc // size
        ctx.account_groups(
            np.full(acc.size, eight), np.ones(acc.size, np.int64), arows
        )
        ctx.end_step(in_phase)
        # Resume C: proposers learn acceptance; every freshly matched
        # node broadcasts _MATCHED once to its *full* neighborhood.
        ctx.begin_step(live)
        succeeded = accepted_by[tflat] == pcols
        mate[prop[succeeded]] = tflat[succeeded] - pr[succeeded] * size
        mate[acc] = chosen
        m_flat = np.concatenate((prop[succeeded], acc))
        m_rows = np.concatenate((pr[succeeded], arows))
        ctx.account_groups(
            np.full(m_rows.size, eight), degrees[m_flat - m_rows * size], m_rows
        )
        ctx.end_step(in_phase)
        dead[m_flat] = True  # the broadcast lands next resume A
    return [row.tolist() for row in mate.reshape(shape)]


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
    resolve_backend(backend)
    if not g.weighted:
        raise ValueError("lps_interleaved_mwm needs a weighted graph")
    if g.m == 0:
        return Matching(g), RunResult()
    import math

    wmax = float(g.weights_array().max())
    if num_classes is None:
        num_classes = 2 * max(1, math.ceil(math.log2(max(2, g.n)))) + 4
    res = run_program_batched(
        g,
        backend=backend,
        generator_program=lps_interleaved_program,
        batched_array_program=lps_interleaved_array,
        params={"wmax": wmax, "num_classes": num_classes},
        seeds=[seed],
        max_rounds=max_rounds,
    )[0]
    return matching_from_mates(g, res.outputs), res
