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
bench A4 measures both that and the quality difference.  We make no
sharper claim than the measured ≥ ¼-style behaviour (the exact [18]
analysis does not transfer verbatim to this simplification — see the
bench's printed comparison).

Two executable forms: :func:`lps_interleaved_program` is the generator
spec, :func:`lps_interleaved_array` the array program over a lane axis
of seeds; ``lps_interleaved_mwm(..., backend="array")`` runs it as a
one-lane batch, and both forms produce byte-identical ``RunResult``s
from the same seed.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.baselines.israeli_itai import matching_from_mates
from repro.baselines.lps_mwm import _weight_class, _weight_class_array
from repro.distributed.backends import (
    BatchedArrayContext,
    choose_targets,
    int_payload_bits,
    lane_nonzero,
    replay_acceptor_choices,
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

    SoA state with a leading seed axis: an ``int64`` ``mate`` column, an
    ``alive`` mask of not-yet-returned nodes (lanes terminate
    independently, as in the Israeli–Itai program), and a ``dead`` mask
    of nodes whose ``_MATCHED`` broadcast has been delivered (a
    broadcast, so one mask row per lane agrees with every generator
    node's private ``dead`` set).  Each live node's *current class* — the
    heaviest weight class with a usable half-edge to a non-dead
    neighbor — is a scatter-min over those half-edges.  Coin flips and
    the two ``choice`` replays are bulk ``ctx.lanes`` draws: proposal
    targets are one rank-select over the sorted CSR
    (:func:`~repro.distributed.backends.choose_targets`) restricted to
    the proposer's class and non-dead neighbors, and acceptances replay
    over same-class proposals
    (:func:`~repro.distributed.backends.replay_acceptor_choices`).  A
    returned node's mate never changes again, so the final ``mate``
    rows are the outputs.
    """
    g = ctx.graph
    num_seeds, size = ctx.num_seeds, ctx.n
    indptr, indices = ctx.indptr, ctx.indices
    _, _, eids = g.adjacency_arrays()
    he_cls = _weight_class_array(g.weights_array(), wmax)[eids]
    # usable half-edges (class below the cutoff): owner, neighbor, class
    usable = np.flatnonzero(he_cls < num_classes)
    owner = np.repeat(np.arange(size, dtype=np.int64), np.diff(indptr))
    u_owner = owner[usable]
    u_nbr = indices[usable]
    u_cls = he_cls[usable]
    sidx, s_nbr = sorted_csr(indptr, indices)
    mate = np.full((num_seeds, size), -1, dtype=np.int64)
    alive = np.ones((num_seeds, size), dtype=bool)
    dead = np.zeros((num_seeds, size), dtype=bool)
    degrees = g.degrees()
    lanes = ctx.lanes
    eight = np.int64(8)
    while alive.any():
        # Resume A: matched nodes and nodes without a live usable edge
        # return; the rest target their heaviest available class, flip
        # proposer coins, and invite one random same-class neighbor.
        ctx.begin_step(alive.sum(axis=1))
        alive &= mate == -1
        hr, hc = lane_nonzero(alive[:, u_owner] & ~dead[:, u_nbr])
        hkey = hr * size + u_owner[hc]
        my_cls = np.full(num_seeds * size, num_classes, dtype=np.int64)
        np.minimum.at(my_cls, hkey, u_cls[hc])
        alive &= (my_cls < num_classes).reshape(num_seeds, size)
        lrows, lcols = lane_nonzero(alive)
        if lrows.size == 0:
            break  # every lane returned without yielding: no round counted
        live = alive.sum(axis=1)
        in_phase = live > 0
        at_cls = u_cls[hc] == my_cls[hkey]
        cand_deg = np.bincount(hkey[at_cls], minlength=num_seeds * size)
        coins = lanes.integers(0, 2, lrows * size + lcols)
        picked = coins == 1
        pr, pv = lrows[picked], lcols[picked]
        pflat = pr * size + pv
        idx = lanes.integers(0, cand_deg[pflat], pflat)
        tgt = choose_targets(
            indptr, s_nbr, sidx, pv, idx,
            lambda seg, pos, nbr: (
                (he_cls[pos] == my_cls[pflat[seg]]) & ~dead[pr[seg], nbr]
            ),
        )
        ctx.account_groups(
            eight + int_payload_bits(my_cls[pflat]),
            np.ones(pr.size, np.int64),
            pr,
        )
        ctx.end_step(in_phase)
        # Resume B: each live non-proposer accepts one same-class
        # proposal uniformly at random (heavier classes cannot arrive).
        ctx.begin_step(live)
        tflat = pr * size + tgt
        same = my_cls[tflat] == my_cls[pflat]
        ignores = ~alive.reshape(-1)  # returned nodes ignore proposals
        ignores[pflat] = True  # and so do proposers
        acc, chosen = replay_acceptor_choices(
            lanes, tflat[same], pv[same], ignores
        )
        accepted_by = np.full(num_seeds * size, -1, dtype=np.int64)
        accepted_by[acc] = chosen
        arows, acols = np.divmod(acc, size)
        ctx.account_groups(
            np.full(acc.size, eight), np.ones(acc.size, np.int64), arows
        )
        ctx.end_step(in_phase)
        # Resume C: proposers learn acceptance; every freshly matched
        # node broadcasts _MATCHED once to its *full* neighborhood.
        ctx.begin_step(live)
        succeeded = accepted_by[tflat] == pv
        mate[pr[succeeded], pv[succeeded]] = tgt[succeeded]
        mate[arows, acols] = chosen
        m_rows = np.concatenate((pr[succeeded], arows))
        m_cols = np.concatenate((pv[succeeded], acols))
        ctx.account_groups(
            np.full(m_rows.size, eight), degrees[m_cols], m_rows
        )
        ctx.end_step(in_phase)
        dead[m_rows, m_cols] = True  # the broadcast lands next resume A
    return [row.tolist() for row in mate]


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
