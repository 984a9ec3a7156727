"""Israeli–Itai randomized maximal matching — the classical ½-MCM.

Reference [15]: "A fast and simple randomized parallel algorithm for
maximal matching", IPL 1986.  The paper under reproduction cites it as
*the* baseline its (1−ε)-MCM improves on, and notes PIM/iSLIP descend
from it.

We implement the standard proposal variant: each phase every unmatched
node flips a coin to act as *proposer* or *acceptor* (this is
Israeli–Itai's random edge-orientation step, which prevents a node from
simultaneously proposing and accepting); proposers invite one random
unmatched neighbor; acceptors accept one incoming invitation uniformly
at random; matched nodes announce themselves so neighbors stop
inviting them.  A constant fraction of incident-edge mass is removed
per phase in expectation, giving O(log n) phases w.h.p.

A phase costs 3 communication rounds (propose / accept / announce).
Nodes terminate locally when matched or out of unmatched neighbors, so
the network run ends exactly when the matching is maximal.

Two executable forms: :func:`israeli_itai_program` is the generator
spec and :func:`israeli_itai_array_batched` the array program, written
over a lane axis of seeds.  ``israeli_itai_matching(...,
backend="array")`` runs the array program as a one-lane batch and
:func:`israeli_itai_matching_batched` over a whole seed list; every
form produces byte-identical ``RunResult``s from the same seed.  The
array program is also the only array form of the protocol under a
:class:`~repro.distributed.faults.FaultPlan`: faulted and fault-free
lanes run the same loop, so the array side's fault behaviour is
defined in one place.  It keeps the candidate sets as one list of
``(owner, neighbor)`` pairs that every phase compacts to the pairs
still live, so a phase costs the residual graph rather than a pass
over all 2m half-edges.
"""

from __future__ import annotations

from typing import Generator, Sequence

import numpy as np

from repro.distributed.backends import (
    BatchedArrayContext,
    lane_nonzero,
    pair_keys,
    replay_acceptor_choices,
    run_program_batched,
    segment_bounds,
    sorted_csr,
)
from repro.distributed.faults import NEVER, FaultPlan
from repro.distributed.network import Network, RunResult
from repro.distributed.node import Node
from repro.graphs.graph import Graph
from repro.matching.matching import Matching, symmetric_mate_vector

# Protocol tags (single characters: O(1) bits per message + the tag).
_PROPOSE = "p"
_ACCEPT = "a"
_MATCHED = "m"


def israeli_itai_program(node: Node) -> Generator[None, None, int]:
    """Node program; returns the node's mate id, or -1 if unmatched.

    Fault-adaptive: the candidate set is recomputed every phase from
    the *current* ``node.neighbors`` view (which the engine prunes on
    crashes/link failures under a fault plan) minus the neighbors
    announced as matched, and received proposals are filtered against
    the current view — so crashed proposers are never accepted.  On a
    fault-free run the view never changes and the draw sequence is
    byte-identical to the pre-fault program (pinned by the seed
    goldens).
    """
    announced: set[int] = set()
    mate = -1
    while True:
        cand = sorted(u for u in node.neighbors if u not in announced)
        if mate != -1 or not cand:
            node.finish(mate)
            return mate
        proposer = bool(node.rng.integers(0, 2))
        target = -1
        if proposer:
            target = int(node.rng.choice(cand))
            node.send(target, _PROPOSE)
        yield
        # Acceptors pick one proposal uniformly at random (proposals
        # from since-crashed/disconnected neighbors are discarded —
        # perfect failure detection).
        if not proposer:
            cur = set(node.neighbors)
            proposals = sorted(
                src for src, tag in node.inbox
                if tag == _PROPOSE and src in cur
            )
            if proposals:
                chosen = int(node.rng.choice(proposals))
                mate = chosen
                node.send(chosen, _ACCEPT)
        yield
        # Proposers learn whether their invitation was accepted.  No
        # view filter here: an acceptance from a node that crashed
        # right after replying still matched us (the widow case the
        # degradation oracle reports).
        if proposer and target != -1:
            if any(src == target and tag == _ACCEPT for src, tag in node.inbox):
                mate = target
        if mate != -1:
            node.broadcast(_MATCHED)
        yield
        for src, tag in node.inbox:
            if tag == _MATCHED:
                announced.add(src)


def israeli_itai_array_batched(
    ctx: BatchedArrayContext,
) -> list[list[int | None]]:
    """Array program of :func:`israeli_itai_program`, one lane per seed.

    State is flat over lane ids (``seed_index * n + vertex``): an
    ``int64`` ``mate`` column, a ``running`` mask (neither returned nor
    crashed), and the candidate sets as one list of ``(owner,
    neighbor)`` key pairs (:func:`~repro.distributed.backends.pair_keys`),
    each owner's pairs one run in ascending neighbor order.  Every
    resume A drops the pairs whose owner stopped running and,
    fault-free, those whose neighbor did: such a neighbor is matched
    (its ``_MATCHED`` reached every neighbor) or ran out of candidates
    (so every neighbor is matched).  A running node without pairs
    returns; the drawers are the runs, and a proposer's
    ``choice(sorted(cand))`` is the drawn offset into its run, so a
    phase costs the pairs still live, not a pass over all 2m half-edges.

    Every draw of a resume is one bulk ``ctx.lanes`` call: running
    nodes flip coins, then proposers and accepting acceptors each
    consume one bounded draw (``choice(seq)`` consumes exactly
    ``integers(0, len(seq))``).  Acceptors pick by
    :func:`~repro.distributed.backends.replay_acceptor_choices`, which
    skips proposers, returned nodes and crashed nodes.

    A bound fault plan (``ctx.faults``) runs in the same loop.  The
    lanes still running share one round number, so the top of each
    resume fires that round's events from the per-lane schedules
    (stacked ``(lanes, m)`` link and ``(lanes, n)`` crash rounds) on
    the running lanes only: a link failure always counts, a crash only
    if its node still runs, as in
    :class:`~repro.distributed.network.Network`.  Each pair then also
    carries its lane's edge id (``lane * m + edge``), and a pair stays
    while its neighbor has not crashed and its edge has neither failed
    nor carried a delivered ``_MATCHED`` (that drops the sender's pair
    too, which goes anyway: the sender is matched).  Each delivery's
    loss is its lane's stateless hash
    (:meth:`~repro.distributed.faults.FaultState.drop_mask`); attempted
    sends always count.  A proposal reaches an acceptor that still sees
    its proposer; an acceptance matches its proposer even if the
    acceptor crashed right after replying (the widow case the
    degradation oracle reports).  Crashed nodes output ``None``.
    """
    g = ctx.graph
    num_seeds, size = ctx.num_seeds, ctx.n
    shape = (num_seeds, size)
    indptr, indices, eids = g.adjacency_arrays()
    sidx, s_nbr = sorted_csr(indptr, indices)
    own, nbr = pair_keys(indptr, s_nbr, num_seeds)
    mate = np.full(num_seeds * size, -1, dtype=np.int64)
    running = np.ones(num_seeds * size, dtype=bool)
    lanes = ctx.lanes
    eight = np.int64(8)  # every tag payload is one 8-bit character
    fstates = ctx.faults
    if fstates is not None:
        link = np.array([f.link_fail_round for f in fstates], np.int64)
        crash = np.array([f.crash_round for f in fstates], np.int64).ravel()
        crashed = np.zeros(num_seeds * size, dtype=bool)
        gone = np.zeros(link.size, dtype=bool)  # lane edges out of use
        last_event = max(
            int(a[a < NEVER].max(initial=-1)) for a in (link, crash)
        )
        base = np.arange(num_seeds, dtype=np.int64)[:, None] * g.m
        edge = (base + eids[sidx]).reshape(-1)  # each pair's lane edge

    def per_lane(mask: np.ndarray) -> np.ndarray:
        """Per-lane counts of a flat lane mask."""
        return mask.reshape(shape).sum(axis=1)

    def fire_events(r: int) -> None:
        """Round ``r``'s link failures and crashes, on running lanes."""
        if fstates is None or r > last_event:
            return
        dead = (link == r) & running.reshape(shape).any(axis=1)[:, None]
        victims = (crash == r) & running
        ctx.add_fault_counts(crashed=per_lane(victims), links=dead.sum(axis=1))
        running[victims] = False
        crashed[victims] = True
        gone[dead.reshape(-1)] = True

    def lost(rows: np.ndarray, src: np.ndarray, dst: np.ndarray, r: int
             ) -> np.ndarray:
        """Loss of each lane-``rows`` delivery ``src -> dst`` of round r."""
        drop = np.zeros(rows.size, dtype=bool)
        for s, f in enumerate(fstates):
            on = rows == s
            drop[on] = f.drop_mask(src[on], dst[on], r)
        ctx.add_fault_counts(
            dropped=np.bincount(rows[drop], minlength=num_seeds)
        )
        return drop

    while True:
        # Resume A: matched nodes and nodes without candidates return;
        # the rest flip proposer coins and send invitations.
        r = int(ctx.rounds.max(initial=0))  # the running lanes' round
        fire_events(r)
        ctx.begin_step(per_lane(running))
        running &= mate == -1
        keep = running[own]
        if fstates is None:
            keep &= running[nbr]
        else:
            keep &= ~(gone[edge] | crashed[nbr])
            edge = edge[keep]
        own, nbr = own[keep], nbr[keep]
        runs = segment_bounds(own)  # one run per drawer, in lane order
        drawers = own[runs[:-1]]
        running[:] = False
        running[drawers] = True
        if drawers.size == 0:
            break  # every seed returned without yielding: no rounds
        picked = lanes.integers(0, 2, drawers) == 1
        prop = drawers[picked]
        # Each proposer replays choice(cand): one bounded draw, then the
        # entry at that offset into its run.
        sel = runs[:-1][picked] + lanes.integers(0, np.diff(runs)[picked], prop)
        tgt = nbr[sel]
        prows = prop // size
        pcols = prop - prows * size
        ctx.account_groups(
            np.full(prop.size, eight), np.ones(prop.size, np.int64), prows
        )
        if fstates is not None:
            pdrop = lost(prows, pcols, tgt - prows * size, r)
        ctx.end_step(per_lane(running) > 0)
        # Resume B: each running acceptor picks one proposal it can see
        # uniformly at random and replies.
        fire_events(r + 1)
        if not running.any():
            break
        ctx.begin_step(per_lane(running))
        keys, srcs = tgt, pcols
        if fstates is not None:
            # the pair was live at resume A, so only a link failure
            # since then can have marked its edge gone
            seen = ~pdrop & ~crashed[prop] & ~gone[edge[sel]]
            keys, srcs = keys[seen], srcs[seen]
        ignores = ~running  # returned and crashed nodes
        ignores[prop] = True  # and proposers ignore proposals
        acc, chosen = replay_acceptor_choices(lanes, keys, srcs, ignores)
        arows = acc // size
        acols = acc - arows * size
        mate[acc] = chosen
        ctx.account_groups(
            np.full(acc.size, eight), np.ones(acc.size, np.int64), arows
        )
        won = np.ones(acc.size, dtype=bool)
        if fstates is not None:
            won = ~lost(arows, acols, chosen, r + 1)
        ctx.end_step(per_lane(running) > 0)
        # Resume C: proposers learn acceptance; every freshly matched
        # node broadcasts _MATCHED to its whole view.
        fire_events(r + 2)
        if not running.any():
            break
        ctx.begin_step(per_lane(running))
        wins = arows * size + chosen  # the proposers' lane ids
        won &= running[wins]
        mate[wins[won]] = acols[won]
        brows, bcols = lane_nonzero((running & (mate != -1)).reshape(shape))
        bdeg = (indptr[bcols + 1] - indptr[bcols]).astype(np.int64)
        if fstates is not None:  # the view: live links, live neighbors
            seg = np.repeat(np.arange(bcols.size), bdeg)
            slot = np.arange(seg.size) + np.repeat(
                indptr[bcols] - np.cumsum(bdeg) + bdeg, bdeg
            )
            row = brows[seg]
            seen = (
                (link[row, eids[slot]] > r + 2)
                & ~crashed[row * size + indices[slot]]
            )
            seg, row, slot = seg[seen], row[seen], slot[seen]
            bdeg = np.bincount(seg, minlength=bcols.size)
        ctx.account_groups(np.full(bcols.size, eight), bdeg, brows)
        if fstates is not None:
            kept = ~lost(row, bcols[seg], indices[slot], r + 2)
            gone[row[kept] * g.m + eids[slot[kept]]] = True
        ctx.end_step(per_lane(running) > 0)
    mate = mate.reshape(shape)
    if fstates is None:
        return [row.tolist() for row in mate]
    outputs = mate.astype(object)
    outputs[crashed.reshape(shape)] = None
    return outputs.tolist()


#: fault-seam marker: the batched port may run under an active plan.
israeli_itai_array_batched.supports_faults = True


def _assemble(g: Graph, res: RunResult, faults: FaultPlan | None) -> Matching:
    """Matching from run outputs, tolerating fault-induced asymmetry."""
    if faults is not None and faults.is_active:
        from repro.matching.certify import degraded_matching

        return degraded_matching(g, res.outputs)[0]
    return matching_from_mates(g, res.outputs)


def israeli_itai_matching_batched(
    g: Graph,
    seeds: "Sequence[int]",
    max_rounds: int = 100_000,
    backend: str = "array",
    faults: FaultPlan | None = None,
) -> list[tuple[Matching, RunResult]]:
    """Run Israeli–Itai once per seed as a single batched execution.

    ``backend="array"`` (default) executes the whole batch as one
    :class:`~repro.distributed.backends.BatchedArrayBackend` run;
    ``"generator"`` falls back to one ``Network`` per seed.  Both
    return per-seed ``(Matching, RunResult)`` pairs identical to
    ``[israeli_itai_matching(g, seed=s) for s in seeds]``.  Under an
    active ``faults`` plan each lane's matching is assembled with the
    degradation-tolerant reader (crashed nodes and widowed survivors
    contribute no pairs).
    """
    results = run_program_batched(
        g,
        backend=backend,
        generator_program=israeli_itai_program,
        batched_array_program=israeli_itai_array_batched,
        seeds=seeds,
        max_rounds=max_rounds,
        faults=faults,
    )
    return [(_assemble(g, res, faults), res) for res in results]


def israeli_itai_matching(
    g: Graph, seed: int = 0, max_rounds: int = 100_000,
    backend: str = "generator",
    faults: FaultPlan | None = None,
) -> tuple[Matching, RunResult]:
    """Run Israeli–Itai on ``g``; returns (maximal matching, run metrics).

    ``backend`` selects the execution engine (``"generator"`` or
    ``"array"`` — the array program as a one-lane batch); both yield
    byte-identical results from the same seed — including under an
    active ``faults`` plan, where the returned matching keeps only
    symmetric survivor pairs (use
    :func:`repro.matching.certify.certify_degraded_matching` for the
    full degradation report).
    """
    return israeli_itai_matching_batched(
        g, [seed], max_rounds=max_rounds, backend=backend, faults=faults
    )[0]


def matching_from_mates(g: Graph, mates: dict[int, int]) -> Matching:
    """Assemble a :class:`Matching` from per-node mate outputs.

    Validates symmetry: ``mates[u] == v`` requires ``mates[v] == u``
    (:func:`~repro.matching.matching.symmetric_mate_vector`).  A node
    claiming itself, or a claimed pair that is not an edge, raises too.
    """
    return Matching.from_mate_array(g, symmetric_mate_vector(g.n, mates))
