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
defined in one place.  It keeps each node's candidate count across
phases and updates it only where a phase clears a candidate, so a
phase costs what it delivers rather than a pass over all 2m
half-edges.
"""

from __future__ import annotations

from typing import Generator, Sequence

import numpy as np

from repro.distributed.backends import (
    BatchedArrayContext,
    choose_targets,
    lane_nonzero,
    replay_acceptor_choices,
    run_program_batched,
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

    SoA state with a leading seed axis: an ``int64`` ``mate`` column, a
    ``running`` mask (neither returned nor crashed) and a ``cand`` mask
    over the CSR's half-edge slots: slot ``(v, u)`` is set while ``u``
    is in ``v``'s view and has not announced ``_MATCHED`` to ``v``.  A
    delivered ``_MATCHED`` clears the reverse slot of its sender's
    half-edge.  A node's candidate count ``deg`` is kept across phases:
    it starts at the degree and loses exactly the set slots that get
    cleared, so a phase's slot work is what it delivers, not a pass
    over the mask (its per-vertex masks stay ``(num_seeds, n)``).

    Every draw of a resume is one bulk ``ctx.lanes`` call: running
    nodes flip coins, then proposers and accepting acceptors each
    consume one bounded draw (``choice(seq)`` consumes exactly
    ``integers(0, len(seq))``).  Proposers pick by one rank-select over
    the sorted CSR (:func:`~repro.distributed.backends.choose_targets`),
    acceptors by
    :func:`~repro.distributed.backends.replay_acceptor_choices`, which
    skips proposers, returned nodes and crashed nodes.

    A bound fault plan (``ctx.faults``) runs in the same loop.  The
    lanes still running share one round number, so the top of each
    resume fires that round's events from the per-lane schedules
    (stacked ``(lanes, m)`` link and ``(lanes, n)`` crash rounds) on
    the running lanes only: a link failure always counts, a crash only
    if its node still runs, as in
    :class:`~repro.distributed.network.Network`.  Each delivery's loss
    is its lane's stateless hash
    (:meth:`~repro.distributed.faults.FaultState.drop_mask`); attempted
    sends always count.  A proposal reaches an acceptor that still sees
    its proposer; an acceptance matches its proposer even if the
    acceptor crashed right after replying (the widow case the
    degradation oracle reports).  Crashed nodes output ``None``.
    """
    g = ctx.graph
    num_seeds, size = ctx.num_seeds, ctx.n
    indptr, indices, eids = g.adjacency_arrays()
    sidx, s_nbr = sorted_csr(indptr, indices)
    half = eids.size
    # An edge's two slots sum to pair[e], so slot t's reverse slot is
    # pair[eids[t]] - t (exact: the float sums stay below 2^53).
    pair = np.bincount(
        eids, weights=np.arange(half, dtype=np.float64), minlength=g.m
    ).astype(np.int64)
    mate = np.full((num_seeds, size), -1, dtype=np.int64)
    running = np.ones((num_seeds, size), dtype=bool)
    cand = np.ones((num_seeds, half), dtype=bool)
    deg = np.tile(g.degrees().astype(np.int64), (num_seeds, 1))
    flat_deg = deg.reshape(-1)
    lanes = ctx.lanes
    eight = np.int64(8)  # every tag payload is one 8-bit character
    fstates = ctx.faults
    if fstates is not None:
        link = np.array(
            [f.link_fail_round for f in fstates], dtype=np.int64
        ).reshape(num_seeds, g.m)
        crash = np.array(
            [f.crash_round for f in fstates], dtype=np.int64
        ).reshape(num_seeds, size)
        crashed = np.zeros((num_seeds, size), dtype=bool)
        last_event = max(
            int(a[a < NEVER].max(initial=-1)) for a in (link, crash)
        )
        owner = np.repeat(np.arange(size, dtype=np.int64), g.degrees())

    def drop_candidates(
        rows: np.ndarray, slots: np.ndarray, owners: np.ndarray
    ) -> None:
        """Clear the set slots ``(rows, slots)`` owned by ``owners``."""
        cand[rows, slots] = False
        np.subtract.at(flat_deg, rows * size + owners, 1)

    def fire_events(r: int) -> None:
        """Round ``r``'s link failures and crashes, on running lanes."""
        if fstates is None or r > last_event:
            return
        dead = (link == r) & running.any(axis=1)[:, None]
        victims = (crash == r) & running
        ctx.add_fault_counts(
            crashed=victims.sum(axis=1), links=dead.sum(axis=1)
        )
        running[victims] = False
        crashed[victims] = True
        # Only slots still set count: a link can fail after a _MATCHED
        # cleared its slot.
        rows, slots = np.nonzero(cand & (dead[:, eids] | victims[:, indices]))
        drop_candidates(rows, slots, owner[slots])

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
        ctx.begin_step(running.sum(axis=1))
        running &= (mate == -1) & (deg > 0)
        lrows, lcols = lane_nonzero(running)  # row-major: per-seed order
        if lrows.size == 0:
            break  # every seed returned without yielding: no rounds
        coins = lanes.integers(0, 2, lrows * size + lcols)
        picked = coins == 1
        prows, pcols = lrows[picked], lcols[picked]
        pflat = prows * size + pcols
        # Each proposer replays choice(cands): one bounded draw, then
        # the idx-th entry of its sorted candidate list.
        idx = lanes.integers(0, deg[prows, pcols], pflat)
        tgt = choose_targets(
            indptr, s_nbr, sidx, pcols, idx,
            lambda seg, pos, nbr: cand[prows[seg], pos],
        )
        ctx.account_groups(
            np.full(prows.size, eight), np.ones(prows.size, np.int64), prows
        )
        keys, srcs = prows * size + tgt, pcols
        if fstates is not None:
            pdrop = lost(prows, pcols, tgt, r)
        ctx.end_step(running.any(axis=1))
        # Resume B: each running acceptor picks one proposal it can see
        # uniformly at random and replies.
        fire_events(r + 1)
        if not running.any():
            break
        ctx.begin_step(running.sum(axis=1))
        if fstates is not None:
            seen = (
                ~pdrop & ~crashed[prows, pcols]
                & (link[prows, g.edge_ids_array(pcols, tgt)] > r + 1)
            )
            keys, srcs = keys[seen], srcs[seen]
        ignores = ~running.reshape(-1)  # returned and crashed nodes
        ignores[pflat] = True  # and proposers ignore proposals
        acc, chosen = replay_acceptor_choices(lanes, keys, srcs, ignores)
        arows, acols = np.divmod(acc, size)
        mate[arows, acols] = chosen
        ctx.account_groups(
            np.full(acc.size, eight), np.ones(acc.size, np.int64), arows
        )
        won = np.ones(acc.size, dtype=bool)
        if fstates is not None:
            won = ~lost(arows, acols, chosen, r + 1)
        ctx.end_step(running.any(axis=1))
        # Resume C: proposers learn acceptance; every freshly matched
        # node broadcasts _MATCHED to its whole view.
        fire_events(r + 2)
        if not running.any():
            break
        ctx.begin_step(running.sum(axis=1))
        won &= running[arows, chosen]
        mate[arows[won], chosen[won]] = acols[won]
        brows, bcols = lane_nonzero(running & (mate != -1))
        bdeg = (indptr[bcols + 1] - indptr[bcols]).astype(np.int64)
        seg = np.repeat(np.arange(bcols.size), bdeg)
        slot = np.arange(seg.size) + np.repeat(
            indptr[bcols] - np.cumsum(bdeg) + bdeg, bdeg
        )
        row = brows[seg]
        if fstates is not None:
            seen = (
                (link[row, eids[slot]] > r + 2) & ~crashed[row, indices[slot]]
            )
            seg, row, slot = seg[seen], row[seen], slot[seen]
        ctx.account_groups(
            np.full(bcols.size, eight),
            np.bincount(seg, minlength=bcols.size),
            brows,
        )
        if fstates is not None:
            kept = ~lost(row, bcols[seg], indices[slot], r + 2)
            row, slot = row[kept], slot[kept]
        # The reverse slots are still set: a node broadcasts once, and
        # a link or crash that would have cleared one also stops the
        # delivery.
        drop_candidates(row, pair[eids[slot]] - slot, indices[slot])
        ctx.end_step(running.any(axis=1))
    if fstates is None:
        return [row.tolist() for row in mate]
    outputs = mate.astype(object)
    outputs[crashed] = None
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
