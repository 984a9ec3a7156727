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
form produces byte-identical ``RunResult``s from the same seed.
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
    segment_bounds,
    sorted_csr,
)
from repro.distributed.faults import NEVER, FaultPlan, FaultState
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


class _BatchedLaneOps:
    """One batch lane's view of a BatchedArrayContext.

    Faulted batches run the fault core once per lane (the per-lane
    crash/link schedules differ, so the lanes share no phase structure
    to vectorize across); this adapter routes the core's accounting to
    lane ``s``'s counters and its draws to the lane-offset RNG streams,
    so each lane's run stays byte-identical to its generator run.
    """

    __slots__ = ("ctx", "lanes", "s", "_base", "_live", "_yielded")

    def __init__(self, ctx: BatchedArrayContext, s: int) -> None:
        self.ctx = ctx
        self.lanes = ctx.lanes
        self.s = s
        self._base = s * ctx.n
        self._live = np.zeros(ctx.num_seeds, dtype=np.int64)
        self._yielded = np.zeros(ctx.num_seeds, dtype=bool)
        self._yielded[s] = True

    def rounds(self) -> int:
        return int(self.ctx.rounds[self.s])

    def begin(self, live: int) -> None:
        self._live[self.s] = live
        self.ctx.begin_step(self._live)

    def end(self) -> None:
        self.ctx.end_step(self._yielded)

    def account(self, bits: np.ndarray, counts: np.ndarray) -> None:
        self.ctx.account_groups(
            bits, counts, np.full(len(bits), self.s, dtype=np.int64)
        )

    def faults(self, **kw: int) -> None:
        self.ctx.add_fault_counts(self.s, **kw)

    def draw(
        self, low: int, high: np.ndarray | int, ids: np.ndarray
    ) -> np.ndarray:
        return self.lanes.integers(low, high, self._base + ids)


def _israeli_itai_faulty(
    g: Graph,
    snbr: np.ndarray,
    seid: np.ndarray,
    fs: FaultState,
    ops: _BatchedLaneOps,
    outputs: list,
) -> None:
    """Vectorized Israeli–Itai under an active fault plan (one lane).

    The array-side fault seam (tentpole of the robustness tier): a
    faithful mirror of one faulted :class:`Network` run of
    :func:`israeli_itai_program`, byte-identical in outputs, rounds,
    message accounting, and fault counters.  The structural deltas from
    the fault-free array core:

    * global truth is replaced by *knowledge*: a per-half-edge ``heard``
      array (did this slot's owner receive its neighbor's ``_MATCHED``
      announcement?) stands in for the shared ``mate == -1`` residual
      mask — under loss an announcement can vanish, and the two
      endpoints' views legitimately diverge;
    * scheduled crash/link events apply at the top of every resume with
      the engine's exact timing (a link failure always counts when its
      round is reached; a crash of an already-returned node is a silent
      no-op), and candidate/view sets are recomputed per round from the
      surviving slots;
    * per-delivery loss is the same stateless hash the generator seam
      evaluates, batched with :meth:`FaultState.drop_mask` — attempted
      sends always count toward the message totals, and drops (dead
      letters included) land in ``messages_dropped``.

    ``snbr``/``seid`` are the CSR's neighbor and edge ids with each
    vertex's slots in ascending neighbor order.  Writes per-node mates
    into ``outputs`` (``None`` for crashed nodes) and reports
    everything else through ``ops``.
    """
    n = g.n
    indptr, _, _ = g.adjacency_arrays()
    owner = np.repeat(np.arange(n, dtype=np.int64), g.degrees())
    # twin[t] = the reverse slot of t's edge (owner/neighbor swapped):
    # a heard announcement over edge e marks e's other half-edge.
    twin = np.empty(owner.size, dtype=np.int64)
    t_order = np.argsort(seid, kind="stable")
    twin[t_order[0::2]] = t_order[1::2]
    twin[t_order[1::2]] = t_order[0::2]
    slot_link = fs.link_fail_round[seid]   # round t's edge dies
    crash_round = fs.crash_round
    # Effective crash rounds: a crash landing on an already-returned
    # node is a silent no-op in the reference engine — not counted AND
    # not pruned from the survivors' views — so its round is
    # neutralized to NEVER when the event fires.
    eff_crash = crash_round.copy()
    has_loss = fs.plan.loss > 0
    heard = np.zeros(owner.size, dtype=bool)
    mate = np.full(n, -1, dtype=np.int64)
    running = np.ones(n, dtype=bool)  # neither returned nor crashed
    link_counted = np.zeros(fs.m, dtype=bool)
    crash_handled = np.zeros(n, dtype=bool)
    link_fail_round = fs.link_fail_round
    eight = np.int64(8)

    def apply_events(r: int) -> None:
        # Mirror of Network._apply_fault_events: every link event due
        # by round r counts once; a crash counts (and halts the node)
        # only if its program had not already returned.
        due_l = (link_fail_round <= r) & ~link_counted
        nl = int(due_l.sum())
        if nl:
            link_counted[due_l] = True
        nc = 0
        due_c = (crash_round <= r) & ~crash_handled
        if due_c.any():
            crash_handled[due_c] = True
            victims = due_c & running
            nc = int(victims.sum())
            running[victims] = False
            eff_crash[due_c & ~victims] = NEVER
        if nl or nc:
            ops.faults(crashed=nc, links=nl)

    while True:
        # -- Resume A (round r): returns, coins, proposals ------------
        r = ops.rounds()
        apply_events(r)
        live = np.flatnonzero(running)
        if live.size == 0:
            break
        ops.begin(live.size)
        view = (slot_link > r) & (eff_crash[snbr] > r)
        cand = view & ~heard
        cand_deg = np.bincount(owner[cand], minlength=n)
        ret = live[(mate[live] != -1) | (cand_deg[live] == 0)]
        for v in ret.tolist():
            outputs[v] = int(mate[v])
        running[ret] = False
        live = np.flatnonzero(running)
        if live.size == 0:
            break  # everyone returned without yielding: no round counted
        coins = ops.draw(0, 2, live)
        proposer_ids = live[coins == 1]
        idx = ops.draw(0, cand_deg[proposer_ids], proposer_ids)
        # choice(cand) replay: the idx-th candidate slot of the
        # proposer's (neighbor-ascending) segment, via the global
        # candidate-rank prefix sum.
        cand_rank = np.cumsum(cand)
        base = indptr[proposer_ids]
        pre = cand_rank[base] - cand[base]
        tslot = np.searchsorted(cand_rank, pre + idx + 1, side="left")
        target = snbr[tslot]
        ops.account(
            np.full(proposer_ids.size, eight),
            np.ones(proposer_ids.size, np.int64),
        )
        if has_loss:
            pdrop = fs.drop_mask(proposer_ids, target, r)
            nd = int(pdrop.sum())
            if nd:
                ops.faults(dropped=nd)
        else:
            pdrop = np.zeros(proposer_ids.size, dtype=bool)
        ops.end()
        # -- Resume B (round r+1): acceptors reply --------------------
        rb = ops.rounds()
        apply_events(rb)
        live = np.flatnonzero(running)
        if live.size == 0:
            break
        ops.begin(live.size)
        proposer = np.zeros(n, dtype=bool)
        proposer[proposer_ids] = True
        # A delivered proposal is visible to its target iff it survived
        # loss at the send round, its link and proposer outlived the
        # read round (the acceptor's `src in cur` view filter), and the
        # target is a still-running acceptor (dead letters to returned
        # or crashed nodes were delivered but never read).
        ok = (
            ~pdrop
            & (link_fail_round[seid[tslot]] > rb)
            & (eff_crash[proposer_ids] > rb)
            & running[target]
            & ~proposer[target]
        )
        tgt_v, src_v = target[ok], proposer_ids[ok]
        order = np.argsort(tgt_v, kind="stable")  # src ascending per tgt
        s_tgt, s_src = tgt_v[order], src_v[order]
        bounds = segment_bounds(s_tgt)
        heads = bounds[:-1]
        acceptors = s_tgt[heads]
        aidx = ops.draw(0, np.diff(bounds), acceptors)
        chosen = s_src[heads + aidx]
        mate[acceptors] = chosen
        ops.account(
            np.full(acceptors.size, eight),
            np.ones(acceptors.size, np.int64),
        )
        if has_loss:
            adrop = fs.drop_mask(acceptors, chosen, rb)
            nd = int(adrop.sum())
            if nd:
                ops.faults(dropped=nd)
        else:
            adrop = np.zeros(acceptors.size, dtype=bool)
        ops.end()
        # -- Resume C (round r+2): acceptance + announcements ---------
        rc = ops.rounds()
        apply_events(rc)
        live = np.flatnonzero(running)
        if live.size == 0:
            break
        ops.begin(live.size)
        # A proposer is matched iff its target's ACCEPT survived loss
        # and the proposer itself outlived round r+2 — deliberately no
        # view filter (an acceptor crashing right after replying leaves
        # a widowed survivor; the degradation oracle reports it).
        winners = chosen[~adrop]
        winners_acc = acceptors[~adrop]
        wok = running[winners]
        mate[winners[wok]] = winners_acc[wok]
        bc = np.flatnonzero(running & (mate != -1))
        view_c = (slot_link > rc) & (eff_crash[snbr] > rc)
        bmask = np.zeros(n, dtype=bool)
        bmask[bc] = True
        bslots = np.flatnonzero(bmask[owner] & view_c)
        ops.account(
            np.full(bc.size, eight),
            np.bincount(owner[bslots], minlength=n)[bc],
        )
        if has_loss:
            mdrop = fs.drop_mask(owner[bslots], snbr[bslots], rc)
            nd = int(mdrop.sum())
            if nd:
                ops.faults(dropped=nd)
            heard[twin[bslots[~mdrop]]] = True
        else:
            heard[twin[bslots]] = True
        ops.end()


def israeli_itai_array_batched(ctx: BatchedArrayContext) -> list[list[int]]:
    """Array program of :func:`israeli_itai_program`, one lane per seed.

    SoA state with a leading seed axis: an ``int64`` ``mate`` column and
    an ``alive`` mask of not-yet-returned nodes.  A live node's *active*
    set in the generator form is its never-matched neighbors (every
    matched node announces ``_MATCHED`` in its matching phase, and a
    node that quits unmatched provably has no unmatched neighbors
    left), so the residual graph is implied by ``mate == -1`` — and a
    returned node's mate never changes again, so the final ``mate``
    rows are the outputs.

    Every draw of a resume is one bulk ``ctx.lanes`` call: live nodes
    flip their coins, then proposers and accepting acceptors each
    consume one bounded draw (``choice(seq)`` consumes exactly
    ``integers(0, len(seq))``); nodes that returned draw nothing.  The
    picks are array selections too — each proposer's from its sorted
    unmatched-neighbor list by one rank-select over the sorted CSR
    (:func:`~repro.distributed.backends.choose_targets`), each
    acceptor's by
    :func:`~repro.distributed.backends.replay_acceptor_choices`.  Seeds
    terminate independently (masked rows).  Under an active fault plan
    each lane runs the fault core instead.
    """
    g = ctx.graph
    num_seeds, size = ctx.num_seeds, ctx.n
    indptr = ctx.indptr
    sidx, s_nbr = sorted_csr(indptr, ctx.indices)
    if ctx.faults is not None:
        # Per-lane fault schedules share no cross-seed phase structure;
        # run the fault core once per lane (see _BatchedLaneOps).
        s_eid = g.adjacency_arrays()[2][sidx]
        outputs: list[list[int | None]] = [
            [None] * size for _ in range(num_seeds)
        ]
        for s, fstate in enumerate(ctx.faults):
            _israeli_itai_faulty(
                g, s_nbr, s_eid, fstate, _BatchedLaneOps(ctx, s), outputs[s]
            )
        return outputs
    mate = np.full((num_seeds, size), -1, dtype=np.int64)
    alive = np.ones((num_seeds, size), dtype=bool)
    degrees = g.degrees()
    lanes = ctx.lanes
    eight = np.int64(8)  # every tag payload is one 8-bit character
    while alive.any():
        # Resume A: matched nodes and nodes with no unmatched neighbor
        # return; the rest flip proposer coins and send invitations.
        ctx.begin_step(alive.sum(axis=1))
        unmatched = mate == -1
        residual_deg = ctx.masked_degrees(unmatched)
        alive &= unmatched & (residual_deg > 0)
        lrows, lcols = lane_nonzero(alive)  # row-major: per-seed node order
        if lrows.size == 0:
            break  # every seed returned without yielding: no rounds
        live = alive.sum(axis=1)
        in_phase = live > 0
        coins = lanes.integers(0, 2, lrows * size + lcols)
        picked = coins == 1
        prows, pcols = lrows[picked], lcols[picked]
        # Each proposer replays choice(cands): one bounded draw, then
        # the idx-th entry of its sorted unmatched-neighbor list.
        idx = lanes.integers(
            0, residual_deg[prows, pcols], prows * size + pcols
        )
        tgt = choose_targets(
            indptr, s_nbr, sidx, pcols, idx,
            lambda seg, pos, nbr: unmatched[prows[seg], nbr],
        )
        ctx.account_groups(
            np.full(prows.size, eight), np.ones(prows.size, np.int64), prows
        )
        ctx.end_step(in_phase)
        # Resume B: each acceptor (non-proposer) picks one incoming
        # proposal uniformly at random and replies.
        ctx.begin_step(live)
        proposer = np.zeros(num_seeds * size, dtype=bool)
        proposer[prows * size + pcols] = True
        acc_lanes, chosen = replay_acceptor_choices(
            lanes, prows * size + tgt, pcols, proposer
        )
        accepted_by = np.full(num_seeds * size, -1, dtype=np.int64)
        accepted_by[acc_lanes] = chosen
        arows, acols = np.divmod(acc_lanes, size)
        ctx.account_groups(
            np.full(acc_lanes.size, eight), np.ones(acc_lanes.size, np.int64),
            arows,
        )
        ctx.end_step(in_phase)
        # Resume C: proposers learn acceptance; every freshly matched
        # node broadcasts _MATCHED to its *full* neighborhood.
        ctx.begin_step(live)
        succeeded = accepted_by[prows * size + tgt] == pcols
        mate[prows[succeeded], pcols[succeeded]] = tgt[succeeded]
        mate[arows, acols] = chosen
        m_rows = np.concatenate((prows[succeeded], arows))
        m_cols = np.concatenate((pcols[succeeded], acols))
        ctx.account_groups(
            np.full(m_rows.size, eight), degrees[m_cols], m_rows
        )
        ctx.end_step(in_phase)
    return [row.tolist() for row in mate]


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
