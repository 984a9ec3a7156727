"""Luby's randomized maximal independent set (MIS).

References [20] (Luby) and [1] (Alon–Babai–Itai) of the paper.  Section
3.2 describes exactly this variant: "in each iteration each node ...
chooses a random number, and it is added to the MIS iff its number is
larger than all numbers chosen by its neighbors"; O(log N) iterations
suffice w.h.p.

Used in two places:

* step 5 of Algorithm 1 — MIS on the conflict graph C_M(ℓ);
* the A1 ablation bench, standalone.

A phase costs 3 rounds (numbers / membership announcements /
withdrawals).  Numbers are drawn from [1, N⁴] as in Section 3.2, so a
message is O(log N) bits.  Nodes terminate locally once decided, and
announce their decision so undecided neighbors can prune.

Two executable forms: :func:`luby_mis_program` is the generator spec
and :func:`luby_mis_array_batched` the array program, written over a
lane axis of seeds.  ``luby_mis(..., backend="array")`` runs the array
program as a one-lane batch and :func:`luby_mis_batched` over a whole
seed list; every form produces byte-identical ``RunResult``s from the
same seed.  The array program works on a shrinking list of live edges,
so a phase's edge work follows the residual graph, as the O(log N)
bound assumes, not the whole CSR; its per-vertex passes (live-degree
counts, the alive and winner masks) stay O(lanes·n) a phase.
"""

from __future__ import annotations

from typing import Generator, Sequence

import numpy as np

from repro.distributed.backends import (
    BatchedArrayContext,
    int_payload_bits,
    lane_nonzero,
    run_program_batched,
)
from repro.distributed.faults import FaultPlan
from repro.distributed.network import Network, RunResult
from repro.distributed.node import Node
from repro.graphs.graph import Graph

_IN_MIS = "i"
_OUT = "o"


def _number_bound(n: int) -> int:
    """Draw bound: N⁴ (Section 3.2), capped so draws stay in int64.

    The cap binds only for N > 55108, where N⁴ exceeds 2⁶³; the paper
    needs the bound merely large enough that ties are unlikely (a tie
    costs one extra phase, never correctness), and at 2⁶³−2 the
    collision probability of even 10⁶ simultaneous draws is ~10⁻⁷.
    Below the cap the draws — and all existing goldens — are unchanged.
    """
    return min(max(2, n) ** 4, int(np.iinfo(np.int64).max) - 1)


def luby_mis_program(node: Node, n: int) -> Generator[None, None, bool]:
    """Node program; returns True iff the node joined the MIS.

    Each phase is exactly 3 rounds for every surviving node, so phases
    of different nodes never drift: numbers / membership announcements /
    withdrawal announcements, each read in its own round's inbox.
    """
    removed: set[int] = set()
    hi = _number_bound(n)
    first = True
    while True:
        if not first:
            # Withdrawals sent at the end of the previous phase arrive now.
            for src, p in node.inbox:
                if p == _OUT:
                    removed.add(src)
        first = False
        # The residual view is recomputed every phase from the current
        # ``node.neighbors`` (pruned by the engine on crashes/link
        # failures under a fault plan) minus announced withdrawers —
        # fault-free this equals the classic maintained active set.
        active = [u for u in node.neighbors if u not in removed]
        # Isolated-in-the-residual-graph nodes join unconditionally.
        if not active:
            node.finish(True)
            return True
        number = int(node.rng.integers(1, hi + 1))
        node.send_many(active, number)
        yield  # round 1: numbers in flight
        aset = set(active)
        nbr_numbers = [
            p for src, p in node.inbox if src in aset and isinstance(p, int)
        ]
        winner = bool(nbr_numbers) and number > max(nbr_numbers)
        if winner:
            node.send_many(active, _IN_MIS)
        yield  # round 2: membership announcements in flight
        if winner:
            node.finish(True)
            return True
        # Neighbors of fresh MIS members leave as non-members.
        if any(p == _IN_MIS for _, p in node.inbox):
            node.send_many(active, _OUT)
            node.finish(False)
            return False
        yield  # round 3: withdrawals in flight


def luby_mis_array_batched(ctx: BatchedArrayContext, n: int) -> list[list[bool]]:
    """Array program of :func:`luby_mis_program`, one lane per seed.

    State is struct-of-arrays over ``(num_seeds, n)`` — an ``alive``
    mask (undecided nodes), a ``joined`` mask and a number column — plus
    the residual graph as one compacted list of live edges, flat over
    lanes: endpoint keys ``seed_index * n + vertex``, ``int32`` while
    they fit.  A live node's *active* set in the generator form is
    exactly its live neighbors, because withdrawers announce ``_OUT``
    and MIS winners eliminate their whole neighborhood in the same
    phase; so an edge stays live while both its ends are alive, and
    each 3-resume phase's edge work runs on the live edges alone (the
    per-vertex masks and counts stay ``(num_seeds, n)``):

    * live degrees are two ``bincount`` calls over the edge ends;
    * every edge compares the numbers at its two ends, and an end whose
      number is not larger loses — the generator's ``number >
      max(neighbor numbers)``, so a tie loses both ends;
    * the winners' live neighbors are beaten, and every edge with a
      dead end is dropped, so the list shrinks with the residual graph.

    Seeds terminate independently: a finished seed has no alive node
    and no live edge, so it contributes no rounds, groups, or draws
    while stragglers run.  The random numbers come from ``ctx.lanes``,
    whose per-(seed, node) streams replicate the generator program's
    draws bit for bit, one bulk call per resume.
    """
    num_seeds, size = ctx.num_seeds, ctx.n
    shape = (num_seeds, size)
    total = num_seeds * size
    key = np.int32 if total <= np.iinfo(np.int32).max else np.int64
    u, v = ctx.graph.endpoints_array()
    base = np.arange(num_seeds, dtype=key)[:, None] * key(size)
    ends_a = (base + u.astype(key)).reshape(-1)
    ends_b = (base + v.astype(key)).reshape(-1)
    alive = np.ones(shape, dtype=bool)
    joined = np.zeros(shape, dtype=bool)
    number = np.zeros(total, dtype=np.int64)  # read at live edge ends only
    hi = _number_bound(n)
    lanes = ctx.lanes
    eight = np.int64(8)
    while alive.any():
        # Resume A: isolated-in-the-residual nodes join and return; the
        # rest draw numbers and send them to their live neighbors.
        ctx.begin_step(alive.sum(axis=1))
        live_deg = np.bincount(ends_a, minlength=total)
        live_deg += np.bincount(ends_b, minlength=total)
        live_deg = live_deg.reshape(shape)
        senders = alive & (live_deg > 0)
        joined |= alive & ~senders
        in_phase = senders.any(axis=1)  # seeds with a live, non-isolated node
        srows, scols = lane_nonzero(senders)  # row-major: per-seed node order
        sflat = srows * size + scols
        numbers = lanes.integers(1, hi + 1, sflat)
        ctx.account_groups(
            int_payload_bits(numbers), live_deg[srows, scols], srows
        )
        ctx.end_step(in_phase)
        # Resume B: a node wins iff its number beats every live
        # neighbor's; winners announce membership (8-bit tag).
        live = senders.sum(axis=1)
        ctx.begin_step(live)
        number[sflat] = numbers
        at_a, at_b = number[ends_a], number[ends_b]
        lost = np.zeros(total, dtype=bool)
        lost[ends_a[at_a <= at_b]] = True
        lost[ends_b[at_b <= at_a]] = True
        del at_a, at_b
        winner = senders & ~lost.reshape(shape)
        wrows, wcols = lane_nonzero(winner)
        ctx.account_groups(
            np.full(wrows.size, eight), live_deg[wrows, wcols], wrows
        )
        ctx.end_step(in_phase)
        # Resume C: winners return; their live neighbors — senders that
        # lost to them — withdraw (8-bit ``_OUT`` to the whole
        # phase-start active set) and return.
        ctx.begin_step(live)
        won = winner.reshape(-1)
        beaten = np.zeros(total, dtype=bool)
        beaten[ends_b[won[ends_a]]] = True
        beaten[ends_a[won[ends_b]]] = True
        beaten = beaten.reshape(shape)
        lrows, lcols = lane_nonzero(beaten)
        ctx.account_groups(
            np.full(lrows.size, eight), live_deg[lrows, lcols], lrows
        )
        alive = senders & ~winner & ~beaten
        ctx.end_step(alive.any(axis=1))
        joined |= winner
        flat_alive = alive.reshape(-1)
        keep = flat_alive[ends_a] & flat_alive[ends_b]
        ends_a, ends_b = ends_a[keep], ends_b[keep]
    return [row.tolist() for row in joined]


def luby_mis_batched(
    g: Graph,
    seeds: "Sequence[int]",
    max_rounds: int = 100_000,
    backend: str = "array",
    faults: "FaultPlan | None" = None,
) -> list[tuple[set[int], RunResult]]:
    """Run Luby's MIS once per seed as a single batched execution.

    ``backend="array"`` (default) executes the whole batch as one
    :class:`~repro.distributed.backends.BatchedArrayBackend` run;
    ``"generator"`` falls back to one ``Network`` per seed.  Both
    return per-seed ``(MIS, RunResult)`` pairs identical to
    ``[luby_mis(g, seed=s) for s in seeds]``.  Active ``faults`` plans
    are generator-backend-only for Luby (the array program declares no
    fault seam and is rejected at construction).
    """
    results = run_program_batched(
        g,
        backend=backend,
        generator_program=luby_mis_program,
        batched_array_program=luby_mis_array_batched,
        params={"n": g.n},
        seeds=seeds,
        max_rounds=max_rounds,
        faults=faults,
    )
    return [
        ({v for v, joined in res.outputs.items() if joined}, res)
        for res in results
    ]


def luby_mis(
    g: Graph, seed: int = 0, max_rounds: int = 100_000,
    backend: str = "generator",
    faults: "FaultPlan | None" = None,
) -> tuple[set[int], RunResult]:
    """Run Luby's MIS on ``g``; returns (MIS vertex set, run metrics).

    ``backend`` selects the execution engine (``"generator"`` or
    ``"array"`` — the array program as a one-lane batch); both yield
    byte-identical results from the same seed.  Active ``faults`` plans
    require the generator backend (Luby's array program declares no
    fault seam).
    """
    return luby_mis_batched(
        g, [seed], max_rounds=max_rounds, backend=backend, faults=faults
    )[0]


def verify_mis(g: Graph, mis: set[int]) -> bool:
    """Check independence and maximality of ``mis`` in ``g``.

    Vectorized over the CSR edge arrays: no edge may be internal to
    ``mis`` (independence) and every non-member needs a member
    neighbor (maximality).
    """
    in_mis = np.zeros(g.n, dtype=bool)
    if mis:
        in_mis[np.fromiter(mis, dtype=np.int64, count=len(mis))] = True
    lo, hi = g.endpoints_array()
    if (in_mis[lo] & in_mis[hi]).any():
        return False
    dominated = in_mis.copy()
    dominated[lo[in_mis[hi]]] = True
    dominated[hi[in_mis[lo]]] = True
    return bool(dominated.all())
