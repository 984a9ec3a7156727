"""Deterministic symmetry breaking on rings and rooted trees.

The paper closes with the long-standing open question: *"can maximal
matching and independent set be computed deterministically in O(log n)
time on general graphs?"*  On rings and rooted trees the answer has
long been yes — in O(log* n) — via Cole–Vishkin color reduction.  This
module implements that special case as a node program, both for its
own sake (a deterministic counterpoint to the randomized algorithms in
this repository) and as the standard technique the open question is
measured against.

Pipeline:

1. every node starts with its unique ID as a color (O(log n) bits);
2. **Cole–Vishkin step**: a node looks at its predecessor's color
   (ring) / parent's color (tree), finds the lowest bit position i
   where the two colors differ, and re-colors itself ``2i + bit_i`` —
   one step shrinks c-bit colors to ~(log₂ c + 1) bits, so O(log* n)
   steps reach a constant palette (≤ 6 colors);
3. **palette reduction 6 → 3**: for each color c ∈ {3, 4, 5} in turn,
   nodes of color c recolor to the smallest color absent from their
   neighborhood (a ring/tree neighborhood has ≤ 2 relevant neighbors
   in the oriented sense, so 3 colors always suffice);
4. **maximal matching from the coloring**: for each ordered color pair
   processed sequentially, unmatched nodes of the smaller color
   propose along their oriented edge; the (unique-color) endpoint
   accepts if still free.  Constantly many color rounds ⟹ the whole
   pipeline is deterministic O(log* n + C²) rounds.

Two executable forms: :func:`ring_color_program` /
:func:`ring_matching_program` are the generator specs,
:func:`ring_color_array` / :func:`ring_matching_array` the array
programs, each run as a one-lane batch; ``ring_coloring(...,
backend=...)`` and ``ring_maximal_matching(..., backend=...)`` pick,
and both produce byte-identical ``RunResult``s.  Being deterministic,
these are the simplest array ports in the tree — no RNG replay at all
(see the porting guide in ARCHITECTURE.md).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.distributed.backends import (
    BatchedArrayContext,
    int_payload_bits,
    run_program_batched,
)
from repro.distributed.network import Network, RunResult
from repro.distributed.node import Node
from repro.graphs.graph import Graph
from repro.matching.matching import Matching
from repro.baselines.israeli_itai import matching_from_mates

_PALETTE = 6


def _cv_step(my_color: int, other_color: int) -> int:
    """One Cole–Vishkin re-coloring against the oriented neighbor."""
    if my_color == other_color:
        raise ValueError("proper coloring violated")
    diff = my_color ^ other_color
    i = (diff & -diff).bit_length() - 1
    return 2 * i + ((my_color >> i) & 1)


def cv_steps_needed(n: int) -> int:
    """Enough CV iterations to reach the ≤6-color regime from n ids.

    One step maps colors of b bits to values ≤ 2(b−1)+1, i.e. to
    ``(2b−1).bit_length()`` bits; iterating from log₂ n reaches 3 bits
    (colors < 8, whose CV image lies in {0..5}) in O(log* n) steps.
    """
    steps = 0
    bits = max(2, n).bit_length()
    while bits > 3:
        bits = (2 * (bits - 1) + 1).bit_length()
        steps += 1
    return steps + 2  # land in {0..5} and stabilize


def ring_color_program(
    node: Node, n: int, steps: int
) -> Generator[None, None, int]:
    """3-color an oriented ring (successor = larger-id neighbor wrap).

    The ring must be the cycle 0-1-…-(n-1)-0; the orientation is
    "successor = (id+1) mod n", known locally from ids.
    """
    succ = (node.id + 1) % n
    pred = (node.id - 1) % n
    color = node.id
    # Phase 1: CV reduction against the predecessor's color.
    for _ in range(steps):
        node.send(succ, color)
        yield
        pred_color = next(p for s, p in node.inbox if s == pred)
        color = _cv_step(color, pred_color)
    # Phase 2: shrink palette {0..5} -> {0,1,2}; colors 3,4,5 in turn.
    for c in (3, 4, 5):
        node.send(succ, color)
        node.send(pred, color)
        yield
        nbr_colors = {p for _s, p in node.inbox}
        if color == c:
            color = min({0, 1, 2} - nbr_colors)
    node.finish(color)
    return color


def _lsb_index(x: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each positive ``int64``."""
    lsb = x & -x
    idx = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = lsb >= (np.int64(1) << np.int64(shift))
        idx[big] += shift
        lsb[big] >>= shift
    return idx


def _ring_color_phases(
    ctx: BatchedArrayContext, n: int, steps: int
) -> np.ndarray:
    """The CV + palette resumes shared by both ring array programs.

    Runs ``steps + 3`` yielding resumes (``steps`` CV recolorings, then
    the palette passes c = 3, 4, 5) and returns the final 3-coloring.
    The caller owns whatever resume *follows* — a bare returning resume
    for :func:`ring_color_array`, the first proposal resume for
    :func:`ring_matching_array` — matching the generator programs,
    where the last palette read shares its resume with what comes next.

    The pipeline draws no randomness, so every seed would run the same
    resumes: both ring programs take exactly one lane.
    """
    if ctx.num_seeds != 1:
        raise ValueError("Cole-Vishkin is deterministic: run it as one lane")
    size = ctx.n
    ids = np.arange(size, dtype=np.int64)
    succ = np.roll(ids, -1)  # succ[v] = (v + 1) % n
    pred = np.roll(ids, 1)
    color = ids.copy()
    ones = np.ones(2 * size, dtype=np.int64)
    lane0 = np.zeros(2 * size, dtype=np.int64)  # every group is lane 0's
    live = np.full(1, size)
    yielded = np.ones(1, dtype=bool)
    # Phase 1: CV reduction against the predecessor's color.  Iteration
    # k's send is accounted in resume k; its read + recoloring happen
    # at the top of resume k+1, i.e. before the next send — exactly the
    # state the next account sees.
    for _ in range(steps):
        ctx.begin_step(live)
        ctx.account_groups(int_payload_bits(color), ones[:size], lane0[:size])
        ctx.end_step(yielded)
        pred_color = color[pred]
        if (color == pred_color).any():
            raise ValueError("proper coloring violated")
        diff = color ^ pred_color
        i = _lsb_index(diff)
        color = 2 * i + ((color >> i) & 1)
    # Phase 2: shrink palette {0..5} -> {0,1,2}; colors 3,4,5 in turn.
    # Each pass sends the current color both ways (two singleton groups
    # per node, sized once each, as the generator queues them).
    for c in (3, 4, 5):
        ctx.begin_step(live)
        ctx.account_groups(np.repeat(int_payload_bits(color), 2), ones, lane0)
        ctx.end_step(yielded)
        nbr1, nbr2 = color[succ], color[pred]
        smallest_free = np.where(
            (nbr1 != 0) & (nbr2 != 0),
            0,
            np.where((nbr1 != 1) & (nbr2 != 1), 1, 2),
        )
        color = np.where(color == c, smallest_free, color)
    return color


def ring_color_array(
    ctx: BatchedArrayContext, n: int, steps: int
) -> list[list[int]]:
    """Array program of :func:`ring_color_program` (one lane).

    Entirely deterministic — no RNG replay at all — so the whole
    pipeline is a handful of ``np.roll`` gathers and bit tricks per
    resume.  The final resume performs the last palette read and
    returns without yielding, costing zero rounds, as the generator
    program does.
    """
    color = _ring_color_phases(ctx, n, steps)
    ctx.begin_step(np.full(1, ctx.n))  # final resume: every program returns
    return [color.tolist()]


def ring_coloring(
    g: Graph, max_rounds: int = 10_000, backend: str = "generator"
) -> tuple[dict[int, int], RunResult]:
    """Deterministic 3-coloring of the canonical ring 0-1-…-(n-1)-0.

    ``backend`` selects the execution engine (``"generator"`` or
    ``"array"``); both yield byte-identical results.
    """
    n = g.n
    if n < 3:
        raise ValueError("ring needs n >= 3")
    for v in range(n):
        if sorted(g.neighbors(v)) != sorted({(v - 1) % n, (v + 1) % n}):
            raise ValueError("graph is not the canonical ring")
    res = run_program_batched(
        g,
        backend=backend,
        generator_program=ring_color_program,
        batched_array_program=ring_color_array,
        params={"n": n, "steps": cv_steps_needed(n)},
        seeds=[0],
        max_rounds=max_rounds,
    )[0]
    return dict(res.outputs), res


def ring_matching_program(
    node: Node, n: int, steps: int
) -> Generator[None, None, int]:
    """Deterministic maximal matching on the canonical ring.

    After 3-coloring, process color classes c = 0, 1, 2 sequentially:
    a free node of color c proposes to its successor; a free successor
    accepts (it can receive at most one proposal — only its
    predecessor proposes toward it, and adjacent nodes never share a
    color).  Maximality: a free node u with free successor v would
    have proposed in u's color pass and v, being free throughout,
    would have accepted — contradiction, so no two adjacent free nodes
    survive the three passes.
    """
    succ = (node.id + 1) % n
    pred = (node.id - 1) % n
    color = yield from ring_color_program(node, n, steps)
    mate = -1
    for c in (0, 1, 2):
        if mate == -1 and color == c:
            node.send(succ, "p")
        yield
        if mate == -1 and any(s == pred and p == "p" for s, p in node.inbox):
            mate = pred
            node.send(pred, "a")
        yield
        if mate == -1 and color == c:
            if any(s == succ and p == "a" for s, p in node.inbox):
                mate = succ
        yield  # keep the pass at a fixed 3 rounds (lockstep clarity)
    node.finish(mate)
    return mate


def ring_matching_array(
    ctx: BatchedArrayContext, n: int, steps: int
) -> list[list[int]]:
    """Array program of :func:`ring_matching_program` (one lane).

    After the shared coloring resumes, each color pass c ∈ {0, 1, 2} is
    three vectorized resumes: free c-colored nodes propose to their
    successor (8-bit tag), free successors accept toward their
    predecessor, and proposers read the acknowledgement.  Adjacent
    nodes never share a color, so a node cannot both propose and
    accept in one pass — the masks below rely on that invariant.
    """
    size = ctx.n
    ids = np.arange(size, dtype=np.int64)
    succ = np.roll(ids, -1)
    pred = np.roll(ids, 1)
    color = _ring_color_phases(ctx, n, steps)
    mate = np.full(size, -1, dtype=np.int64)
    eight = np.int64(8)
    live = np.full(1, size)
    yielded = np.ones(1, dtype=bool)
    for c in (0, 1, 2):
        # Resume A (shares the first pass's resume with the last palette
        # read): free nodes of color c propose to their successor.
        ctx.begin_step(live)
        prop = (mate == -1) & (color == c)
        k = int(prop.sum())
        ctx.account_groups(
            np.full(k, eight), np.ones(k, np.int64), np.zeros(k, np.int64)
        )
        ctx.end_step(yielded)
        # Resume B: a free node whose predecessor proposed accepts it.
        ctx.begin_step(live)
        acc = (mate == -1) & prop[pred]
        mate = np.where(acc, pred, mate)
        k = int(acc.sum())
        ctx.account_groups(
            np.full(k, eight), np.ones(k, np.int64), np.zeros(k, np.int64)
        )
        ctx.end_step(yielded)
        # Resume C: proposers learn acceptance; no messages are sent
        # (the pass stays a fixed 3 rounds for lockstep clarity).
        ctx.begin_step(live)
        mate = np.where(prop & acc[succ], succ, mate)
        ctx.end_step(yielded)
    ctx.begin_step(live)  # final resume: every program returns
    return [mate.tolist()]


def ring_maximal_matching(
    g: Graph, max_rounds: int = 10_000, backend: str = "generator"
) -> tuple[Matching, RunResult]:
    """Deterministic maximal matching on the canonical ring, O(log* n).

    ``backend`` selects the execution engine (``"generator"`` or
    ``"array"``); both yield byte-identical results.
    """
    n = g.n
    if n < 3:
        raise ValueError("ring needs n >= 3")
    res = run_program_batched(
        g,
        backend=backend,
        generator_program=ring_matching_program,
        batched_array_program=ring_matching_array,
        params={"n": n, "steps": cv_steps_needed(n)},
        seeds=[0],
        max_rounds=max_rounds,
    )[0]
    return matching_from_mates(g, res.outputs), res
