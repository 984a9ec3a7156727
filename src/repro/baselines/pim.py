"""PIM — Parallel Iterative Matching (Anderson et al. [3]).

The switch scheduler of DEC's AN2, directly descended from
Israeli–Itai's algorithm (as the paper's introduction recounts).  Per
cell slot it runs a few request/grant/accept iterations:

1. **request** — every unmatched input requests all outputs for which
   it has queued cells;
2. **grant** — every unmatched output grants one request uniformly at
   random;
3. **accept** — every input that received grants accepts one uniformly
   at random; the pair is matched for this slot.

With ⌈log₂ N⌉ + O(1) iterations the expected leftover is negligible —
PIM's classic analysis shows each iteration resolves ~3/4 of the
remaining contention.

This is a *centralized* implementation: PIM is switch hardware, not a
message-passing network algorithm, and the switch simulator calls it
once per cell slot.  (The distributed story for the same idea is
:mod:`repro.baselines.israeli_itai`.)

The one schedule is :func:`pim_schedule_matrix`, fully vectorized over
the boolean request matrix; the switch's ``PimScheduler`` and the
:func:`pim_matching` graph adapter both call it.  Grants pick the
``⌊u·c⌋``-th requester per output (one uniform draw per output),
accepts likewise per input, so an iteration costs a handful of array
ops instead of Python loops over ports.  The grant and accept phases
each consume exactly one ``rng.random(ports)`` draw per iteration that
still has live requests — a fixed, data-independent pattern, which is
what lets the scalar loop and the switch engines replay identical
schedules from the same seed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graphs.graph import Graph
from repro.matching.matching import Matching


def pim_iterations_default(ports: int) -> int:
    """The customary iteration count: ⌈log₂ N⌉ + 2."""
    return max(1, math.ceil(math.log2(max(2, ports)))) + 2


def _rank_pick(candidates: np.ndarray, u: np.ndarray, axis: int) -> np.ndarray:
    """One uniform pick per row/column of a boolean candidate matrix.

    Along ``axis``, selects the ``⌊u·count⌋``-th ``True`` entry (a
    uniform choice among candidates given ``u ~ U[0,1)``); rows/columns
    without candidates select nothing.  Returns a boolean matrix with
    at most one ``True`` per line.
    """
    counts = candidates.sum(axis=axis)
    pick = np.minimum((u * counts).astype(np.int64), np.maximum(counts - 1, 0))
    rank = np.cumsum(candidates, axis=axis) - 1
    pick_line = pick[None, :] if axis == 0 else pick[:, None]
    return candidates & (rank == pick_line)


def pim_schedule_matrix(
    requests: np.ndarray,
    rng: np.random.Generator,
    iterations: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One PIM cell-slot schedule on a boolean request matrix.

    ``requests[i, j]`` is ``True`` when input ``i`` has cells queued
    for output ``j``.  Returns matched ``(inputs, outputs)`` index
    arrays forming a partial permutation.
    """
    requests = np.asarray(requests, dtype=bool)
    num_inputs, num_outputs = requests.shape
    if iterations is None:
        iterations = pim_iterations_default(max(num_inputs, num_outputs))
    in_free = np.ones(num_inputs, dtype=bool)
    out_free = np.ones(num_outputs, dtype=bool)
    mi: list[np.ndarray] = []
    mj: list[np.ndarray] = []
    for _ in range(iterations):
        live = requests & in_free[:, None] & out_free[None, :]
        if not live.any():
            break
        # grant: each output picks uniformly among its requesters
        grant = _rank_pick(live, rng.random(num_outputs), axis=0)
        # accept: each input picks uniformly among its grants
        accept = _rank_pick(grant, rng.random(num_inputs), axis=1)
        ai, aj = np.nonzero(accept)
        in_free[ai] = False
        out_free[aj] = False
        mi.append(ai)
        mj.append(aj)
    if not mi:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(mi), np.concatenate(mj)


def pim_matching(
    g: Graph,
    xs: list[int],
    ys: list[int],
    seed: int = 0,
    iterations: int | None = None,
) -> Matching:
    """Run PIM on a bipartite :class:`Graph` (E5/E8 benchmark adapter)."""
    y_index = {y: idx for idx, y in enumerate(ys)}
    requests = np.zeros((len(xs), len(ys)), dtype=bool)
    for i, x in enumerate(xs):
        requests[i, [y_index[u] for u in g.neighbors(x) if u in y_index]] = True
    mi, mj = pim_schedule_matrix(
        requests, np.random.default_rng(seed), iterations
    )
    m = Matching(g)
    for i, j in zip(mi.tolist(), mj.tolist()):
        m.add(xs[i], ys[j])
    return m
