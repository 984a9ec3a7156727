"""Weight-class constant-factor MWM — the paper's black box [18].

Lotker, Patt-Shamir & Rosén (PODC 2007) give a randomized (¼−ε)-MWM in
O(log n) time; Algorithm 5 of the reproduced paper consumes *any*
δ-MWM with constant δ as a black box (Theorem 4.5 plugs in [18] with
δ = 1/5).

We implement the weight-class skeleton of that result:

1. round weights into geometric classes — class j holds edges with
   ``w ∈ (wmax/2^{j+1}, wmax/2^j]``; edges below ``wmax/2^C`` are
   dropped (with ``C = 2⌈log₂ n⌉ + 4`` their total contribution is at
   most ``n · wmax/n⁴ ≤ w(M*)/n²`` — negligible);
2. for j = 0, 1, … (heavy to light): run Israeli–Itai maximal matching
   on the residual class-j subgraph and freeze its edges.

Charging each optimal edge to the chosen edge that blocked it (which
lies in an equal-or-heavier class) gives ``w'(M*) ≤ 2·w'(M)`` on the
rounded weights and hence ``w(M) ≥ w(M*)/4`` up to the ε-rounding —
the same δ = ¼−ε guarantee as [18].

**Documented deviation**: [18] interleaves all classes to finish in
O(log n) rounds; we run classes sequentially, costing O(log W · log n)
simulated rounds.  Algorithm 5's *quality* analysis only needs the
constant δ, so the reproduction of Theorem 4.5's approximation
behaviour is unaffected; its round counts carry the extra log W
factor, which bench A4 (``benchmarks/bench_a4_lps_interleaving.py``)
measures against the interleaved variant.

The protocol is fully lockstep: every node executes exactly
``num_classes × phases_per_class × 3`` rounds, idling where it has
nothing to do, so class boundaries need no global synchronization.

Global knowledge: nodes are parameterized by n and wmax (the standard
assumptions; the paper's O(log n)-bit messages already presuppose
weights polynomial in n).

Two executable forms: :func:`lps_mwm_program` is the generator spec
and :func:`lps_mwm_array_batched` the array program, written over a
lane axis of seeds (it also accepts per-lane weight classes so
:func:`repro.core.weighted_mwm.weighted_mwm_batched` can run one box
call per lane over a shared CSR).  ``lps_mwm(..., backend="array")``
runs the array program as a one-lane batch and :func:`lps_mwm_batched`
over a whole seed list; every form produces byte-identical
``RunResult``s from the same seed.
"""

from __future__ import annotations

import math
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
from repro.distributed.network import Network, RunResult
from repro.distributed.node import Node
from repro.graphs.graph import Graph
from repro.matching.matching import Matching
from repro.baselines.israeli_itai import matching_from_mates

_PROPOSE = "p"
_ACCEPT = "a"
_MATCHED = "m"


def _weight_class(w: float, wmax: float) -> int:
    """Class index j with ``wmax/2^{j+1} < w <= wmax/2^j`` (j >= 0)."""
    if w <= 0:
        raise ValueError("weights must be positive")
    j = int(math.floor(math.log2(wmax / w)))
    # Guard float rounding at class boundaries: w == wmax/2^j must land
    # in class j, i.e. w > wmax/2^{j+1}.
    while j > 0 and w > wmax / (2.0**j):
        j -= 1
    while w <= wmax / (2.0 ** (j + 1)):
        j += 1
    return max(0, j)


def _weight_class_array(
    w: np.ndarray, wmax: float | np.ndarray
) -> np.ndarray:
    """Vectorized :func:`_weight_class` (exact, including the guards).

    The scalar guard loops converge to the unique fixpoint ``j`` with
    ``wmax/2^{j+1} < w <= wmax/2^j`` (or j = 0) from *any* starting
    estimate, so a vectorized ``log2`` start followed by the same
    masked corrections lands on identical classes — the float
    comparisons use the same ``wmax / 2.0**j`` expressions.  ``wmax``
    may carry leading batch axes (e.g. ``(num_seeds, 1)`` against a
    shared ``(m,)`` weight row) for per-lane classification.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.size and (w <= 0).any():
        raise ValueError("weights must be positive")
    ratio = wmax / w
    j = np.floor(np.log2(ratio)).astype(np.int64)
    j = np.broadcast_to(j, np.broadcast_shapes(w.shape, np.shape(wmax))).copy()
    wb = np.broadcast_to(w, j.shape)
    wmaxb = np.broadcast_to(np.asarray(wmax, dtype=np.float64), j.shape)
    while True:
        over = (j > 0) & (wb > wmaxb / np.exp2(j.astype(np.float64)))
        if not over.any():
            break
        j[over] -= 1
    while True:
        under = wb <= wmaxb / np.exp2((j + 1).astype(np.float64))
        if not under.any():
            break
        j[under] += 1
    return np.maximum(j, 0)


def lps_mwm_array_batched(
    ctx: BatchedArrayContext,
    n: int,
    wmax: float | np.ndarray,
    num_classes: int,
    phases_per_class: int,
    he_cls: np.ndarray | None = None,
    lane_degrees: np.ndarray | None = None,
) -> list[list[int]]:
    """Array program of :func:`lps_mwm_program`, one lane per seed.

    The protocol is fully lockstep — every node runs the identical
    ``num_classes × phases_per_class`` schedule of 3-round phases and
    only returns after it — so there is no ``alive`` mask and no
    termination masking: every resume has all ``n`` nodes of every lane
    live and counts a round.  SoA state is an ``int64`` ``mate`` column
    plus a ``dead`` mask of delivered ``_MATCHED`` announcements (a
    broadcast, so one mask row per lane agrees with every generator
    node's private ``dead`` set; it flips *after* resume C, landing
    next phase exactly like the generator's post-yield inbox scan).
    Coin flips and the two ``choice`` replays are bulk ``ctx.lanes``
    draws, and the chosen-neighbor selection is one flat rank-select
    (:func:`~repro.distributed.backends.choose_targets`).  A class with
    no drawer left in any lane stays drawerless (mate only sets, dead
    only grows), so its remaining phases fast-forward through
    :meth:`~repro.distributed.backends.BatchedArrayContext.idle_steps`
    with identical accounting — most of the schedule is that idle tail.

    Two extra hooks exist for Algorithm 5's batched pipeline
    (:func:`repro.core.weighted_mwm.weighted_mwm_batched`), where each
    lane runs the box on its *own* derived-weight subgraph of a shared
    topology:

    * ``he_cls`` — per-lane half-edge classes, shape ``(num_seeds,
      half_edges)``, CSR-aligned; entries ``>= num_classes`` mark
      half-edges the lane cannot use (too light, or absent from the
      lane's subgraph).  Defaults to classifying the shared graph's
      weights against ``wmax`` (which may be per-lane).
    * ``lane_degrees`` — per-lane broadcast degrees, shape
      ``(num_seeds, n)``: the degree of each vertex *in the lane's
      subgraph* (a ``_MATCHED`` announcement goes to all subgraph
      neighbors, classed or not).  Defaults to the shared graph's
      degrees.
    """
    g = ctx.graph
    num_seeds, size = ctx.num_seeds, ctx.n
    indptr, indices = ctx.indptr, ctx.indices
    _, _, eids = g.adjacency_arrays()
    if he_cls is None:
        wmax_arr = np.asarray(wmax, dtype=np.float64)
        if wmax_arr.ndim:  # per-lane wmax against the shared weights
            he_cls = _weight_class_array(
                g.weights_array(), wmax_arr.reshape(-1, 1)
            )[:, eids]
        else:
            he_cls = np.broadcast_to(
                _weight_class_array(g.weights_array(), float(wmax_arr))[eids],
                (num_seeds, indices.size),
            )
    if lane_degrees is None:
        lane_degrees = np.broadcast_to(g.degrees(), (num_seeds, size))
    vhe = np.repeat(np.arange(size, dtype=np.int64), np.diff(indptr))
    # Ascending-neighbor order per vertex; a proposer's candidate
    # classes come from its lane's he_cls row via the CSR positions.
    sidx, s_nbr = sorted_csr(indptr, indices)
    # (lane, half-edge) pairs of each class, precomputed once.
    cls_part = [lane_nonzero(he_cls == c) for c in range(num_classes)]
    mate = np.full((num_seeds, size), -1, dtype=np.int64)
    dead = np.zeros((num_seeds, size), dtype=bool)
    lanes = ctx.lanes
    eight = np.int64(8)
    all_live = np.full(num_seeds, size, dtype=np.int64)
    all_yield = np.ones(num_seeds, dtype=bool)
    for cls in range(num_classes):
        for _phase in range(phases_per_class):
            # --- round 1: proposals ----------------------------------
            rows_c, he_c = cls_part[cls]
            alive_he = ~dead[rows_c, indices[he_c]]
            cnt = np.bincount(
                rows_c[alive_he] * size + vhe[he_c[alive_he]],
                minlength=num_seeds * size,
            ).reshape(num_seeds, size)
            pr_all, pv_all = lane_nonzero((mate == -1) & (cnt > 0))
            if pr_all.size == 0:
                # No lane has a drawer left in this class (monotone:
                # mate only sets, dead only grows) — the rest of the
                # class is idle rounds in every lane, exactly as the
                # generator executes it.
                ctx.idle_steps(all_live, 3 * (phases_per_class - _phase))
                break
            ctx.begin_step(all_live)
            coins = lanes.integers(0, 2, pr_all * size + pv_all)
            picked = coins == 1
            pr, pv = pr_all[picked], pv_all[picked]
            idx = lanes.integers(0, cnt[pr, pv], pr * size + pv)
            tgt = choose_targets(
                indptr, s_nbr, sidx, pv, idx,
                lambda seg, pos, nbr: (
                    (he_cls[pr[seg], pos] == cls) & ~dead[pr[seg], nbr]
                ),
            )
            ctx.account_groups(
                np.full(pr.size, eight), np.ones(pr.size, np.int64), pr
            )
            ctx.end_step(all_yield)
            # --- round 2: accepts ------------------------------------
            ctx.begin_step(all_live)
            accepted_by = np.full((num_seeds, size), -1, dtype=np.int64)
            mate_flat = mate.reshape(-1)
            ignores = mate_flat != -1
            ignores[pr * size + pv] = True
            acc, chosen = replay_acceptor_choices(
                lanes, pr * size + tgt, pv, ignores
            )
            accepted_by.reshape(-1)[acc] = chosen
            mate_flat[acc] = chosen
            ctx.account_groups(
                np.full(acc.size, eight), np.ones(acc.size, np.int64),
                acc // size,
            )
            ctx.end_step(all_yield)
            # --- round 3: confirm + announce -------------------------
            ctx.begin_step(all_live)
            succ = accepted_by[pr, tgt] == pv
            mate[pr[succ], pv[succ]] = tgt[succ]
            m_rows = np.concatenate((pr[succ], acc // size))
            m_cols = np.concatenate((pv[succ], acc % size))
            ctx.account_groups(
                np.full(m_rows.size, eight),
                lane_degrees[m_rows, m_cols],
                m_rows,
            )
            ctx.end_step(all_yield)
            dead[m_rows, m_cols] = True  # broadcast lands next resume
    ctx.begin_step(all_live)  # final resume: every program returns
    return [row.tolist() for row in mate]


def lps_mwm_program(
    node: Node,
    n: int,
    wmax: float,
    num_classes: int,
    phases_per_class: int,
) -> Generator[None, None, int]:
    """Node program; returns the node's mate id, or -1."""
    # Pre-compute each incident edge's class (both endpoints agree:
    # the class is a function of the shared edge weight and wmax).
    cls_of: dict[int, int] = {}
    for u in node.neighbors:
        j = _weight_class(node.edge_weight(u), wmax)
        if j < num_classes:
            cls_of[u] = j
    mate = -1
    dead: set[int] = set()  # neighbors known to be matched
    announced = False
    for cls in range(num_classes):
        for _phase in range(phases_per_class):
            # --- round 1: proposals -----------------------------------
            active = (
                {u for u, j in cls_of.items() if j == cls and u not in dead}
                if mate == -1
                else set()
            )
            proposer = bool(node.rng.integers(0, 2)) if active else False
            target = -1
            if proposer:
                target = int(node.rng.choice(sorted(active)))
                node.send(target, _PROPOSE)
            yield
            # --- round 2: accepts -------------------------------------
            if mate == -1 and not proposer:
                proposals = sorted(
                    src
                    for src, tag in node.inbox
                    if tag == _PROPOSE and src in active
                )
                if proposals:
                    mate = int(node.rng.choice(proposals))
                    node.send(mate, _ACCEPT)
            yield
            # --- round 3: confirm + announce --------------------------
            if proposer and target != -1:
                if any(s == target and t == _ACCEPT for s, t in node.inbox):
                    mate = target
            if mate != -1 and not announced:
                node.broadcast(_MATCHED)
                announced = True
            yield
            for src, tag in node.inbox:
                if tag == _MATCHED:
                    dead.add(src)
    node.finish(mate)
    return mate


def _lps_params(
    g: Graph, num_classes: int | None, phases_per_class: int | None
) -> dict[str, object]:
    """Shared parameter resolution for every execution form."""
    wmax = float(g.weights_array().max())
    log_n = max(1, math.ceil(math.log2(max(2, g.n))))
    if num_classes is None:
        num_classes = 2 * log_n + 4
    if phases_per_class is None:
        phases_per_class = 4 * log_n + 4
    return {
        "n": g.n,
        "wmax": wmax,
        "num_classes": num_classes,
        "phases_per_class": phases_per_class,
    }


def lps_mwm(
    g: Graph,
    seed: int = 0,
    num_classes: int | None = None,
    phases_per_class: int | None = None,
    max_rounds: int = 10_000_000,
    backend: str = "generator",
) -> tuple[Matching, RunResult]:
    """Run the weight-class δ-MWM; returns (matching, run metrics).

    Defaults: ``num_classes = 2⌈log₂ n⌉ + 4`` and ``phases_per_class =
    4⌈log₂ n⌉ + 4`` (w.h.p. maximal per class).  ``backend`` selects
    the execution engine (``"generator"`` or ``"array"`` — the array
    program as a one-lane batch); both yield byte-identical results
    from the same seed, so Algorithm 5's black box runs vectorized end
    to end when ``"array"`` is chosen.
    """
    return lps_mwm_batched(
        g, [seed], num_classes=num_classes,
        phases_per_class=phases_per_class, max_rounds=max_rounds,
        backend=backend,
    )[0]


def lps_mwm_batched(
    g: Graph,
    seeds: "Sequence[int]",
    num_classes: int | None = None,
    phases_per_class: int | None = None,
    max_rounds: int = 10_000_000,
    backend: str = "array",
) -> list[tuple[Matching, RunResult]]:
    """Run the weight-class δ-MWM once per seed as one batched execution.

    ``backend="array"`` (default) executes the whole batch as one
    :class:`~repro.distributed.backends.BatchedArrayBackend` run;
    ``"generator"`` falls back to one ``Network`` per seed.  Both
    return per-seed ``(Matching, RunResult)`` pairs identical to
    ``[lps_mwm(g, seed=s) for s in seeds]``.
    """
    if not g.weighted:
        raise ValueError("lps_mwm needs a weighted graph")
    if g.m == 0:
        return [(Matching(g), RunResult()) for _ in seeds]
    results = run_program_batched(
        g,
        backend=backend,
        generator_program=lps_mwm_program,
        batched_array_program=lps_mwm_array_batched,
        params=_lps_params(g, num_classes, phases_per_class),
        seeds=seeds,
        max_rounds=max_rounds,
    )
    return [(matching_from_mates(g, res.outputs), res) for res in results]
