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
factor, which claim A4 of ``benchmarks/bench_claims.py`` measures
against the interleaved variant.

The protocol is fully lockstep: every node executes exactly
``num_classes × phases_per_class × 3`` rounds, idling where it has
nothing to do, so class boundaries need no global synchronization.

Global knowledge: nodes are parameterized by n and wmax (the standard
assumptions; the paper's O(log n)-bit messages already presuppose
weights polynomial in n).

Two executable forms: :func:`lps_mwm_program` is the generator spec
and :func:`lps_mwm_array_batched` the array program, written over a
lane axis of seeds (it also accepts per-lane weight classes so
:func:`repro.core.weighted_mwm.weighted_mwm_batched` can run all lanes'
box calls as one batch over the compact support of their positive
edges).  ``lps_mwm(..., backend="array")``
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
    pair_keys,
    replay_acceptor_choices,
    resolve_backend,
    run_program_batched,
    segment_bounds,
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


def _class_pairs(
    he_cls: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    num_classes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The usable (lane, half-edge) pairs, partitioned by class in one pass.

    Returns ``(bounds, owner, nbr)``: class ``c``'s pairs are entries
    ``bounds[c]:bounds[c + 1]`` of ``owner`` and ``nbr``, the flat lane
    keys of each half-edge's two ends
    (:func:`~repro.distributed.backends.pair_keys`).  A class keeps its
    pairs in (lane, owner, neighbor id) order, so each owner's
    candidates form one run, ascending like the generator's
    ``sorted(active)``.
    """
    sidx, s_nbr = sorted_csr(indptr, indices)
    cls = he_cls[:, sidx]  # half-edge slots in ascending-neighbor order
    rows = np.flatnonzero(cls < num_classes)
    cls = cls.reshape(-1)[rows].astype(np.int16)  # classes stay below 2^12
    rows = rows[np.argsort(cls, kind="stable")]  # a radix sort on int16
    bounds = np.zeros(num_classes + 1, dtype=np.int64)
    np.cumsum(np.bincount(cls, minlength=num_classes), out=bounds[1:])
    return (bounds, *pair_keys(indptr, s_nbr, he_cls.shape[0], rows))


def lps_mwm_array_batched(
    ctx: BatchedArrayContext,
    n: int,
    wmax: float | None,
    num_classes: int,
    phases_per_class: int,
    he_cls: np.ndarray | None = None,
    lane_degrees: np.ndarray | None = None,
) -> np.ndarray:
    """Array program of :func:`lps_mwm_program`, one lane per seed.

    The protocol is fully lockstep — every node runs the identical
    ``num_classes × phases_per_class`` schedule of 3-round phases and
    only returns after it — so there is no ``alive`` mask and no
    termination masking: every resume counts a round with all ``n``
    nodes of every lane live.  ``n`` is that lockstep node count, which
    is also what a ``max_rounds`` overrun reports; it may exceed
    ``ctx.n`` when the batch runs on a relabeled subgraph of the
    network (nodes outside it idle through the schedule and never
    draw).  Returns the ``(num_seeds, ctx.n)`` ``int64`` mate array
    (``-1`` for unmatched), in ``ctx.graph``'s vertex ids.

    State is flat over lane ids (``seed_index * ctx.n + vertex``): a
    ``mate`` column and a ``dead`` mask of delivered ``_MATCHED``
    announcements (a broadcast, so one mask row per lane agrees with
    every generator node's private ``dead`` set; it flips *after*
    resume C, landing next phase exactly like the generator's
    post-yield inbox scan).  The usable (lane, half-edge) pairs are
    expanded to ``(owner, neighbor)`` keys
    (:func:`~repro.distributed.backends.pair_keys`) and partitioned by
    class once, each vertex's pairs in ascending neighbor order.  A
    pair stays a candidate while neither end is dead — a node is dead
    exactly when it is matched, and dead only grows — so every phase
    first drops the pairs that died, and its
    remaining work is proportional to the class's live pairs: the
    drawers are the runs of the (sorted) owner keys, each proposer's
    ``choice(sorted(active))`` is the drawn offset into its run, and
    acceptances replay through
    :func:`~repro.distributed.backends.replay_acceptor_choices` with
    the proposer flags kept in one scratch mask that is reset where it
    was set.  Coin flips and the two ``choice`` replays are bulk
    ``ctx.lanes`` draws.  A class with no live pair left stays that way,
    so its remaining phases fast-forward through
    :meth:`~repro.distributed.backends.BatchedArrayContext.idle_steps`
    with identical accounting — most of the schedule is that idle tail.

    Two extra hooks exist for Algorithm 5's batched pipeline
    (:func:`repro.core.weighted_mwm.weighted_mwm_batched`), where each
    lane runs the box on its *own* derived-weight subgraph of one
    shared topology, the compact union of the lanes' positive edges:

    * ``he_cls`` — per-lane half-edge classes, shape ``(num_seeds,
      half_edges)``, aligned with ``ctx.graph``'s CSR; entries ``>=
      num_classes`` mark half-edges the lane cannot use (too light, or
      absent from the lane's subgraph).  Defaults to classifying the
      graph's weights against ``wmax``, which is read only then.
    * ``lane_degrees`` — per-lane broadcast degrees, shape
      ``(num_seeds, ctx.n)``: the degree of each vertex *in the lane's
      subgraph* (a ``_MATCHED`` announcement goes to all subgraph
      neighbors, classed or not).  Defaults to the graph's degrees.
    """
    g = ctx.graph
    num_seeds, size = ctx.num_seeds, ctx.n
    indptr, indices = ctx.indptr, ctx.indices
    if he_cls is None:
        _, _, eids = g.adjacency_arrays()
        he_cls = np.broadcast_to(
            _weight_class_array(g.weights_array(), float(wmax))[eids],
            (num_seeds, indices.size),
        )
    if lane_degrees is None:
        lane_degrees = np.broadcast_to(g.degrees(), (num_seeds, size))
    class_bounds, owner, nbr = _class_pairs(he_cls, indptr, indices, num_classes)
    mate = np.full(num_seeds * size, -1, dtype=np.int64)
    dead = np.zeros(num_seeds * size, dtype=bool)
    proposing = np.zeros(num_seeds * size, dtype=bool)
    lanes = ctx.lanes
    eight = np.int64(8)
    all_live = np.full(num_seeds, n, dtype=np.int64)
    all_yield = np.ones(num_seeds, dtype=bool)
    for cls in range(num_classes):
        c_own = owner[class_bounds[cls]:class_bounds[cls + 1]]
        c_nbr = nbr[class_bounds[cls]:class_bounds[cls + 1]]
        for _phase in range(phases_per_class):
            # --- round 1: proposals ----------------------------------
            live = ~(dead[c_own] | dead[c_nbr])
            c_own, c_nbr = c_own[live], c_nbr[live]
            if c_own.size == 0:
                # No lane has a drawer left in this class (monotone:
                # dead only grows) — the rest of the class is idle
                # rounds in every lane, exactly as the generator
                # executes it.
                ctx.idle_steps(all_live, 3 * (phases_per_class - _phase))
                break
            ctx.begin_step(all_live)
            runs = segment_bounds(c_own)  # one run per drawer
            drawers = c_own[runs[:-1]]
            picked = lanes.integers(0, 2, drawers) == 1
            prop = drawers[picked]
            idx = lanes.integers(0, np.diff(runs)[picked], prop)
            tgt = c_nbr[runs[:-1][picked] + idx]
            p_rows = prop // size
            ctx.account_groups(
                np.full(prop.size, eight), np.ones(prop.size, np.int64), p_rows
            )
            ctx.end_step(all_yield)
            # --- round 2: accepts ------------------------------------
            ctx.begin_step(all_live)
            proposing[prop] = True
            acc, chosen = replay_acceptor_choices(
                lanes, tgt, prop - p_rows * size, proposing
            )
            proposing[prop] = False
            a_rows = acc // size
            ctx.account_groups(
                np.full(acc.size, eight), np.ones(acc.size, np.int64), a_rows
            )
            ctx.end_step(all_yield)
            # --- round 3: confirm + announce -------------------------
            ctx.begin_step(all_live)
            won = a_rows * size + chosen  # proposers their target accepted
            mate[acc] = chosen
            mate[won] = acc - a_rows * size
            m_flat = np.concatenate((won, acc))
            m_rows = np.concatenate((a_rows, a_rows))
            ctx.account_groups(
                np.full(m_flat.size, eight),
                lane_degrees[m_rows, m_flat - m_rows * size],
                m_rows,
            )
            ctx.end_step(all_yield)
            dead[m_flat] = True  # broadcast lands next resume
    ctx.begin_step(all_live)  # final resume: every program returns
    return mate.reshape(num_seeds, size)


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
    resolve_backend(backend)
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
