"""Section 4 — (½−ε)-MWM via the derived weight function (Theorem 4.5).

Machinery (all per the paper's Preliminaries of Section 4):

* ``wrap(r, s)`` — for an unmatched edge, the length-≤3 path
  ``(M(r), r), (r, s), (s, M(s))`` (missing ends omitted);
* ``g(P) = w(M ⊕ P) − w(M)`` — the gain of applying P;
* the derived weights ``w_M(u, v) = g(wrap(u, v))`` for unmatched
  edges and 0 on matched ones — the gain of adding (u,v) and evicting
  its endpoints' matched edges.

Algorithm 5: repeat ``(3/2δ)·ln(2/ε)`` times — run a black-box δ-MWM
on (V, E, w_M) to get M′, then augment M by all wraps of M′ edges.
Lemma 4.1: the result is a matching of weight ≥ w(M) + w_M(M′) (wraps
may overlap only on removed M edges, which only helps).  With Lemma
4.2 (k=1: 3-augmentations recover ≥ ⅔ of the gap to ½·w(M*)), each
iteration multiplies the gap to ½·w(M*) by (1 − 2δ/3), giving
w(M) ≥ (½−ε)·w(M*) after the stated number of iterations (Lemma 4.3).

The black box is the weight-class algorithm of
:mod:`repro.baselines.lps_mwm` (the paper plugs in [18] with δ = 1/5).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.baselines.lps_mwm import (
    _lps_params,
    _weight_class_array,
    lps_mwm,
    lps_mwm_array_batched,
)
from repro.distributed.backends import (
    BatchedArrayContext,
    lane_nonzero,
    resolve_backend,
    segment_bounds,
)
from repro.distributed.models import LOCAL
from repro.distributed.network import RunResult
from repro.graphs.graph import Graph
from repro.matching.greedy import greedy_mwm
from repro.matching.matching import Matching

#: derived weights below this are treated as non-positive (float noise guard)
_EPS_W = 1e-12


def wrap_path(m: Matching, r: int, s: int) -> list[tuple[int, int]]:
    """``wrap(r, s)``: the edges (M(r),r), (r,s), (s,M(s)) that exist.

    Defined for unmatched edges (r, s) w.r.t. the matching ``m``.
    """
    if m.is_matched_edge(r, s):
        raise ValueError(f"wrap is defined for edges outside M, got ({r},{s})")
    edges = []
    if m.mate(r) != -1:
        edges.append((m.mate(r), r))
    edges.append((r, s))
    if m.mate(s) != -1:
        edges.append((s, m.mate(s)))
    return edges


def wrap_gain(g: Graph, m: Matching, r: int, s: int) -> float:
    """``g(wrap(r, s))`` = w(r,s) − w(r,M(r)) − w(s,M(s))."""
    gain = g.weight(r, s)
    if m.mate(r) != -1:
        gain -= g.weight(r, m.mate(r))
    if m.mate(s) != -1:
        gain -= g.weight(s, m.mate(s))
    return gain


def derived_weights_array(g: Graph, mate: np.ndarray) -> np.ndarray:
    """The w_M kernel: mate array in, per-edge derived weights out.

    Fully vectorized — no per-edge or per-matched-edge Python loop:
    the matched edges are where ``mate[lo] == hi``, the per-vertex
    matched weight ``vw`` is one scatter off them, and
    ``w_M = w − vw[lo] − vw[hi]`` (0 on matched edges) is the same
    scalar arithmetic as :func:`wrap_gain` for all edges at once.

    ``mate`` may carry a leading seed axis (``(num_seeds, n)``), in
    which case the result is ``(num_seeds, m)`` — the batched form
    :func:`weighted_mwm_batched` starts from.
    """
    mate = np.asarray(mate, dtype=np.int64)
    wm, _ = _derived_weights(g, np.atleast_2d(mate))
    return wm[0] if mate.ndim == 1 else wm


def _derived_weights(g: Graph, mate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`derived_weights_array` on ``(lanes, n)`` mates: ``(wm, vw)``."""
    lo, hi = g.endpoints_array()
    w = g.weights_array()
    lo_i, hi_i = lo.astype(np.intp), hi.astype(np.intp)
    rows, eidx = lane_nonzero(np.take(mate, lo_i, axis=1) == hi)  # matched
    vw = np.zeros(mate.shape, dtype=np.float64)
    flat = vw.reshape(-1)
    flat[rows * g.n + lo[eidx]] = w[eidx]
    flat[rows * g.n + hi[eidx]] = w[eidx]
    wm = w - np.take(vw, lo_i, axis=1) - np.take(vw, hi_i, axis=1)
    wm[rows, eidx] = 0.0
    return wm, vw


def derived_weights(g: Graph, m: Matching) -> list[float]:
    """The full w_M vector, indexed by edge id (0 on matched edges).

    A thin list-returning view over :func:`derived_weights_array` (the
    same float arithmetic, so values are bit-identical to the historic
    per-matched-edge accumulation).
    """
    return derived_weights_array(g, m.mate_array()).tolist()


def apply_wraps(m: Matching, mprime_edges: list[tuple[int, int]]) -> Matching:
    """Line 5 of Algorithm 5: ``M ← M ⊕ ⋃_{e∈M′} wrap(e)``.

    ``mprime_edges`` must form a matching disjoint from M.  Wraps may
    share *removed* M edges (both endpoints of an M edge can serve
    different M′ edges) — handled by collecting removals as a set, as
    in Lemma 4.1's argument.
    """
    new = m.copy()
    to_remove: set[tuple[int, int]] = set()
    seen: set[int] = set()
    for r, s in mprime_edges:
        if r in seen or s in seen:
            raise ValueError(f"M' is not a matching: vertex reuse at ({r},{s})")
        seen.update((r, s))
        if m.is_matched_edge(r, s):
            raise ValueError(f"M' must be disjoint from M, got ({r},{s})")
        for v in (r, s):
            mv = m.mate(v)
            if mv != -1:
                to_remove.add((v, mv) if v < mv else (mv, v))
    for a, b in to_remove:
        new.remove(a, b)
    for r, s in mprime_edges:
        new.add(r, s)
    return new


def default_iterations(eps: float, delta: float) -> int:
    """Line 2 of Algorithm 5: ⌈(3/2δ)·ln(2/ε)⌉ iterations."""
    return math.ceil(3.0 / (2.0 * delta) * math.log(2.0 / eps))


def _iteration_count(eps: float, delta: float, iterations: int | None) -> int:
    """Check Algorithm 5's parameters; return its iteration count.

    Shared by every entry point: ``0 < eps < 1``, ``0 < delta <= 1``
    (a δ-MWM box cannot beat w(M*)), and ``iterations`` None (the
    paper's count, :func:`default_iterations`) or ``>= 0``.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if iterations is None:
        return default_iterations(eps, delta)
    if iterations < 0:
        raise ValueError(f"iterations must be None or >= 0, got {iterations}")
    return iterations


def weighted_mwm(
    g: Graph,
    eps: float = 0.1,
    delta: float = 0.2,
    seed: int = 0,
    iterations: int | None = None,
    adaptive: bool = False,
    check_lemma41: bool = False,
    box: str = "sequential",
    max_rounds: int = 10_000_000,
    backend: str = "generator",
) -> tuple[Matching, RunResult, int]:
    """Theorem 4.5: distributed (½−ε)-MWM.

    Parameters
    ----------
    eps:
        Target slack (result ≥ (½−ε)·w(M*) w.h.p.).
    delta:
        Guarantee of the black box (the paper uses δ = 1/5 for [18];
        our weight-class box achieves ¼−ε′, so 1/5 is conservative).
    adaptive:
        Stop early when no edge has positive derived weight — then no
        3-augmentation can improve M and further iterations are no-ops.
    check_lemma41:
        Assert w(M_new) ≥ w(M) + w_M(M′) each iteration (debug).
    box:
        δ-MWM black box: ``"sequential"`` (provable quality,
        O(log W · log n) rounds) or ``"interleaved"`` (the O(log n)
        variant of [18]'s interleaving — claims A4 and E4 of
        ``benchmarks/bench_claims.py`` compare them).
    backend:
        Execution engine (``"generator"`` or ``"array"``).  With the
        sequential box and no ``check_lemma41``, ``"array"`` runs
        :func:`weighted_mwm_batched` on one lane; otherwise it only
        selects the black box's engine.  Results are seed-identical
        either way.

    Returns ``(matching, metrics, iterations_executed)``.
    """
    if box not in ("sequential", "interleaved"):
        raise ValueError(f"unknown box {box!r}")
    resolve_backend(backend)
    if not g.weighted:
        raise ValueError("weighted_mwm needs a weighted graph")
    iterations = _iteration_count(eps, delta, iterations)
    if backend == "array" and box == "sequential" and not check_lemma41:
        return weighted_mwm_batched(
            g, [seed], eps=eps, delta=delta, iterations=iterations,
            adaptive=adaptive, max_rounds=max_rounds,
        )[0]
    seq = np.random.SeedSequence(seed)
    m = Matching(g)
    total = RunResult()
    it = 0
    for it in range(1, iterations + 1):
        wm = derived_weights_array(g, m.mate_array())
        # One broadcast round lets both endpoints of every edge compute
        # w_M locally (each node announces its matched edge's weight).
        total.charged_rounds += 1
        total.total_messages += 2 * g.m
        keep = np.flatnonzero(wm > _EPS_W)
        if keep.size == 0:
            if adaptive:
                it -= 1
                break
            continue
        gprime = g.subgraph(keep).with_weights(wm[keep])
        box_seed = int(seq.spawn(1)[0].generate_state(1)[0])
        if box == "interleaved":
            from repro.baselines.lps_interleaved import lps_interleaved_mwm

            mprime, res = lps_interleaved_mwm(
                gprime, seed=box_seed, max_rounds=max_rounds, backend=backend
            )
        else:
            mprime, res = lps_mwm(
                gprime, seed=box_seed, max_rounds=max_rounds, backend=backend
            )
        total = total.merge(res)
        edges = mprime.edges()
        wrapped = apply_wraps(m, edges)
        # Applying the wraps is 2 more rounds (evict mates, set new).
        total.charged_rounds += 2
        if check_lemma41:
            gain_lb = sum(float(wm[g.edge_id(u, v)]) for u, v in edges)
            if wrapped.weight() < m.weight() + gain_lb - 1e-9:
                raise AssertionError(
                    f"Lemma 4.1 violated: {wrapped.weight()} < "
                    f"{m.weight()} + {gain_lb}"
                )
        m = wrapped
    total.outputs = {v: m.mate(v) for v in range(g.n)}
    return m, total, it


def _support_box(
    g: Graph,
    wm: np.ndarray,
    pos: np.ndarray,
    lanes: np.ndarray,
    num_classes: int,
) -> tuple[Graph, np.ndarray, np.ndarray, np.ndarray]:
    """The box lanes' compact support and their per-lane masks.

    ``wm`` and ``pos`` are every lane's derived weights and
    positive-edge masks, one row per lane; ``lanes`` picks the box
    lanes.  Returns ``(sub, verts, he_cls, lane_degrees)``: ``sub`` is
    the union of the lanes' positive edges on their endpoints ``verts``
    (:meth:`~repro.graphs.graph.Graph.support_subgraph`).  Each
    positive (lane, edge) pair gets its lane's weight class, gathered
    to ``sub``'s half-edges; a support edge a lane does not have keeps
    the sentinel ``num_classes``.  A lane's broadcast degrees count
    its own positive edges.  (A function of its own so that the
    per-pair arrays are freed before the box runs.)
    """
    lane_pos = pos[lanes]
    rows, eidx = lane_nonzero(lane_pos)
    pw = wm[lanes][lane_pos]  # row-major, like the pairs
    in_support = np.zeros(g.m, dtype=bool)
    in_support[eidx] = True
    support = np.flatnonzero(in_support)
    sub, verts = g.support_subgraph(support)
    col = np.empty(g.m, dtype=np.intp)  # each pair's support edge
    col[support] = np.arange(support.size)
    col = col[eidx]
    wmax = np.maximum.reduceat(pw, segment_bounds(rows)[:-1])
    cls = np.full((lanes.size, support.size), num_classes, dtype=np.int16)
    cls[rows, col] = _weight_class_array(pw, wmax[rows])
    s_lo, s_hi = sub.endpoints_array()
    size = lanes.size * verts.size
    lane_degrees = (
        np.bincount(rows * verts.size + s_lo[col], minlength=size)
        + np.bincount(rows * verts.size + s_hi[col], minlength=size)
    ).reshape(lanes.size, verts.size)
    return sub, verts, cls[:, sub.adjacency_arrays()[2]], lane_degrees


def _rederive(
    g: Graph,
    mate: np.ndarray,
    vw: np.ndarray,
    wm: np.ndarray,
    pos: np.ndarray,
    lanes: np.ndarray,
    changed: np.ndarray,
) -> None:
    """Bring w_M up to date after the given lanes' mates changed.

    ``changed`` marks, one row per entry of ``lanes``, the vertices
    whose mate changed; ``vw`` holds each vertex's matched-edge weight
    (0 if unmatched).  A derived weight reads only its endpoints' ``vw``
    and whether the edge itself is matched, so only the edges in a
    changed vertex's CSR row move.  Their w_M is ``w − vw[lo] −
    vw[hi]`` (0 on matched edges), the float expression of
    :func:`derived_weights_array`, so the values are bit-identical to a
    full recompute.  When those rows hold more than a quarter of the
    lanes' edges (in the first iterations most vertices change) the
    lanes' rows are recomputed whole by the kernel instead: its dense
    passes cost less per edge than this pass's gathers (about a fifth),
    and its temporaries bound this pass's.  ``vw``, ``wm`` and ``pos``
    are updated in place.
    """
    n = g.n
    indptr, indices, eids = g.adjacency_arrays()
    c_rows, verts = lane_nonzero(changed)
    deg = (indptr[verts + 1] - indptr[verts]).astype(np.int64)
    if 4 * int(deg.sum()) > lanes.size * g.m:
        lane_wm, vw[lanes] = _derived_weights(g, mate[lanes])
        wm[lanes] = lane_wm
        pos[lanes] = lane_wm > _EPS_W
        return
    lo, hi = g.endpoints_array()
    w = g.weights_array()
    seg = np.repeat(np.arange(verts.size), deg)
    slot = np.arange(seg.size) + np.repeat(
        indptr[verts] - np.cumsum(deg) + deg, deg
    )
    row = lanes[c_rows][seg]
    at = row * n + verts[seg]  # each slot's owner in the flat mate state
    e = eids[slot]
    on = mate.reshape(-1)[at] == indices[slot]  # the owner's matched edge
    flat = vw.reshape(-1)
    flat[lanes[c_rows] * n + verts] = 0.0
    flat[at[on]] = w[e[on]]  # both ends of a new matched edge changed
    base = row * n
    vals = w[e] - flat[base + lo[e]] - flat[base + hi[e]]
    vals[on] = 0.0
    cells = row * g.m + e
    wm.reshape(-1)[cells] = vals
    pos.reshape(-1)[cells] = vals > _EPS_W


def weighted_mwm_batched(
    g: Graph,
    seeds: Sequence[int],
    eps: float = 0.1,
    delta: float = 0.2,
    iterations: int | None = None,
    adaptive: bool = False,
    max_rounds: int = 10_000_000,
) -> list[tuple[Matching, RunResult, int]]:
    """Seed-axis batched Algorithm 5: one pipeline run, many seeds.

    Every lane's derived weights are computed once, from the empty
    matching, by the :func:`derived_weights_array` kernel, and then
    *follow the changed mates*: after each augmentation only the edges
    at a vertex whose mate changed are recomputed (:func:`_rederive`),
    bit-identical to a full recompute.  All lanes' black-box calls
    execute as a *single* batched run of
    :func:`~repro.baselines.lps_mwm.lps_mwm_array_batched` on a
    :class:`~repro.distributed.backends.BatchedArrayContext`, whose
    counters are added up per lane directly (no per-node outputs are
    built).  Only edges of positive derived weight can enter M′, so the
    box runs on their *support*: the union over the box lanes of those
    edges, on just their endpoints, relabeled in ascending order and
    cut out of those endpoints' CSR rows
    (:meth:`~repro.graphs.graph.Graph.support_subgraph`).  Each lane is
    masked to its own derived-weight subgraph of that support through
    per-lane half-edge classes and broadcast degrees; its RNG lanes are
    keyed by the original node ids, and its lockstep live count is
    ``g.n`` — the nodes left out have no usable edge, so in the
    generator run they only idle and never draw.  After the first
    iteration the support is a small fraction of the graph, and both
    the box's cost and the w_M update follow it.  Lanes whose derived
    weights are all non-positive skip the box exactly as the scalar
    loop does (and stop outright under ``adaptive``).

    Returns one ``(matching, metrics, iterations_executed)`` triple per
    seed, byte-identical to ``[weighted_mwm(g, seed=s, ...) for s in
    seeds]``.  Only the ``"sequential"`` box is supported (the
    interleaved variant has no batched twin).
    """
    if not g.weighted:
        raise ValueError("weighted_mwm_batched needs a weighted graph")
    iterations = _iteration_count(eps, delta, iterations)
    num_seeds = len(seeds)
    n = g.n
    seqs = [np.random.SeedSequence(int(s)) for s in seeds]
    mate = np.full((num_seeds, n), -1, dtype=np.int64)
    # per-lane RunResult counters, accumulated across box calls
    rounds, messages, bits, peak, charged = np.zeros(
        (5, num_seeds), dtype=np.int64
    )
    its = np.zeros(num_seeds, dtype=np.int64)
    running = np.ones(num_seeds, dtype=bool)
    num_classes = phases_per_class = 0
    if g.m:  # loop-invariant box parameters (edgeless graphs never box)
        box_params = _lps_params(g, None, None)
        num_classes = int(box_params["num_classes"])
        phases_per_class = int(box_params["phases_per_class"])
    # Each lane's w_M row, positive-edge mask and per-vertex matched
    # weight, kept from one iteration to the next.
    wm = derived_weights_array(g, mate)
    pos = wm > _EPS_W  # only these edges can enter M'
    vw = np.zeros((num_seeds, n))
    for it in range(1, iterations + 1):
        act = np.flatnonzero(running)
        if act.size == 0:
            break
        charged[act] += 1
        messages[act] += 2 * g.m
        its[act] = it
        has_gain = pos[act].any(axis=1)
        if adaptive:
            stopped = act[~has_gain]
            its[stopped] = it - 1
            running[stopped] = False
        if not has_gain.any():
            continue
        box_lanes = act[has_gain]  # global seed indices
        # Spawn box seeds only for lanes that actually run the box —
        # the scalar loop spawns after its empty-keep check.
        box_seeds = [
            int(seqs[s].spawn(1)[0].generate_state(1)[0])
            for s in box_lanes.tolist()
        ]
        sub, verts, he_cls, lane_degrees = _support_box(
            g, wm, pos, box_lanes, num_classes
        )
        ctx = BatchedArrayContext(
            sub, box_seeds, LOCAL, None, max_rounds, node_ids=verts
        )
        out = lps_mwm_array_batched(
            ctx, n=n, wmax=None, num_classes=num_classes,
            phases_per_class=phases_per_class, he_cls=he_cls,
            lane_degrees=lane_degrees,
        )
        del sub, he_cls, lane_degrees
        box_rounds, box_messages, box_bits, box_peak = ctx.totals
        del ctx
        rounds[box_lanes] += box_rounds
        messages[box_lanes] += box_messages
        bits[box_lanes] += box_bits
        np.maximum.at(peak, box_lanes, box_peak)
        charged[box_lanes] += 2
        # Bulk wrap-augmentation, every lane at once: evict the wrap
        # endpoints' old partners, then install the M' edges.
        rr, cc = np.nonzero(out > np.arange(verts.size))
        vv = verts[cc]
        uu = verts[out[rr, cc]]
        gl = box_lanes[rr]
        if (mate[gl, vv] == uu).any():
            raise ValueError("M' must be disjoint from M")
        flat = mate.reshape(-1)
        changed = np.zeros((box_lanes.size, n), dtype=bool)
        changed[rr, vv] = changed[rr, uu] = True
        for end in (vv, uu):
            old = flat[gl * n + end]
            keep_old = old != -1
            flat[gl[keep_old] * n + old[keep_old]] = -1
            changed[rr[keep_old], old[keep_old]] = True
        flat[gl * n + vv] = uu
        flat[gl * n + uu] = vv
        _rederive(g, mate, vw, wm, pos, box_lanes, changed)
    return [
        (
            Matching.from_mate_array(g, mate[s]),
            RunResult(
                rounds=int(rounds[s]),
                total_messages=int(messages[s]),
                total_bits=int(bits[s]),
                max_message_bits=int(peak[s]),
                outputs=dict(enumerate(mate[s].tolist())),
                charged_rounds=int(charged[s]),
            ),
            int(its[s]),
        )
        for s in range(num_seeds)
    ]


def weighted_mwm_reference(
    g: Graph,
    eps: float = 0.1,
    delta: float = 0.5,
    iterations: int | None = None,
    black_box: Callable[[Graph], Matching] = greedy_mwm,
) -> tuple[Matching, int]:
    """Centralized Algorithm 5 with a sequential black box.

    Default box: heaviest-edge-first greedy (an exact ½-MWM, so
    δ = ½).  Used to cross-check the distributed pipeline and in the
    black-box ablation.
    """
    if not g.weighted:
        raise ValueError("weighted_mwm_reference needs a weighted graph")
    iterations = _iteration_count(eps, delta, iterations)
    m = Matching(g)
    it = 0
    for it in range(1, iterations + 1):
        wm = derived_weights(g, m)
        keep = [eid for eid, w in enumerate(wm) if w > _EPS_W]
        if not keep:
            it -= 1
            break
        gprime = g.subgraph(keep).with_weights([wm[e] for e in keep])
        mprime = black_box(gprime)
        m = apply_wraps(m, mprime.edges())
    return m, it
