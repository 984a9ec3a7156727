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
from repro.distributed.backends import BatchedArrayBackend
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
    the matched-edge mask is ``mate[lo] == hi``, the per-vertex
    matched weight ``vw`` is one scatter off that mask, and
    ``w_M = w − vw[lo] − vw[hi]`` (0 on matched edges) is the same
    scalar arithmetic as :func:`wrap_gain` for all edges at once.

    ``mate`` may carry a leading seed axis (``(num_seeds, n)``), in
    which case the result is ``(num_seeds, m)`` — the batched form
    :func:`weighted_mwm_batched` iterates on.
    """
    mate = np.asarray(mate, dtype=np.int64)
    lo, hi = g.endpoints_array()
    w = g.weights_array()
    if mate.ndim == 1:
        matched = mate[lo] == hi
        vw = np.zeros(g.n, dtype=np.float64)
        vw[lo[matched]] = w[matched]
        vw[hi[matched]] = w[matched]
        wm = w - vw[lo] - vw[hi]
        wm[matched] = 0.0
        return wm
    num_seeds = mate.shape[0]
    matched = mate[:, lo] == hi
    vw = np.zeros((num_seeds, g.n), dtype=np.float64)
    rows, eidx = np.nonzero(matched)
    vw[rows, lo[eidx]] = w[eidx]
    vw[rows, hi[eidx]] = w[eidx]
    wm = w - vw[:, lo] - vw[:, hi]
    wm[matched] = 0.0
    return wm


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


def apply_wraps_array(
    m: Matching, mprime_edges: list[tuple[int, int]]
) -> Matching:
    """Bulk twin of :func:`apply_wraps`: wrap-augmentation as mate surgery.

    The symmetric difference ``M ⊕ ⋃ wrap(e)`` never walks paths: every
    wrap evicts its endpoints' matched edges and installs its own, so
    on the mate array it is two vectorized writes — clear the old
    partners of all wrap endpoints, then point the endpoints at each
    other.  Validation (M′ is a matching disjoint from M; results are
    graph edges) is whole-array, raising the same ``ValueError``s as
    the scalar form.
    """
    mate = m.mate_array()
    if mprime_edges:
        pairs = np.asarray(mprime_edges, dtype=np.int64).reshape(-1, 2)
        r, s = pairs[:, 0], pairs[:, 1]
        ends = np.concatenate((r, s))
        if np.unique(ends).size != ends.size:
            raise ValueError("M' is not a matching: vertex reuse")
        clash = mate[r] == s
        if clash.any():
            k = int(np.flatnonzero(clash)[0])
            raise ValueError(
                f"M' must be disjoint from M, got ({int(r[k])},{int(s[k])})"
            )
        old = mate[ends]
        mate[old[old != -1]] = -1
        mate[r] = s
        mate[s] = r
    return Matching.from_mate_array(m.graph, mate)


def default_iterations(eps: float, delta: float) -> int:
    """Line 2 of Algorithm 5: ⌈(3/2δ)·ln(2/ε)⌉ iterations."""
    return math.ceil(3.0 / (2.0 * delta) * math.log(2.0 / eps))


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
        variant of [18]'s interleaving — bench A4 compares them).
    backend:
        Execution engine for the black box (``"generator"`` or
        ``"array"``); the array path also applies the wraps as bulk
        mate surgery (:func:`apply_wraps_array`).  Results are
        seed-identical either way.

    Returns ``(matching, metrics, iterations_executed)``.
    """
    if box not in ("sequential", "interleaved"):
        raise ValueError(f"unknown box {box!r}")
    if not g.weighted:
        raise ValueError("weighted_mwm needs a weighted graph")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    if iterations is None:
        iterations = default_iterations(eps, delta)
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
        wrap = apply_wraps_array if backend == "array" else apply_wraps
        wrapped = wrap(m, edges)
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

    Per iteration every live lane computes its derived weights from the
    ``(num_seeds, n)`` mate state in one kernel call, and all lanes'
    black-box calls execute as a *single*
    :class:`~repro.distributed.backends.BatchedArrayBackend` run of
    :func:`~repro.baselines.lps_mwm.lps_mwm_array_batched` over the
    shared CSR — each lane masked to its own derived-weight subgraph
    through per-lane half-edge classes and broadcast degrees.  Lanes
    whose derived weights are all non-positive skip the box exactly as
    the scalar loop does (and stop outright under ``adaptive``).

    Returns one ``(matching, metrics, iterations_executed)`` triple per
    seed, byte-identical to ``[weighted_mwm(g, seed=s, ...) for s in
    seeds]``.  Only the ``"sequential"`` box is supported (the
    interleaved variant has no batched twin).
    """
    if not g.weighted:
        raise ValueError("weighted_mwm_batched needs a weighted graph")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    if iterations is None:
        iterations = default_iterations(eps, delta)
    num_seeds = len(seeds)
    n = g.n
    seqs = [np.random.SeedSequence(int(s)) for s in seeds]
    mate = np.full((num_seeds, n), -1, dtype=np.int64)
    totals = [RunResult() for _ in seeds]
    its = np.zeros(num_seeds, dtype=np.int64)
    running = np.ones(num_seeds, dtype=bool)
    indptr, _, eids = g.adjacency_arrays()
    num_classes = phases_per_class = 0
    if g.m:  # loop-invariant box parameters (edgeless graphs never box)
        box_params = _lps_params(g, None, None)
        num_classes = int(box_params["num_classes"])
        phases_per_class = int(box_params["phases_per_class"])
    for it in range(1, iterations + 1):
        act = np.flatnonzero(running)
        if act.size == 0:
            break
        wm = derived_weights_array(g, mate[act])
        for s in act.tolist():
            totals[s].charged_rounds += 1
            totals[s].total_messages += 2 * g.m
        its[act] = it
        pos = wm > _EPS_W
        has_gain = pos.any(axis=1)
        if adaptive:
            stopped = act[~has_gain]
            its[stopped] = it - 1
            running[stopped] = False
        if not has_gain.any():
            continue
        box_rows = np.flatnonzero(has_gain)  # rows of wm / act
        box_lanes = act[box_rows]  # global seed indices
        # Spawn box seeds only for lanes that actually run the box —
        # the scalar loop spawns after its empty-keep check.
        box_seeds = [
            int(seqs[s].spawn(1)[0].generate_state(1)[0])
            for s in box_lanes.tolist()
        ]
        wm_box = wm[box_rows]
        pos_box = pos[box_rows]
        wmax = np.where(pos_box, wm_box, -np.inf).max(axis=1)
        # Per-lane masked box: classes from each lane's derived
        # weights, sentinel num_classes on absent (non-positive) edges;
        # broadcast degrees count the lane's present edges.
        wm_he = wm_box[:, eids]
        present = pos_box[:, eids]
        safe = np.where(present, wm_he, wmax[:, None])
        he_cls = np.where(
            present, _weight_class_array(safe, wmax[:, None]), num_classes
        )
        csum = np.concatenate(
            [
                np.zeros((box_rows.size, 1), dtype=np.int64),
                np.cumsum(present, axis=1, dtype=np.int64),
            ],
            axis=1,
        )
        lane_degrees = csum[:, indptr[1:]] - csum[:, indptr[:-1]]
        net = BatchedArrayBackend(
            g,
            lps_mwm_array_batched,
            params={
                "n": n,
                "wmax": wmax,
                "num_classes": num_classes,
                "phases_per_class": phases_per_class,
                "he_cls": he_cls,
                "lane_degrees": lane_degrees,
            },
            seeds=box_seeds,
        )
        results = net.run(max_rounds=max_rounds)
        pmat = np.full((box_rows.size, n), -1, dtype=np.int64)
        for row, res in enumerate(results):
            totals[int(box_lanes[row])] = totals[int(box_lanes[row])].merge(res)
            totals[int(box_lanes[row])].charged_rounds += 2
            for v, out in res.outputs.items():
                pmat[row, v] = out
        # Validate the boxes' matchings (symmetry), as
        # ``matching_from_mates`` does on the scalar path.
        rows, cols = np.nonzero(pmat != -1)
        partners = pmat[rows, cols]
        if (pmat[rows, partners] != cols).any():
            raise ValueError("asymmetric mates in black-box output")
        # Bulk wrap-augmentation, every lane at once: evict the wrap
        # endpoints' old partners, then install the M' edges.
        rr, vv = np.nonzero(pmat > np.arange(n))
        uu = pmat[rr, vv]
        gl = box_lanes[rr]
        if (mate[gl, vv] == uu).any():
            raise ValueError("M' must be disjoint from M")
        flat = mate.reshape(-1)
        for end in (vv, uu):
            old = flat[gl * n + end]
            keep_old = old != -1
            flat[gl[keep_old] * n + old[keep_old]] = -1
        flat[gl * n + vv] = uu
        flat[gl * n + uu] = vv
    out = []
    for s in range(num_seeds):
        totals[s].outputs = {v: int(mate[s, v]) for v in range(n)}
        out.append(
            (Matching.from_mate_array(g, mate[s]), totals[s], int(its[s]))
        )
    return out


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
    if iterations is None:
        iterations = default_iterations(eps, delta)
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
