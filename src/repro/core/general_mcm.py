"""Algorithm 4 — general graphs via random bipartitions (Theorem 3.11).

Each iteration:

1. every node colors itself red or blue with probability ½;
2. the bipartite-looking subgraph Ĝ is formed — its vertices are the
   free vertices plus the endpoints of *bichromatic* matched edges,
   its edges the bichromatic edges among them (line 4 of Algorithm 4);
3. ``Aug(Ĝ, M, 2k−1)`` (the Section 3.2 subroutine, with X = red and
   Y = blue) applies a maximal set of disjoint augmenting paths of
   length ≤ 2k−1 in Ĝ — each is an augmenting path in G as well
   (Observation 3.1);
4. M ← M ⊕ P.

Any augmenting path of length ℓ ≤ 2k−1 survives into Ĝ with
probability 2^{−ℓ} (Observation 3.2), so by Lemma 3.9 each iteration
closes an expected 1/((k+1)2^{2k}) fraction of the gap to
(1−1/(k+1))|M*|; after 2^{2k+1}(k+1)·ln k iterations the matching is a
(1−1/k)-MCM w.h.p. (Lemma 3.10).

Modes:

* **fidelity** (``iterations=fidelity_iterations(k)``) — the paper's
  exact budget, astronomically conservative in practice;
* **adaptive** (default) — stop once an iteration certifies that no
  augmenting path of length ≤ 2k−1 exists in *G* (checked exactly, by
  bounded enumeration); at that point Lemma 3.5 already gives the
  stronger (1−1/(k+1)) bound and further iterations are no-ops.
  Ablation A2 quantifies the difference.

The per-iteration communication (color exchange with the mate, one
membership broadcast) is charged explicitly: 2 rounds and 2(m+n)
messages of O(1) bits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.bipartite_mcm import aug_bipartite, default_phase_iterations
from repro.distributed.network import RunResult
from repro.graphs.graph import Graph
from repro.matching.augmenting import find_augmenting_paths_upto
from repro.matching.matching import Matching


def fidelity_iterations(k: int) -> int:
    """The paper's iteration budget: ⌈2^{2k+1}(k+1)·ln k⌉."""
    if k <= 2:
        raise ValueError("Algorithm 4 requires k > 2")
    return math.ceil(2 ** (2 * k + 1) * (k + 1) * math.log(k))


def _hat_graph(
    g: Graph, mates: list[int], red: np.ndarray
) -> tuple[Graph, list[bool]]:
    """Line 4 of Algorithm 4: build Ĝ and the X-side indicator.

    Ĝ keeps all vertex ids (spanning subgraph of bichromatic edges
    between Ĝ members); vertices outside V̂ are isolated in it and idle
    through the Aug run.  X = red members, Y = blue members.
    """
    mates_arr = np.asarray(mates, dtype=np.int64)
    red_arr = np.asarray(red, dtype=bool)
    in_hat = (mates_arr == -1) | (red_arr != red_arr[mates_arr])
    lo, hi = g.endpoints_array()
    keep = np.nonzero(
        in_hat[lo] & in_hat[hi] & (red_arr[lo] != red_arr[hi])
    )[0]
    ghat = g.subgraph(keep)
    xside = red_arr.tolist()
    return ghat, xside


def general_mcm(
    g: Graph,
    k: int,
    seed: int = 0,
    iterations: int | None = None,
    adaptive: bool = True,
    inner_adaptive: bool = True,
    max_rounds: int = 1_000_000,
) -> tuple[Matching, RunResult, int]:
    """Theorem 3.11: (1−1/k)-MCM of an arbitrary graph, w.h.p.

    Parameters
    ----------
    iterations:
        Outer sampling budget; default is the adaptive stop (or the
        paper's :func:`fidelity_iterations` when ``adaptive=False``).
    adaptive:
        Stop early once no augmenting path of length ≤ 2k−1 exists in
        G w.r.t. M (the target guarantee is then already met).
    inner_adaptive:
        Run each Aug call until its no-leader certificate instead of
        the fixed Lemma 3.7 budget.

    Returns ``(matching, metrics, outer_iterations_used)``.
    """
    if k <= 2:
        raise ValueError("Algorithm 4 requires k > 2 (Section 3.3)")
    ell = 2 * k - 1
    if iterations is None and not adaptive:
        iterations = fidelity_iterations(k)
    rng = np.random.default_rng(seed)
    seq = np.random.SeedSequence(seed + 1)
    mates = [-1] * g.n
    total = RunResult()
    outer = 0
    while iterations is None or outer < iterations:
        if adaptive:
            m_now = Matching.from_mate_array(g, mates)
            if not find_augmenting_paths_upto(g, m_now, ell):
                break
        # Line 3: independent fair coins.
        red = rng.integers(0, 2, size=g.n).astype(bool)
        # Line 4 — one round to exchange colors across matched edges,
        # one broadcast of (color, membership); O(1)-bit messages.
        total.charged_rounds += 2
        total.total_messages += 2 * (g.m + len([v for v in mates if v != -1]))
        ghat, xside = _hat_graph(g, mates, red)
        # Line 5: Aug(Ĝ, M, 2k−1).  Mates outside Ĝ ride along
        # unchanged (their vertices are isolated there).
        mates, res, _ = aug_bipartite(
            ghat,
            xside,
            mates,
            ell,
            seed=int(seq.spawn(1)[0].generate_state(1)[0]),
            iters=None
            if inner_adaptive
            else default_phase_iterations(g.n, g.max_degree(), ell),
            adaptive=inner_adaptive,
            max_rounds=max_rounds,
        )
        total = total.merge(res)
        outer += 1
        if iterations is None and outer > 200 * fidelity_iterations(k):
            raise RuntimeError("general_mcm failed to converge")
    m = Matching.from_mate_array(g, mates)
    total.outputs = dict(enumerate(mates))
    return m, total, outer
