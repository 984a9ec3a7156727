"""The paper's two figures as concrete, checkable instances.

The published figures are *worked examples*, not experiment plots:

* **Figure 1** illustrates Algorithm 3's layer-by-layer counting of
  augmenting paths in a bipartite graph (numbers next to nodes are the
  sums received from the previous level);
* **Figure 2** illustrates the derived weight function w_M and Lemma
  4.1: a matching M with w(M) = 14, a matching M′ of the re-weighted
  graph with w_M(M′) = 10, and M″ = M ⊕ ⋃wrap(e) with w(M″) = 26 ≥
  w(M) + w_M(M′) (strict, because two wraps share a removed M edge).

The camera-ready drawings cannot be recovered from the text dump, so
each instance here is *reconstructed from the caption's invariants*:
Figure 2's three advertised weights (14 / 10 / 26, with slack 2 from
wrap overlap) are reproduced exactly; Figure 1's
instance is a layered bipartite graph whose per-node counts exercise
every rule of Algorithm 3 and are verified against brute-force path
enumeration.
"""

from __future__ import annotations

from repro.graphs.graph import Graph
from repro.matching.matching import Matching


def figure1_instance() -> tuple[Graph, list[bool], list[int], dict[int, int]]:
    """A Figure-1 style instance for Algorithm 3 with ℓ = 3.

    Layout (top to bottom, as in the figure)::

        free X:    a1=0   a2=1
                    |  \\  /  \\          (unmatched)
        Y:         b1=2  b2=3  b3=4
                    ‖     ‖     ‖        (matched)
        X:         c1=5  c2=6  c3=7
                    |  \\  / \\  /        (unmatched)
        free Y:    d1=8   d2=9

    Expected counts: b1:1, b2:2, b3:1 (then c mirrors its mate), and
    the free Y leaders d1, d2 each total 3 augmenting paths of length 3.

    Returns ``(graph, xside, mates, expected_counts)``.
    """
    edges = [
        (0, 2), (0, 3), (1, 3), (1, 4),   # free X -> Y (unmatched)
        (2, 5), (3, 6), (4, 7),           # matched pairs
        (5, 8), (6, 8), (6, 9), (7, 9),   # X -> free Y (unmatched)
    ]
    g = Graph(10, edges)
    xside = [True, True, False, False, False, True, True, True, False, False]
    mates = [-1, -1, 5, 6, 7, 2, 3, 4, -1, -1]
    expected_counts = {2: 1, 3: 2, 4: 1, 5: 1, 6: 2, 7: 1, 8: 3, 9: 3}
    return g, xside, mates, expected_counts


def figure2_instance() -> tuple[Graph, Matching, list[tuple[int, int]], tuple[float, float, float]]:
    """A Figure-2 instance reproducing the caption's numbers exactly.

    ::

        0 ——7—— 1 ══2══ 2 ——7—— 3        (1,2) ∈ M
                4 ══5══ 5                 ∈ M
                6 ══7══ 7                 ∈ M

    M = {(1,2), (4,5), (6,7)}, w(M) = 2+5+7 = **14**.
    M′ = {(0,1), (2,3)} with w_M(0,1) = 7−2 = 5 and w_M(2,3) = 7−2 = 5,
    so w_M(M′) = **10**.
    M″ = M ⊕ (wrap(0,1) ∪ wrap(2,3)) = {(0,1), (2,3), (4,5), (6,7)},
    w(M″) = 7+7+5+7 = **26** ≥ 14 + 10 — the slack of 2 is the weight
    of the M edge (1,2) removed once but charged by *both* wraps,
    exactly the overlap case Lemma 4.1's proof discusses.

    Returns ``(graph, M, M′ edges, (14.0, 10.0, 26.0))``.
    """
    edges = [(0, 1), (1, 2), (2, 3), (4, 5), (6, 7)]
    weights = [7.0, 2.0, 7.0, 5.0, 7.0]
    g = Graph(8, edges, weights)
    m = Matching(g, [(1, 2), (4, 5), (6, 7)])
    mprime_edges = [(0, 1), (2, 3)]
    return g, m, mprime_edges, (14.0, 10.0, 26.0)
