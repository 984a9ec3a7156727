"""Tests for the exact algorithms: Hopcroft–Karp, blossom, exact MWM.

These are the oracles every approximation claim is measured against,
so they get the heaviest cross-validation: HK vs blossom vs networkx on
random instances, bitmask DP vs weighted blossom, plus structured cases
with known answers.
"""

import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from repro.graphs import (
    Graph,
    bipartite_random,
    complete_graph,
    crown_graph,
    cycle_graph,
    gnp_random,
    path_graph,
    star_graph,
)
from repro.graphs.weights import assign_uniform_weights
from repro.matching import (
    Matching,
    exact_mwm_small,
    hopcroft_karp,
    hopcroft_karp_truncated,
    max_weight_matching,
    maximum_matching_blossom,
    maximum_matching_size,
    maximum_matching_weight,
    shortest_augmenting_path_length,
)

from tests.conftest import bipartite_graphs, graphs


def nx_matching_size(g: Graph) -> int:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return len(nx.max_weight_matching(h, maxcardinality=True))


class TestHopcroftKarp:
    def test_perfect_on_even_path(self):
        assert len(hopcroft_karp(path_graph(6))) == 3

    def test_star_is_one(self):
        assert len(hopcroft_karp(star_graph(8))) == 1

    def test_crown_has_perfect_matching(self):
        g, xs, _ = crown_graph(5)
        assert len(hopcroft_karp(g, xs)) == 5

    def test_empty_graph(self):
        assert len(hopcroft_karp(Graph(4))) == 0

    def test_non_bipartite_rejected(self, triangle):
        with pytest.raises(ValueError, match="not bipartite"):
            hopcroft_karp(triangle)

    def test_explicit_side(self):
        g, xs, _ = bipartite_random(10, 12, 0.3, seed=1)
        assert len(hopcroft_karp(g, xs)) == len(hopcroft_karp(g))

    @given(bipartite_graphs())
    @settings(max_examples=80)
    def test_matches_networkx(self, gxy):
        g, xs, _ = gxy
        assert len(hopcroft_karp(g, xs)) == nx_matching_size(g)

    @pytest.mark.parametrize("truncated", [False, True])
    @pytest.mark.parametrize(
        "xs, error",
        [
            ([1], "edge \\(2, 3\\) has both ends outside xs"),
            ([0, 1], "edge \\(0, 1\\) has both ends inside xs"),
            ([7], "xs names vertex 7, outside 0..3"),
            ([-1], "xs names vertex -1, outside 0..3"),
            ([0, 2, 0], "xs repeats vertex 0"),
        ],
    )
    def test_bad_side_rejected(self, xs, error, truncated):
        g = path_graph(4)  # 0-1-2-3
        with pytest.raises(ValueError, match=error):
            if truncated:
                hopcroft_karp_truncated(g, 2, xs)
            else:
                hopcroft_karp(g, xs)

    def test_side_of_non_bipartite_graph_rejected(self, triangle):
        with pytest.raises(ValueError, match="both ends outside xs"):
            hopcroft_karp(triangle, [0])

    def test_long_augmenting_path_keeps_recursion_limit(self):
        # The path 0-1-...-(n-1), edges listed from the far end, so each
        # odd vertex's port order names its right neighbour first: the
        # first phase matches 2i+1 to 2i+2 and leaves one augmenting
        # path through all n vertices for the second phase's DFS.
        n = 400_000
        edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])[::-1]
        g = Graph(n, edges)
        before = sys.getrecursionlimit()
        m = hopcroft_karp(g, list(range(1, n, 2)))
        assert sys.getrecursionlimit() == before
        assert len(m) == n // 2


class TestHopcroftKarpTruncated:
    def test_k1_is_maximal(self):
        g, xs, _ = bipartite_random(15, 15, 0.2, seed=3)
        m = hopcroft_karp_truncated(g, 1, xs)
        assert m.is_maximal()

    def test_guarantee_every_k(self):
        for k in (1, 2, 3, 4):
            for seed in range(5):
                g, xs, _ = bipartite_random(12, 12, 0.25, seed=seed)
                m = hopcroft_karp_truncated(g, k, xs)
                opt = len(hopcroft_karp(g, xs))
                assert len(m) >= (1 - 1 / k) * opt - 1e-9

    def test_post_condition_no_short_paths(self):
        for seed in range(5):
            g, xs, _ = bipartite_random(12, 12, 0.25, seed=seed)
            k = 2
            m = hopcroft_karp_truncated(g, k, xs)
            length = shortest_augmenting_path_length(g, m)
            assert length is None or length > 2 * k - 1

    def test_invalid_k(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            hopcroft_karp_truncated(g, 0)

    def test_large_k_equals_exact(self):
        g, xs, _ = bipartite_random(10, 10, 0.3, seed=4)
        assert len(hopcroft_karp_truncated(g, 50, xs)) == len(hopcroft_karp(g, xs))


class TestBlossom:
    def test_odd_cycle(self):
        assert len(maximum_matching_blossom(cycle_graph(5))) == 2

    def test_even_cycle_perfect(self):
        assert len(maximum_matching_blossom(cycle_graph(6))) == 3

    def test_complete_graph(self):
        assert len(maximum_matching_blossom(complete_graph(7))) == 3

    def test_petersen_like_blossoms(self):
        # Two triangles joined by a bridge: needs blossom handling.
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
        assert len(maximum_matching_blossom(g)) == 3

    def test_empty(self):
        assert len(maximum_matching_blossom(Graph(5))) == 0

    @given(graphs(max_n=11))
    @settings(max_examples=80)
    def test_matches_networkx(self, g):
        assert len(maximum_matching_blossom(g)) == nx_matching_size(g)

    def test_agrees_with_hk_on_bipartite(self):
        for seed in range(6):
            g, xs, _ = bipartite_random(10, 10, 0.3, seed=seed)
            assert len(maximum_matching_blossom(g)) == len(hopcroft_karp(g, xs))

    def test_medium_random(self):
        g = gnp_random(60, 0.08, seed=5)
        assert len(maximum_matching_blossom(g)) == nx_matching_size(g)


class TestExactMwmSmall:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)], [5.0])
        assert exact_mwm_small(g).weight() == 5.0

    def test_path_picks_heavier_disjoint(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [3.0, 5.0, 3.0])
        # (0,1)+(2,3)=6 beats the middle edge 5.
        m = exact_mwm_small(g)
        assert m.weight() == 6.0

    def test_heavy_middle_wins(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [1.0, 5.0, 1.0])
        assert exact_mwm_small(g).weight() == 5.0

    def test_too_large_rejected(self):
        g = Graph(23)
        with pytest.raises(ValueError):
            exact_mwm_small(g)

    def test_unweighted_equals_mcm(self):
        g = gnp_random(12, 0.3, seed=6)
        assert len(exact_mwm_small(g)) == maximum_matching_size(g)

    @given(graphs(max_n=9, weighted=True))
    @settings(max_examples=50, deadline=None)
    def test_matches_networkx_weighted(self, g):
        ours = exact_mwm_small(g).weight()
        theirs = max_weight_matching(g).weight()
        assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-9)


class TestOracles:
    def test_maximum_matching_size_dispatch(self):
        g, xs, _ = bipartite_random(8, 8, 0.4, seed=7)
        assert maximum_matching_size(g) == len(hopcroft_karp(g, xs))
        t = cycle_graph(5)
        assert maximum_matching_size(t) == 2

    def test_maximum_matching_weight_unweighted(self):
        g = path_graph(4)
        assert maximum_matching_weight(g) == 2.0

    def test_maximum_matching_weight_small_uses_dp(self):
        g = assign_uniform_weights(gnp_random(10, 0.4, seed=8), seed=9)
        assert maximum_matching_weight(g) == pytest.approx(
            exact_mwm_small(g).weight()
        )

    def test_maximum_matching_weight_large_uses_networkx(self):
        g = assign_uniform_weights(gnp_random(40, 0.1, seed=10), seed=11)
        assert maximum_matching_weight(g) == pytest.approx(
            max_weight_matching(g).weight()
        )
