"""Unit + property tests for augmenting-path machinery (Lemmas 3.4/3.5)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graphs import Graph, cycle_graph, path_graph
from repro.matching import (
    Matching,
    apply_paths,
    augmenting_paths_maximal_set,
    find_augmenting_paths_upto,
    is_augmenting_path,
    maximum_matching_size,
    shortest_augmenting_path_length,
)

from tests.conftest import matchable


class TestIsAugmentingPath:
    def test_single_edge(self, p4):
        m = Matching(p4)
        assert is_augmenting_path(p4, m, [0, 1])

    def test_length_three(self, p4):
        m = Matching(p4, [(1, 2)])
        assert is_augmenting_path(p4, m, [0, 1, 2, 3])

    def test_matched_endpoint_rejected(self, p4):
        m = Matching(p4, [(0, 1)])
        assert not is_augmenting_path(p4, m, [1, 2])
        assert is_augmenting_path(p4, m, [2, 3])

    def test_even_length_rejected(self, p4):
        m = Matching(p4, [(1, 2)])
        assert not is_augmenting_path(p4, m, [0, 1, 2])

    def test_wrong_alternation_rejected(self, p4):
        m = Matching(p4)
        # (1,2) should be matched in an alternating path of length 3.
        assert not is_augmenting_path(p4, m, [0, 1, 2, 3])

    def test_non_edge_rejected(self, p4):
        m = Matching(p4)
        assert not is_augmenting_path(p4, m, [0, 2])

    def test_repeat_vertex_rejected(self, triangle):
        m = Matching(triangle)
        assert not is_augmenting_path(triangle, m, [0, 1, 0])


class TestEnumeration:
    def test_empty_matching_paths_are_edges(self, p4):
        m = Matching(p4)
        paths = find_augmenting_paths_upto(p4, m, 1)
        assert paths == [(0, 1), (1, 2), (2, 3)]

    def test_length3_path(self, p4):
        m = Matching(p4, [(1, 2)])
        assert find_augmenting_paths_upto(p4, m, 3) == [(0, 1, 2, 3)]

    def test_canonical_dedup(self):
        # A path enumerated from both endpoints appears once.
        g = path_graph(2)
        paths = find_augmenting_paths_upto(g, Matching(g), 1)
        assert paths == [(0, 1)]

    def test_respects_length_bound(self, p4):
        m = Matching(p4, [(1, 2)])
        assert find_augmenting_paths_upto(p4, m, 1) == []

    def test_perfect_matching_no_paths(self):
        g = path_graph(4)
        m = Matching(g, [(0, 1), (2, 3)])
        assert find_augmenting_paths_upto(g, m, 9) == []

    def test_odd_cycle(self, triangle):
        m = Matching(triangle, [(0, 1)])
        assert find_augmenting_paths_upto(triangle, m, 3) == []


class TestShortestLength:
    def test_bipartite_exact(self):
        g = path_graph(6)
        m = Matching(g, [(1, 2), (3, 4)])
        assert shortest_augmenting_path_length(g, m) == 5

    def test_none_when_maximum(self):
        g = path_graph(4)
        m = Matching(g, [(0, 1), (2, 3)])
        assert shortest_augmenting_path_length(g, m) is None

    def test_general_graph_bounded(self):
        g = cycle_graph(5)
        m = Matching(g, [(0, 1)])
        assert shortest_augmenting_path_length(g, m) == 1  # (2,3) or (3,4)

    def test_length_one_bipartite(self):
        g = path_graph(2)
        assert shortest_augmenting_path_length(g, Matching(g)) == 1


class TestMaximalSet:
    def test_maximality(self, small_random):
        m = Matching(small_random)
        chosen = augmenting_paths_maximal_set(small_random, m, 1)
        used = {v for p in chosen for v in p}
        for p in find_augmenting_paths_upto(small_random, m, 1):
            assert used.intersection(p), f"{p} disjoint from selection"

    def test_disjointness(self, small_random):
        m = Matching(small_random)
        chosen = augmenting_paths_maximal_set(small_random, m, 3)
        used = [v for p in chosen for v in p]
        assert len(used) == len(set(used))

    def test_rng_changes_selection_order(self, small_random):
        m = Matching(small_random)
        det = augmenting_paths_maximal_set(small_random, m, 1)
        rnd = augmenting_paths_maximal_set(
            small_random, m, 1, rng=np.random.default_rng(5)
        )
        # Both maximal, may differ; sizes can differ by at most factors.
        assert det and rnd


class TestApplyPaths:
    def test_apply_grows_matching(self, p4):
        m = Matching(p4, [(1, 2)])
        m2 = apply_paths(m, [(0, 1, 2, 3)])
        assert len(m2) == 2

    def test_conflicting_paths_rejected(self):
        g = path_graph(3)
        m = Matching(g)
        with pytest.raises(ValueError, match="conflict"):
            apply_paths(m, [(0, 1), (1, 2)])

    def test_non_augmenting_rejected(self, p4):
        m = Matching(p4)
        with pytest.raises(ValueError, match="not an augmenting path"):
            apply_paths(m, [(0, 1, 2, 3)])

    def test_empty_apply_identity(self, p4):
        m = Matching(p4, [(0, 1)])
        assert apply_paths(m, []) == m


class TestHKLemmas:
    """Empirical checks of the Hopcroft–Karp facts the paper relies on."""

    @given(matchable(max_n=10))
    @settings(max_examples=60)
    def test_lemma_35_bound(self, gm):
        """Lemma 3.5: shortest aug path 2k−1 ⟹ |M| ≥ (1−1/k)|M*|."""
        g, edges = gm
        m = Matching(g, edges)
        length = shortest_augmenting_path_length(g, m, upto=9)
        if length is None:
            return
        k = (length + 1) // 2
        opt = maximum_matching_size(g)
        assert len(m) >= (1 - 1 / k) * opt - 1e-9

    @given(matchable(max_n=10))
    @settings(max_examples=60)
    def test_lemma_34_phase_progress(self, gm):
        """Lemma 3.4: maximal shortest-length set strictly raises the
        shortest augmenting-path length."""
        g, edges = gm
        m = Matching(g, edges)
        length = shortest_augmenting_path_length(g, m, upto=7)
        if length is None:
            return
        chosen = augmenting_paths_maximal_set(g, m, length)
        m2 = apply_paths(m, chosen)
        new_len = shortest_augmenting_path_length(g, m2, upto=9)
        assert new_len is None or new_len > length
