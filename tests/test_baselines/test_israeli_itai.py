"""Tests for Israeli–Itai randomized maximal matching (the ½ baseline)."""

import math

import pytest

from repro.baselines import israeli_itai_matching
from repro.baselines.israeli_itai import matching_from_mates
from repro.graphs import Graph, complete_graph, gnp_random, path_graph, star_graph
from repro.matching import maximum_matching_size


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(8))
    def test_maximal_on_random(self, seed):
        g = gnp_random(60, 0.1, seed=seed)
        m, _ = israeli_itai_matching(g, seed=seed)
        assert m.is_maximal()

    @pytest.mark.parametrize("seed", range(4))
    def test_half_approximation(self, seed):
        g = gnp_random(80, 0.06, seed=seed + 50)
        m, _ = israeli_itai_matching(g, seed=seed)
        assert 2 * len(m) >= maximum_matching_size(g)

    def test_star(self):
        m, _ = israeli_itai_matching(star_graph(10), seed=1)
        assert len(m) == 1

    def test_empty_graph(self):
        m, res = israeli_itai_matching(Graph(5), seed=1)
        assert len(m) == 0
        assert res.rounds == 0

    def test_single_edge(self):
        m, _ = israeli_itai_matching(path_graph(2), seed=3)
        assert len(m) == 1

    def test_complete_graph_perfect_or_near(self):
        m, _ = israeli_itai_matching(complete_graph(10), seed=2)
        assert len(m) == 5  # maximal in K_10 = perfect

    def test_determinism(self):
        g = gnp_random(40, 0.1, seed=9)
        a, _ = israeli_itai_matching(g, seed=4)
        b, _ = israeli_itai_matching(g, seed=4)
        assert a == b


class TestComplexity:
    def test_logarithmic_round_growth(self):
        """O(log n) phases w.h.p.: rounds shouldn't explode with n."""
        rounds = []
        for n in (50, 100, 200, 400):
            g = gnp_random(n, 8.0 / n, seed=n)
            _, res = israeli_itai_matching(g, seed=n)
            rounds.append(res.rounds)
        # Allow generous constant: 3 rounds/phase * c*log2(n).
        for n, r in zip((50, 100, 200, 400), rounds):
            assert r <= 3 * 8 * math.log2(n)

    def test_constant_message_size(self):
        g = gnp_random(200, 0.05, seed=1)
        _, res = israeli_itai_matching(g, seed=1)
        assert res.max_message_bits <= 8  # single-char tags


class TestArrayBackend:
    @pytest.mark.parametrize("seed", range(6))
    def test_maximal_matching_on_random(self, seed):
        g = gnp_random(60, 0.1, seed=seed)
        m, _ = israeli_itai_matching(g, seed=seed, backend="array")
        # Maximality: no edge with both endpoints free.
        mated = {v for e in m.edges() for v in e}
        for u, v in g.edges():
            assert u in mated or v in mated, (u, v)

    @pytest.mark.parametrize("seed", range(6))
    def test_backends_agree(self, seed):
        g = gnp_random(45, 0.12, seed=100 + seed)
        m_g, r_g = israeli_itai_matching(g, seed=seed)
        m_a, r_a = israeli_itai_matching(g, seed=seed, backend="array")
        assert sorted(m_g.edges()) == sorted(m_a.edges())
        assert r_g == r_a

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            israeli_itai_matching(path_graph(3), backend="quantum")


class TestMatchingFromMates:
    def test_asymmetric_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="asymmetric"):
            matching_from_mates(g, {0: 1, 1: 2, 2: 1})

    def test_unmatched_markers(self):
        g = path_graph(3)
        m = matching_from_mates(g, {0: 1, 1: 0, 2: -1})
        assert m.edges() == [(0, 1)]

    def test_none_treated_as_free(self):
        g = path_graph(2)
        m = matching_from_mates(g, {0: None, 1: -1})
        assert len(m) == 0

    def test_self_claim_rejected(self):
        # A node naming itself as its mate is broken, not free.
        g = path_graph(2)
        with pytest.raises(ValueError, match="own mate"):
            matching_from_mates(g, {0: 0, 1: -1})
