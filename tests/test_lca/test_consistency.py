"""Exhaustive LCA-vs-oracle cross-check on *all* small graphs.

The acceptance bar of the serving layer: for every graph/seed cell,
the mapping induced by querying ``mate_of(v)`` for all ``v`` is
byte-identical to the global :func:`repro.lca.random_greedy_matching`
oracle, through the resolver and the service, under any query order.  Property
tests sample; these enumerate — every labelled graph on up to 5
vertices and every bipartite 3+3 graph (the same universes as
``tests/test_exhaustive.py``) goes through the full stack, so a
systematic disagreement on small structures (odd components, isolated
vertices, stars) cannot hide.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph
from repro.lca import LcaMatching, MatchingService, random_greedy_matching

from tests.test_exhaustive import all_bipartite, all_graphs

SEEDS = list(range(16))


def induced_map(query_mate, g: Graph) -> np.ndarray:
    """The global mapping assembled from point queries."""
    return np.asarray([query_mate(v) for v in range(g.n)], dtype=np.int64)


def check_cell(g: Graph, seed: int, *, edge_queries: bool = True) -> None:
    """One (graph, seed) cell of the net: both access paths agree."""
    oracle = random_greedy_matching(g, seed)
    truth = oracle.mate_array()

    lca = LcaMatching(g, seed)
    assert np.array_equal(induced_map(lca.mate_of, g), truth)

    svc = MatchingService(g, seed)
    assert np.array_equal(induced_map(svc.mate_of, g), truth)

    if edge_queries:
        for u, v in g.edges():
            want = oracle.is_matched_edge(u, v)
            assert lca.edge_in_matching(u, v) == want
            assert svc.edge_in_matching(u, v) == want


class TestAllGraphsUpTo4:
    """Every labelled graph on <= 4 vertices x 16 seeds, all paths."""

    def test_every_cell_agrees(self):
        for n in (0, 1, 2, 3, 4):
            for g in all_graphs(n):
                for seed in SEEDS:
                    check_cell(g, seed)

    def test_rounds_oracle_identical(self):
        for g in all_graphs(4):
            for seed in SEEDS:
                scan = random_greedy_matching(g, seed)
                rounds = random_greedy_matching(g, seed, method="rounds")
                assert scan.mate_array().tolist() == rounds.mate_array().tolist()


class TestAllGraphsOn5:
    """All 1024 graphs on 5 vertices x 16 seeds (mate map, both access
    paths); edge queries are covered exhaustively on <= 4 vertices."""

    def test_every_cell_agrees(self):
        for g in all_graphs(5):
            for seed in SEEDS:
                check_cell(g, seed, edge_queries=False)


class TestAllBipartite3x3:
    """All 512 bipartite 3+3 graphs x 16 seeds."""

    def test_every_cell_agrees(self):
        for g in all_bipartite(3, 3):
            for seed in SEEDS:
                check_cell(g, seed, edge_queries=False)


class TestQueryOrderAndMaximality:
    """Order independence + structural sanity of the induced mapping."""

    def test_reverse_and_shuffled_orders_identical(self):
        for g in all_graphs(4):
            for seed in (0, 1, 2):
                truth = random_greedy_matching(g, seed).mate_array()
                svc = MatchingService(g, seed)
                rev = np.asarray(
                    [svc.mate_of(v) for v in reversed(range(g.n))],
                    dtype=np.int64,
                )[::-1]
                assert np.array_equal(rev, truth)

    def test_induced_mapping_is_maximal_matching(self):
        from repro.matching import Matching

        for g in all_graphs(5):
            svc = MatchingService(g, seed=7)
            mates = induced_map(svc.mate_of, g)
            m = Matching.from_mate_array(g, mates)  # validates matching-ness
            assert m.is_maximal()

    def test_nonedge_queries_answer_false(self):
        g = Graph(4, [(0, 1), (2, 3)])
        svc = MatchingService(g, seed=0)
        assert svc.edge_in_matching(0, 2) is False
        assert svc.edge_in_matching(1, 3) is False
        with pytest.raises(IndexError):
            svc.lca.mate_of(4)
