"""Property net for the LCA layer: generated graphs × seeds × orders.

What the exhaustive net pins on tiny graphs, this net samples on
bigger ones: query-order independence, idempotence (a repeated query
returns the same answer at the same exploration cost),
maximality of the induced matching, the probe-accounting invariants
(probes per query bounded by the explored-neighborhood counter), and
the bit-identities the subsystem rests on (scalar rank == vectorized
rank, scan oracle == rounds oracle).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lca import (
    LcaMatching,
    MatchingService,
    edge_rank,
    edge_ranks,
    random_greedy_matching,
)
from repro.matching import Matching

from tests.conftest import graphs

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestRanks:
    @given(st.integers(min_value=0, max_value=300), seeds)
    def test_scalar_equals_vectorized(self, m, seed):
        vec = edge_ranks(m, seed)
        assert [int(x) for x in vec] == [edge_rank(e, seed) for e in range(m)]

    @given(seeds)
    def test_ranks_are_seed_stable(self, seed):
        assert np.array_equal(edge_ranks(64, seed), edge_ranks(64, seed))

    def test_negative_edge_count_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            edge_ranks(-1, 0)


class TestOracle:
    @given(graphs(max_n=14), seeds)
    @settings(max_examples=60)
    def test_scan_equals_rounds(self, g, seed):
        scan = random_greedy_matching(g, seed)
        rounds = random_greedy_matching(g, seed, method="rounds")
        assert scan.mate_array().tolist() == rounds.mate_array().tolist()

    @given(graphs(max_n=14), seeds)
    @settings(max_examples=40)
    def test_oracle_is_maximal(self, g, seed):
        assert random_greedy_matching(g, seed).is_maximal()

    def test_unknown_method_rejected(self):
        import pytest

        from repro.graphs import Graph

        with pytest.raises(ValueError):
            random_greedy_matching(Graph(2, [(0, 1)]), 0, method="magic")


class TestQueryProperties:
    @given(graphs(max_n=12), seeds, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_query_order_independence(self, g, seed, rnd):
        truth = random_greedy_matching(g, seed).mate_array()
        order = list(range(g.n))
        rnd.shuffle(order)
        svc = MatchingService(g, seed)
        got = np.full(g.n, -2, dtype=np.int64)
        for v in order:
            got[v] = svc.mate_of(v)
        assert np.array_equal(got, truth)

    @given(graphs(max_n=12), seeds)
    @settings(max_examples=60)
    def test_idempotent(self, g, seed):
        svc = MatchingService(g, seed)
        for v in range(g.n):
            first = svc.mate_of(v)
            st1 = svc.last_query_stats
            again = svc.mate_of(v)
            assert first == again
            # Stateless: the repeat explores exactly what the first did.
            assert svc.last_query_stats == st1

    @given(graphs(max_n=12), seeds)
    @settings(max_examples=60)
    def test_induced_matching_is_maximal(self, g, seed):
        svc = MatchingService(g, seed)
        mates = np.asarray([svc.mate_of(v) for v in range(g.n)], dtype=np.int64)
        m = Matching.from_mate_array(g, mates)  # also validates matching-ness
        assert m.is_maximal()

    @given(graphs(max_n=12), seeds)
    @settings(max_examples=60)
    def test_probe_accounting_invariants(self, g, seed):
        """Probes per query are bounded by the explored-neighborhood
        counter: every probed edge beyond the query root was discovered
        through a scanned adjacency slot, and the dependency chain can
        never be deeper than the number of probed edges."""
        lca = LcaMatching(g, seed)
        for v in range(g.n):
            lca.mate_of(v)
            q = lca.last_stats
            assert q.edges_probed <= q.adjacency_scanned + 1
            assert q.max_depth <= q.edges_probed
            assert q.edges_probed <= g.m
        agg = lca.stats
        assert agg.queries == g.n
        assert agg.mean_probes <= g.m

    @given(graphs(max_n=12), seeds)
    @settings(max_examples=40)
    def test_edge_queries_match_mate_queries(self, g, seed):
        svc = MatchingService(g, seed)
        bare = LcaMatching(g, seed)
        for u, v in g.edges():
            want = bare.mate_of(u) == v
            assert svc.edge_in_matching(u, v) == want
            assert svc.edge_in_matching(v, u) == want
