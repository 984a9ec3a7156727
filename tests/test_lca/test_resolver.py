"""Contracts of the buffer-reading resolver in :mod:`repro.lca.lca`.

* **The (rank, eid) tie-break.**  Ranks are 64-bit hashes, so real
  collisions are too rare to test by sampling; these tests patch
  ``edge_ranks`` to heavily colliding arrays and check that the scan
  oracle, the rounds oracle and every LCA access path still agree.
* **Index dtypes.**  The resolver reads the CSR through memoryviews,
  whose item format follows the graph's index dtype; int32 and int64
  graphs must give identical answers and probe counts.
* **Exploration order.**  Aggregate :class:`LcaProbeStats` for a fixed
  graph and query stream are pinned to exact values, so a resolver
  rewrite that changes which edges it probes, or in which order, fails.
* **No O(m) Python structures.**  Point queries never build the
  graph's lazy edge-tuple list or edge-id dict.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lca.lca as lca_mod
import repro.lca.oracle as oracle_mod
from repro.graphs import Graph, gnp_random
from repro.graphs.graph import forced_index_dtype
from repro.lca import LcaMatching, MatchingService, random_greedy_matching

from tests.conftest import graphs

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def colliding_ranks(m: int, seed: int) -> np.ndarray:
    """Ranks drawn from {0, 1, 2}: almost every comparison is a tie."""
    return np.random.default_rng(seed).integers(0, 3, m).astype(np.uint64)


def zero_ranks(m: int, seed: int) -> np.ndarray:
    """Every rank equal: the order is the edge-id order alone."""
    return np.zeros(m, dtype=np.uint64)


@contextmanager
def patched_ranks(rank_fn):
    """Patch the rank source the oracles and the resolver read."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_mod, "edge_ranks", rank_fn)
        mp.setattr(lca_mod, "edge_ranks", rank_fn)
        yield


def induced(query_mate, g: Graph) -> list[int]:
    return [query_mate(v) for v in range(g.n)]


class TestForcedRankCollisions:
    @given(graphs(max_n=12), seeds)
    @settings(max_examples=60)
    def test_scan_rounds_and_lca_agree(self, g, seed):
        with patched_ranks(colliding_ranks):
            scan = random_greedy_matching(g, seed).mate_array().tolist()
            rounds = random_greedy_matching(g, seed, method="rounds")
            assert rounds.mate_array().tolist() == scan
            assert induced(LcaMatching(g, seed).mate_of, g) == scan
            svc = MatchingService(g, seed)
            assert induced(svc.mate_of, g) == scan
            for u, v in g.edges():
                want = scan[u] == v
                assert svc.edge_in_matching(u, v) == want
                assert svc.edge_in_matching(v, u) == want

    @given(graphs(max_n=12), seeds)
    @settings(max_examples=40)
    def test_all_ties_is_greedy_in_edge_id_order(self, g, seed):
        mate = [-1] * g.n
        for u, v in g.edges():
            if mate[u] == -1 and mate[v] == -1:
                mate[u], mate[v] = v, u
        with patched_ranks(zero_ranks):
            rounds = random_greedy_matching(g, seed, method="rounds")
            assert rounds.mate_array().tolist() == mate
            svc = MatchingService(g, seed)
            assert induced(svc.mate_of, g) == mate


def probe_stream(g: Graph, make):
    """A fixed mixed stream: 600 mate, 200 edge and some non-edge
    queries.  Returns the answers and the aggregate stats."""
    svc = make(g)
    mates = np.random.default_rng(5).integers(0, g.n, 600).tolist()
    edges = g.edges()
    picks = np.random.default_rng(6).integers(0, len(edges), 200).tolist()
    answers = [svc.mate_of(v) for v in mates]
    answers += [svc.edge_in_matching(*edges[i]) for i in picks]
    answers += [svc.edge_in_matching(0, v) for v in range(0, g.n, 7)]
    st_ = svc.stats
    stats = (st_.queries, st_.edges_probed, st_.adjacency_scanned,
             st_.max_depth)
    return answers, stats


def probe_graph() -> Graph:
    return gnp_random(400, 8 / 399, seed=21)


#: Aggregate (queries, edges_probed, adjacency_scanned, max_depth) of
#: ``probe_stream`` on ``probe_graph()`` under LCA seed 3.  The service
#: reports its resolver's counters, so both pin the same values.
PINNED = (858, 5595, 104897, 11)
SERVICES = {
    "resolver": lambda g: LcaMatching(g, 3),
    "service": lambda g: MatchingService(g, 3),
}


class TestExplorationOrder:
    @pytest.mark.parametrize("name", sorted(SERVICES))
    def test_aggregate_stats_pinned(self, name):
        g = probe_graph()
        answers, stats = probe_stream(g, SERVICES[name])
        assert stats == PINNED
        truth = random_greedy_matching(g, 3).mate_array()
        assert answers[:600] == truth[
            np.random.default_rng(5).integers(0, g.n, 600)
        ].tolist()


class TestIndexDtypes:
    @pytest.mark.parametrize("name", sorted(SERVICES))
    def test_int32_and_int64_identical(self, name):
        g32 = probe_graph()
        with forced_index_dtype(np.int64):
            g64 = probe_graph()
        assert g32.index_dtype == np.int32 and g64.index_dtype == np.int64
        assert g32.edges() == g64.edges()
        assert probe_stream(g32, SERVICES[name]) == probe_stream(
            g64, SERVICES[name]
        )

    @given(graphs(max_n=12), seeds)
    @settings(max_examples=40)
    def test_rounds_oracle_dtype_independent(self, g, seed):
        with forced_index_dtype(np.int64):
            g64 = Graph(g.n, g.edges())
        want = random_greedy_matching(g, seed).mate_array().tolist()
        got = random_greedy_matching(g64, seed, method="rounds")
        assert got.mate_array().tolist() == want


class TestNoScalarGraphCaches:
    def test_queries_build_no_edge_list_or_eid_map(self):
        g = gnp_random(300, 0.03, seed=4)
        lo, hi = (a.tolist() for a in g.endpoints_array())
        svc = MatchingService(g, 1)
        bare = LcaMatching(g, 1)
        for v in range(0, g.n, 3):
            svc.mate_of(v)
            bare.mate_of(v)
        for u, v in zip(lo[::5], hi[::5]):
            svc.edge_in_matching(v, u)
            bare.edge_in_matching(u, v)
        for u, v in ((0, 0), (-1, 3), (3, g.n), (g.n, g.n + 1), (1, 2)):
            bare.edge_in_matching(u, v)
        assert g._edges_list is None and g._eid_map is None

    def test_edge_queries_follow_has_edge(self):
        g = gnp_random(14, 0.3, seed=2)
        lca = LcaMatching(g, 9)
        truth = random_greedy_matching(g, 9).mate_array()
        # Negative ids must not wrap around to the last vertices.
        span = range(-g.n, 2 * g.n)
        for u in span:
            for v in span:
                want = g.has_edge(u, v) and truth[u] == v
                assert lca.edge_in_matching(u, v) is bool(want)
