"""Service-layer tests: the fuzz net, cache mechanics, batch API.

The headline property: *consistency survives cache loss*.  A tiny
``max_entries`` forces evictions constantly; interleaved point, edge,
and batch queries must keep returning exactly the oracle's answers no
matter what the cache dropped in between.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph, gnp_random
from repro.lca import BatchResult, MatchingService, random_greedy_matching


class TestServiceFuzz:
    @pytest.mark.parametrize("lca_seed", [0, 1, 7])
    @pytest.mark.parametrize("max_entries", [1, 2, 5])
    def test_interleaved_queries_survive_evictions(self, lca_seed, max_entries):
        g = gnp_random(40, 0.1, seed=11)
        oracle = random_greedy_matching(g, lca_seed)
        truth = oracle.mate_array()
        edges = g.edges()
        svc = MatchingService(g, lca_seed, max_entries=max_entries)
        rng = np.random.default_rng(1234 + lca_seed)
        for _ in range(400):
            op = rng.integers(4)
            if op == 0:
                v = int(rng.integers(g.n))
                assert svc.mate_of(v) == truth[v]
            elif op == 1:
                u, v = edges[int(rng.integers(len(edges)))]
                assert svc.edge_in_matching(u, v) == oracle.is_matched_edge(u, v)
            elif op == 2:
                u, v = (int(x) for x in rng.integers(g.n, size=2))
                if not g.has_edge(u, v):
                    assert svc.edge_in_matching(u, v) is False
            else:
                qs = []
                want = []
                for _ in range(int(rng.integers(1, 6))):
                    if rng.integers(2):
                        v = int(rng.integers(g.n))
                        qs.append(("mate", v))
                        want.append(int(truth[v]))
                    else:
                        u, v = edges[int(rng.integers(len(edges)))]
                        qs.append(("edge", u, v))
                        want.append(oracle.is_matched_edge(u, v))
                assert svc.batch(qs).answers == want
            assert len(svc._lru) <= max_entries
        # The cache actually cycled: far more queries than capacity.
        assert svc.stats.queries > 100 * max_entries or svc.stats.queries > 400

    def test_clear_cache_mid_stream_changes_nothing(self):
        g = gnp_random(30, 0.12, seed=5)
        truth = random_greedy_matching(g, 3).mate_array()
        svc = MatchingService(g, 3, max_entries=8)
        first = [svc.mate_of(v) for v in range(g.n)]
        svc.clear_cache()
        assert svc.cache_info()["entries"] == 0
        assert svc.cache_info()["edge_states"] == 0
        second = [svc.mate_of(v) for v in range(g.n)]
        assert first == second == truth.tolist()


class TestCacheMechanics:
    def test_eviction_releases_edge_states(self):
        g = gnp_random(60, 0.08, seed=2)
        svc = MatchingService(g, 0, max_entries=3)
        for v in range(g.n):
            svc.mate_of(v)
        info = svc.cache_info()
        assert info["entries"] <= 3
        # Every surviving edge state is owned by a surviving entry.
        owned = set()
        for entry in svc._lru.values():
            owned.update(entry.eids)
        assert set(svc._edge_states) == owned
        assert set(svc._edge_refs) == owned

    def test_max_entries_validated(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            MatchingService(g, 0, max_entries=0)

    def test_cache_disabled_never_stores(self):
        g = gnp_random(30, 0.1, seed=9)
        svc = MatchingService(g, 0, cache=False)
        for v in range(g.n):
            svc.mate_of(v)
        assert svc.cache_info()["entries"] == 0
        assert svc.stats.cache_hits == 0

    def test_cached_endpoint_answers_edge_query(self):
        g = Graph(3, [(0, 1), (1, 2)])
        svc = MatchingService(g, 0)
        mate0 = svc.mate_of(0)
        before = svc.stats.edges_probed
        assert svc.edge_in_matching(0, 1) == (mate0 == 1)
        assert svc.stats.edges_probed == before  # served from the LRU


class TestBatchApi:
    def test_empty_batch_returns_empty_result(self):
        """Regression (ExperimentResult-style guard): ``batch([])``
        must not raise from a zero-length NumPy reduction."""
        g = gnp_random(20, 0.15, seed=1)
        svc = MatchingService(g, 0)
        res = svc.batch([])
        assert isinstance(res, BatchResult)
        assert res.answers == []
        assert res.queries == 0
        assert res.edges_probed == 0
        assert res.mean_probes == 0.0
        assert res.max_depth == 0
        assert res.cache_hits == 0
        assert res.cache_hit_rate == 0.0

    def test_batch_stats_aggregate_per_query_counters(self):
        g = gnp_random(25, 0.15, seed=4)
        svc = MatchingService(g, 2, cache=False)
        res = svc.batch([("mate", v) for v in range(10)])
        assert res.queries == 10
        assert res.mean_probes == res.edges_probed / 10
        assert res.max_depth >= 0
        assert len(res.answers) == 10

    @pytest.mark.parametrize("query", [
        ("mates", 0), ("edge", 1), ("mate",), (), ("mate", 1, 2),
        ("edge", 0, 1, 2), "mate", 5,
    ])
    def test_batch_rejects_malformed_query(self, query):
        """An unknown op or a tuple of the wrong length is malformed (a
        wrong length used to raise a bare IndexError, or answer
        ``("mate", 1, 2)`` as ``("mate", 1)``), and no query of the
        batch is served."""
        svc = MatchingService(Graph(2, [(0, 1)]), 0)
        with pytest.raises(ValueError, match=r"query must be \('mate', v\)"):
            svc.batch([("mate", 0), query])
        assert svc.stats.queries == 0
        assert svc.cache_info()["entries"] == 0

    def test_batch_rejects_non_integer_vertex(self):
        svc = MatchingService(gnp_random(20, 0.2, seed=3), 0)
        with pytest.raises(TypeError, match="got 2.0"):
            svc.batch([("mate", 0), ("edge", 1, 2.0)])
        assert svc.stats.queries == 0

    @pytest.mark.parametrize("bad", [99, 20, -1])
    def test_batch_rejects_out_of_range_mate_before_serving(self, bad):
        """An out-of-range ``("mate", v)`` is found by the validation
        pass: the queries before it are neither served, counted nor
        cached (it used to raise only when served, after the first
        query had been answered and cached)."""
        svc = MatchingService(gnp_random(20, 0.2, seed=3), 0)
        with pytest.raises(
            IndexError, match=f"^vertex {bad} out of range for n=20$"
        ):
            svc.batch([("mate", 0), ("edge", 0, 1), ("mate", bad)])
        assert svc.stats.queries == 0
        assert svc.cache_info()["entries"] == 0
        assert svc.cache_info()["edge_states"] == 0

    def test_batch_edge_with_out_of_range_end_is_a_non_edge(self):
        svc = MatchingService(gnp_random(20, 0.2, seed=3), 0)
        res = svc.batch([("edge", 0, 99), ("edge", -1, 3), ("mate", 0)])
        assert res.answers[:2] == [False, False]
        assert res.queries == 3

    def test_batch_mixed_matches_point_queries(self):
        g = gnp_random(30, 0.12, seed=8)
        svc = MatchingService(g, 5, max_entries=2)
        ref = MatchingService(g, 5, cache=False)
        queries = [("mate", v) for v in range(g.n)] + [
            ("edge", u, v) for u, v in g.edges()[:20]
        ]
        got = svc.batch(queries).answers
        want = [ref.mate_of(v) for v in range(g.n)] + [
            ref.edge_in_matching(u, v) for u, v in g.edges()[:20]
        ]
        assert got == want


class TestVertexIds:
    """Point queries take integer vertex ids, whatever the cache holds."""

    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("warm", [True, False])
    def test_non_integer_vertex_raises_type_error(self, cache, warm):
        # A warm cache holds vertices 1 and 3: 1.0 hashes like 1, so
        # the LRU used to answer mate_of(1.0) while a cold or uncached
        # service failed inside a memoryview.
        svc = MatchingService(gnp_random(20, 0.2, seed=3), 0, cache=cache)
        if warm:
            svc.mate_of(1)
            svc.mate_of(3)
        for call, args in ((svc.mate_of, (1.0,)),
                           (svc.edge_in_matching, (0.5, 3)),
                           (svc.edge_in_matching, (3, "1")),
                           (svc.lca.mate_of, (1.0,)),
                           (svc.lca.edge_in_matching, (0.5, 3))):
            with pytest.raises(TypeError, match="must be an integer"):
                call(*args)

    def test_numpy_integers_still_work(self):
        g = gnp_random(20, 0.2, seed=3)
        ref = random_greedy_matching(g, 0).mate_array()
        for cache in (True, False):
            svc = MatchingService(g, 0, cache=cache)
            for v in range(g.n):
                assert svc.mate_of(np.int64(v)) == ref[v]
                assert svc.mate_of(np.int32(v)) == ref[v]
            u, w = g.edges()[0]
            assert svc.edge_in_matching(np.int64(u), np.uint16(w)) == (
                ref[u] == w
            )


class TestStatsExposure:
    def test_aggregate_stats_accumulate(self):
        from repro.distributed import LcaProbeStats

        g = gnp_random(30, 0.1, seed=3)
        svc = MatchingService(g, 1)
        for v in range(g.n):
            svc.mate_of(v)
        assert isinstance(svc.stats, LcaProbeStats)
        assert svc.stats.queries == g.n
        assert svc.stats.edges_probed > 0
        assert 0.0 <= svc.stats.cache_hit_rate <= 1.0

    def test_merge_and_mean(self):
        from repro.distributed import LcaProbeStats

        a = LcaProbeStats(queries=2, edges_probed=10, adjacency_scanned=30,
                          max_depth=3, cache_hits=1)
        b = LcaProbeStats(queries=1, edges_probed=5, adjacency_scanned=9,
                          max_depth=7, cache_hits=0)
        c = a.merge(b)
        assert c.queries == 3 and c.edges_probed == 15
        assert c.adjacency_scanned == 39
        assert c.max_depth == 7 and c.cache_hits == 1
        assert c.mean_probes == 5.0
        assert LcaProbeStats().mean_probes == 0.0
        assert LcaProbeStats().cache_hit_rate == 0.0
