"""Service-layer tests: the fuzz net, batch API, vertex ids, stats.

The headline property: interleaved point, edge and batch queries keep
returning exactly the oracle's answers, whatever was asked before.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph, gnp_random
from repro.lca import (
    BatchResult,
    LcaMatching,
    MatchingService,
    random_greedy_matching,
)


class TestServiceFuzz:
    @pytest.mark.parametrize("lca_seed", [0, 1, 7])
    def test_interleaved_queries_match_oracle(self, lca_seed):
        g = gnp_random(40, 0.1, seed=11)
        oracle = random_greedy_matching(g, lca_seed)
        truth = oracle.mate_array()
        edges = g.edges()
        svc = MatchingService(g, lca_seed)
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

    def test_batch_stats_aggregate_per_query_counters(self):
        g = gnp_random(25, 0.15, seed=4)
        svc = MatchingService(g, 2)
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

    def test_batch_rejects_non_integer_vertex(self):
        svc = MatchingService(gnp_random(20, 0.2, seed=3), 0)
        with pytest.raises(TypeError, match="got 2.0"):
            svc.batch([("mate", 0), ("edge", 1, 2.0)])
        assert svc.stats.queries == 0

    @pytest.mark.parametrize("bad", [99, 20, -1])
    def test_batch_rejects_out_of_range_mate_before_serving(self, bad):
        """An out-of-range ``("mate", v)`` is found by the validation
        pass: the queries before it are neither served nor counted (it
        used to raise only when served, after the first query had been
        answered)."""
        svc = MatchingService(gnp_random(20, 0.2, seed=3), 0)
        with pytest.raises(
            IndexError, match=f"^vertex {bad} out of range for n=20$"
        ):
            svc.batch([("mate", 0), ("edge", 0, 1), ("mate", bad)])
        assert svc.stats.queries == 0

    def test_batch_edge_with_out_of_range_end_is_a_non_edge(self):
        svc = MatchingService(gnp_random(20, 0.2, seed=3), 0)
        res = svc.batch([("edge", 0, 99), ("edge", -1, 3), ("mate", 0)])
        assert res.answers[:2] == [False, False]
        assert res.queries == 3

    def test_batch_mixed_matches_point_queries(self):
        g = gnp_random(30, 0.12, seed=8)
        svc = MatchingService(g, 5)
        ref = LcaMatching(g, 5)
        queries = [("mate", v) for v in range(g.n)] + [
            ("edge", u, v) for u, v in g.edges()[:20]
        ]
        got = svc.batch(queries).answers
        want = [ref.mate_of(v) for v in range(g.n)] + [
            ref.edge_in_matching(u, v) for u, v in g.edges()[:20]
        ]
        assert got == want


class TestVertexIds:
    """Point queries take integer vertex ids, whatever was asked before."""

    def test_non_integer_vertex_raises_type_error(self):
        svc = MatchingService(gnp_random(20, 0.2, seed=3), 0)
        svc.mate_of(1)
        svc.mate_of(3)
        for call, args in ((svc.mate_of, (1.0,)),
                           (svc.edge_in_matching, (0.5, 3)),
                           (svc.edge_in_matching, (3, "1")),
                           (svc.lca.mate_of, (1.0,)),
                           (svc.lca.edge_in_matching, (0.5, 3))):
            with pytest.raises(TypeError, match="must be an integer"):
                call(*args)

    @pytest.mark.parametrize("query", [
        lambda s: s.mate_of(True),
        lambda s: s.mate_of(np.True_),
        lambda s: s.edge_in_matching(False, True),
        lambda s: s.edge_in_matching(0, True),
        lambda s: s.lca.mate_of(True),
        lambda s: s.lca.edge_in_matching(True, 2),
        lambda s: s.batch([("mate", 0), ("mate", True)]),
        lambda s: s.batch([("edge", 0, 1), ("edge", False, 1)]),
    ], ids=["mate", "numpy-mate", "edge", "edge-end", "lca-mate",
            "lca-edge", "batch-mate", "batch-edge"])
    def test_bool_is_not_a_vertex_id(self, query):
        # True used to answer for vertex 1 and False for vertex 0, while
        # NumPy's bool already raised.
        svc = MatchingService(Graph(3, [(0, 1), (1, 2)]), 0)
        with pytest.raises(TypeError, match="must be an integer, got"):
            query(svc)
        assert svc.stats.queries == 0

    def test_numpy_integers_still_work(self):
        g = gnp_random(20, 0.2, seed=3)
        ref = random_greedy_matching(g, 0).mate_array()
        svc = MatchingService(g, 0)
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

    def test_service_counters_are_the_resolvers(self):
        """The service is ``(graph, seed)`` and its resolver: no knob, no
        second copy of the counters."""
        g = gnp_random(30, 0.1, seed=3)
        with pytest.raises(TypeError):
            MatchingService(g, 0, max_entries=8)
        svc = MatchingService(g, 0)
        assert svc.last_query_stats is None
        svc.mate_of(4)
        svc.edge_in_matching(*g.edges()[0])
        assert svc.stats is svc.lca.stats and svc.stats.queries == 2
        assert svc.last_query_stats is svc.lca.last_stats

    def test_merge_and_mean(self):
        from repro.distributed import LcaProbeStats

        a = LcaProbeStats(queries=2, edges_probed=10, adjacency_scanned=30,
                          max_depth=3)
        b = LcaProbeStats(queries=1, edges_probed=5, adjacency_scanned=9,
                          max_depth=7)
        c = a.merge(b)
        assert c.queries == 3 and c.edges_probed == 15
        assert c.adjacency_scanned == 39
        assert c.max_depth == 7
        assert c.mean_probes == 5.0
        assert LcaProbeStats().mean_probes == 0.0
        assert LcaProbeStats().cache_hit_rate == 0.0
