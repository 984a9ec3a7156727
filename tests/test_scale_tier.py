"""Scale-tier coverage: dtypes and chunked build.

Two independently pinned contracts:

* **Compact index dtype.** ``Graph`` auto-selects int32 CSR arrays when
  ``n`` and ``2m`` fit, promotes to int64 otherwise, and refuses an
  explicit int32 request that cannot address the graph (the overflow
  guard).  The boundary is exercised by monkeypatching
  ``INT32_INDEX_LIMIT`` down to a small value rather than allocating
  2^31 slots.  Crucially, the tier must never change *behavior*: the
  whole golden suite is recomputed under :func:`forced_index_dtype`
  for both tiers and asserted byte-identical to the committed capture.
* **Chunked construction.** ``Graph.from_edge_chunks`` must build the
  same graph as the monolithic constructor from any chunking of the
  same edge stream, and surface the same validation errors (including
  out-of-range endpoints caught before the narrowing int32 cast).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.graphs.graph as graph_mod
from repro.baselines.luby_mis import luby_mis
from repro.core.generic_mcm import generic_mcm
from repro.graphs import Graph, barabasi_albert, cycle_graph, gnp_random
from repro.graphs.graph import (
    INT32_INDEX_LIMIT,
    forced_index_dtype,
    select_index_dtype,
)
from repro.graphs.weights import assign_uniform_weights
from repro.matching.augmenting import (
    apply_paths,
    apply_paths_array,
    augmenting_paths_maximal_set,
    find_augmenting_paths_upto,
)
from repro.matching.matching import Matching

from tests.conftest import assert_same_csr, graphs
from tests.golden_harness import GOLDEN_PATH, compute_goldens, to_canonical_json


class TestIndexDtypeSelection:
    def test_small_graph_is_int32(self):
        g = Graph(5, [(0, 1), (1, 2)])
        assert g.index_dtype == np.dtype(np.int32)
        indptr, indices, eids = g.adjacency_arrays()
        assert indptr.dtype == indices.dtype == eids.dtype == np.int32

    def test_select_index_dtype_helper(self):
        assert select_index_dtype(10, 5) == np.dtype(np.int32)
        assert select_index_dtype(INT32_INDEX_LIMIT + 1, 0) == np.dtype(np.int64)
        # 2m is the binding constraint for the half-edge arrays.
        assert select_index_dtype(10, INT32_INDEX_LIMIT) == np.dtype(np.int64)

    def test_explicit_int64_request_honored(self):
        g = Graph(5, [(0, 1)], index_dtype=np.int64)
        assert g.index_dtype == np.dtype(np.int64)

    def test_invalid_index_dtype_rejected(self):
        with pytest.raises(ValueError, match="int32 or int64"):
            Graph(5, [(0, 1)], index_dtype=np.int16)

    def test_promotion_past_n_boundary(self, monkeypatch):
        # With the limit pinned to 6: n=6 still fits int32, n=7 promotes.
        monkeypatch.setattr(graph_mod, "INT32_INDEX_LIMIT", 6)
        at = Graph(6, [(0, 5)])
        above = Graph(7, [(0, 5)])
        assert at.index_dtype == np.dtype(np.int32)
        assert above.index_dtype == np.dtype(np.int64)

    def test_promotion_past_half_edge_boundary(self, monkeypatch):
        # m=3 -> 2m=6 == limit fits; m=4 -> 2m=8 promotes, even though
        # n=6 alone would fit.
        monkeypatch.setattr(graph_mod, "INT32_INDEX_LIMIT", 6)
        at = Graph(6, [(0, 1), (2, 3), (4, 5)])
        above = Graph(6, [(0, 1), (2, 3), (4, 5), (0, 2)])
        assert at.index_dtype == np.dtype(np.int32)
        assert above.index_dtype == np.dtype(np.int64)

    def test_overflow_guard_regression(self, monkeypatch):
        """An explicit int32 request that cannot address the graph must
        raise, never silently wrap (the promotion path exists for it)."""
        monkeypatch.setattr(graph_mod, "INT32_INDEX_LIMIT", 6)
        with pytest.raises(ValueError, match="cannot address"):
            Graph(7, [(0, 5)], index_dtype=np.int32)
        with pytest.raises(ValueError, match="cannot address"):
            Graph(6, [(0, 1), (2, 3), (4, 5), (0, 2)], index_dtype=np.int32)

    def test_forced_dtype_hook_respects_overflow_guard(self, monkeypatch):
        monkeypatch.setattr(graph_mod, "INT32_INDEX_LIMIT", 6)
        with forced_index_dtype(np.int32):
            with pytest.raises(ValueError, match="cannot address"):
                Graph(7, [(0, 5)])

    def test_promoted_graph_same_results(self, monkeypatch):
        """Identical Luby run across the promotion threshold."""
        g32 = barabasi_albert(30, 2, seed=2)
        monkeypatch.setattr(graph_mod, "INT32_INDEX_LIMIT", 10)
        g64 = barabasi_albert(30, 2, seed=2)
        assert g32.index_dtype == np.dtype(np.int32)
        assert g64.index_dtype == np.dtype(np.int64)
        assert g32.edges() == g64.edges()
        for backend in ("generator", "array"):
            mis32, res32 = luby_mis(g32, seed=5, backend=backend)
            mis64, res64 = luby_mis(g64, seed=5, backend=backend)
            assert mis32 == mis64
            assert res32 == res64

    def test_derived_graphs_keep_tier(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)], index_dtype=np.int64)
        assert g.unweighted().index_dtype == np.dtype(np.int64)
        assert g.with_weights([1.0, 2.0, 3.0]).index_dtype == np.dtype(np.int64)


class TestDtypeGoldenIdentity:
    """The acceptance pin: both tiers reproduce the committed goldens."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_golden_suite_byte_identical(self, dtype):
        with forced_index_dtype(dtype):
            snapshot = compute_goldens()
        assert to_canonical_json(snapshot) + "\n" == GOLDEN_PATH.read_text()


class TestFromEdgeChunks:
    @pytest.mark.parametrize("chunk_size", [1, 2, 7, 1000])
    def test_matches_monolithic_construction(self, chunk_size):
        g_ref = gnp_random(26, 0.3, seed=4)
        earr = np.array(g_ref.edges(), dtype=np.int64)
        chunks = [
            earr[s: s + chunk_size] for s in range(0, len(earr), chunk_size)
        ]
        g = Graph.from_edge_chunks(26, chunks)
        assert g.n == g_ref.n and g.m == g_ref.m
        assert g.edges() == g_ref.edges()
        assert g.index_dtype == g_ref.index_dtype
        for v in range(g.n):
            assert g.neighbors(v) == g_ref.neighbors(v)

    def test_accepts_generator_input(self):
        def chunks():
            yield np.array([[0, 1]], dtype=np.int32)
            yield np.empty((0, 2), dtype=np.int32)
            yield np.array([[2, 3], [1, 2]], dtype=np.int64)

        g = Graph.from_edge_chunks(5, chunks())
        assert g.edges() == [(0, 1), (2, 3), (1, 2)]

    def test_no_chunks_empty_graph(self):
        g = Graph.from_edge_chunks(4, [])
        assert g.n == 4 and g.m == 0

    def test_weight_chunks_align(self):
        g = Graph.from_edge_chunks(
            5,
            [np.array([[0, 1]]), np.array([[2, 3]])],
            weight_chunks=[np.array([1.5]), np.array([2.5])],
        )
        assert g.weight(0, 1) == 1.5 and g.weight(2, 3) == 2.5

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            Graph.from_edge_chunks(4, [np.zeros((2, 3), dtype=np.int64)])

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError, match="integers"):
            Graph.from_edge_chunks(4, [np.zeros((1, 2), dtype=np.float64)])

    def test_out_of_range_caught_before_narrowing(self):
        # An int64 endpoint beyond int32 must error, not wrap into range.
        big = np.array([[0, 2**40]], dtype=np.int64)
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edge_chunks(4, [big])
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edge_chunks(4, [np.array([[0, -1]], dtype=np.int64)])

    @pytest.mark.parametrize("tier", [np.int32, np.int64])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 5), min_size=1, max_size=12))
    def test_many_small_chunks_match_the_stable_argsort(self, tier, seed,
                                                        sizes):
        """Shuffled, randomly oriented edges in ragged mixed-dtype chunks."""
        rng = np.random.default_rng(seed)
        earr = rng.permutation(np.array(gnp_random(40, 0.15, seed=1).edges()))
        flip = rng.random(len(earr)) < 0.5
        earr[flip] = earr[flip][:, ::-1]
        chunks, s, i = [], 0, 0
        while s < len(earr):
            k = sizes[i % len(sizes)]
            dt = (np.int32, np.int64)[i % 2]
            chunks += [earr[s: s + k].astype(dt), np.empty((0, 2), dtype=dt)]
            s, i = s + k, i + 1
        g = Graph.from_edge_chunks(40, iter(chunks), index_dtype=tier)
        assert g.index_dtype == np.dtype(tier)
        assert_same_csr(g, earr)

    def test_duplicate_across_chunks_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edge_chunks(
                4, [np.array([[0, 1]]), np.array([[1, 0]])]
            )


class TestPackedBuildAtScale:
    """The packed-key CSR equals the stable-argsort build on both tiers."""

    @pytest.mark.parametrize("tier", [np.int32, np.int64])
    def test_streamed_gnp(self, tier):
        with forced_index_dtype(tier):
            g = gnp_random(20_000, 8 / 19_999, seed=3)
        assert g.index_dtype == np.dtype(tier)
        assert_same_csr(g)

    def test_promoted_tier_and_fallback(self, monkeypatch):
        # Past INT32_INDEX_LIMIT the graph promotes to int64; past
        # PACKED_KEY_LIMIT it falls back to the stable argsort.
        ref = gnp_random(300, 0.05, seed=2)
        edges = np.stack(ref.endpoints_array(), axis=1)
        monkeypatch.setattr(graph_mod, "INT32_INDEX_LIMIT", 100)
        g = Graph(300, edges)
        assert g.index_dtype == np.dtype(np.int64)
        assert_same_csr(g, edges)
        monkeypatch.setattr(graph_mod, "PACKED_KEY_LIMIT", 100)
        g = Graph.from_edge_chunks(300, [edges[:50], edges[50:]])
        assert g.index_dtype == np.dtype(np.int64)
        assert_same_csr(g, edges)


class TestEdgeIdsArray:
    def test_matches_edge_id(self):
        g = gnp_random(20, 0.25, seed=6)
        lo, hi = g.endpoints_array()
        # Every real edge, both orientations.
        ids = g.edge_ids_array(hi, lo)
        assert ids.tolist() == list(range(g.m))
        # Non-edges -> -1.
        uu, vv = np.meshgrid(np.arange(g.n), np.arange(g.n))
        uu, vv = uu.ravel(), vv.ravel()
        got = g.edge_ids_array(uu, vv)
        for u, v, eid in zip(uu.tolist(), vv.tolist(), got.tolist()):
            expect = g.edge_id(u, v) if g.has_edge(u, v) else -1
            assert eid == expect

    def test_empty_graph(self):
        g = Graph(3)
        assert g.edge_ids_array(
            np.array([0, 1]), np.array([1, 2])
        ).tolist() == [-1, -1]


class TestApplyPathsArray:
    def test_matches_apply_paths_on_mis_selection(self):
        for seed in (0, 3):
            g = gnp_random(18, 0.3, seed=seed)
            m = Matching(g)
            for max_len in (1, 3):
                paths = augmenting_paths_maximal_set(g, m, max_len)
                ref = apply_paths(m, paths)
                got = apply_paths_array(m, paths)
                assert sorted(got.edges()) == sorted(ref.edges())
                m = got

    def test_empty_is_copy(self):
        g = cycle_graph(6)
        m = Matching(g, [(0, 1)])
        got = apply_paths_array(m, [])
        assert got == m and got is not m

    @pytest.mark.parametrize(
        "paths, match",
        [
            ([(0, 1, 2)], "not an augmenting path"),  # odd length
            ([(0,)], "not an augmenting path"),  # too short
            ([(0, 1), (1, 2)], "conflict"),  # cross-path overlap
            ([(0, 3)], "not an augmenting path"),  # non-edge
            ([(9, 1)], "not an augmenting path"),  # out of range
            ([(0, 1, 1, 2)], "not an augmenting path"),  # non-simple
        ],
    )
    def test_invalid_paths_rejected(self, paths, match):
        g = Graph(9, [(0, 1), (1, 2), (2, 3)])
        m = Matching(g)
        with pytest.raises(ValueError, match=match):
            apply_paths_array(m, paths)

    def test_matched_endpoint_rejected(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        m = Matching(g, [(0, 1)])
        with pytest.raises(ValueError, match="not an augmenting path"):
            apply_paths_array(m, [(1, 2)])

    def test_bad_alternation_rejected(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        m = Matching(g, [(1, 2)])
        # (0, 1, 2, 3) alternates correctly; (0, 1) does not (edge 0-1
        # is unmatched but endpoint 1 is matched).
        ok = apply_paths_array(m, [(0, 1, 2, 3)])
        assert sorted(ok.edges()) == [(0, 1), (2, 3)]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_property_equivalence(self, data):
        g = data.draw(graphs(max_n=10))
        m = Matching(g)
        paths = augmenting_paths_maximal_set(g, m, 3)
        assert sorted(apply_paths_array(m, paths).edges()) == sorted(
            apply_paths(m, paths).edges()
        )


class TestKeepViews:
    @pytest.mark.parametrize("backend", ["generator", "array"])
    def test_same_run_without_views(self, backend):
        g = gnp_random(16, 0.25, seed=2)
        m_ref, st_ref = generic_mcm(g, k=2, seed=3, backend=backend)
        m_got, st_got = generic_mcm(
            g, k=2, seed=3, backend=backend, keep_views=False
        )
        assert sorted(m_got.edges()) == sorted(m_ref.edges())
        # The flood outputs are deliberately not materialized; every
        # accounting counter must still match the keep_views run.
        for field in (
            "rounds",
            "charged_rounds",
            "total_messages",
            "total_bits",
            "max_message_bits",
        ):
            assert getattr(st_got.result, field) == getattr(st_ref.result, field)
        assert set(st_got.result.outputs.values()) <= {None}
        assert st_got.views == {}
        assert st_got.conflict_sizes == st_ref.conflict_sizes
        assert st_got.mis_sizes == st_ref.mis_sizes
