"""Unit tests for the Graph data structure."""

import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.graph as graph_mod
from repro.graphs import Graph
from repro.graphs.graph import forced_index_dtype

from tests.conftest import graphs


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.m == 0
        assert g.max_degree() == 0

    def test_vertices_range(self):
        g = Graph(5)
        assert list(g.vertices()) == [0, 1, 2, 3, 4]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Graph(-1)

    @pytest.mark.parametrize("n", [2**63, 10**20])
    @pytest.mark.parametrize("edges", [(), [(0, 1)]])
    def test_n_beyond_int64_rejected_before_numpy(self, n, edges):
        # A NumPy dimension error, or an OverflowError from the edge-key
        # check, used to stand in for a named error.
        with pytest.raises(ValueError, match=f"vertex count {n} exceeds"):
            Graph(n, edges)

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_huge_n_reports_no_false_duplicate(self):
        # The lo*n+hi duplicate key wrapped in int64 above n=3037000499,
        # so (4, 5) keyed like (0, 5).  NumPy now refuses the CSR by
        # size, before anything is allocated.
        with pytest.raises(ValueError) as exc:
            Graph(2**62, [(0, 5), (4, 5)])
        assert "duplicate" not in str(exc.value)

    @pytest.mark.parametrize("edges,dup", [
        ([(0, 5), (5, 0)], "(5,0)"),
        ([(1, 2), (3, 4), (2, 1)], "(2,1)"),
        ([(1, 2), (3, 4), (4, 3), (2, 1)], "(4,3)"),
    ])
    def test_huge_n_still_names_first_duplicate(self, edges, dup):
        with pytest.raises(ValueError, match=re.escape(f"duplicate edge {dup}")):
            Graph(2**62, edges)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5))
                    .filter(lambda e: e[0] != e[1]), min_size=1, max_size=12))
    def test_pair_sort_names_the_same_duplicate(self, edges):
        """The pair sort used above the key bound reports exactly what
        the flat key reports below it."""
        def error(key_max_n):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graph_mod, "_EDGE_KEY_MAX_N", key_max_n)
                try:
                    Graph(6, edges)
                except ValueError as e:
                    return str(e)
            return None

        assert error(0) == error(graph_mod._EDGE_KEY_MAX_N)

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            Graph(3, [(0, 1)], [1.0, 2.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            Graph(3, [(0, 1)], [0.0])

    @pytest.mark.parametrize("w", [float("nan"), float("inf")])
    def test_nonfinite_weight_rejected(self, w):
        # NaN fails every comparison, so it once slipped past ``w <= 0``.
        with pytest.raises(ValueError, match=r"edge \(0,1\) has non-positive"):
            Graph(2, [(0, 1)], [w])
        g = Graph(2, [(0, 1)], [1.0])
        with pytest.raises(ValueError, match="non-finite"):
            g.with_weights([w])
        with pytest.raises(ValueError, match="non-finite"):
            Graph.from_edge_chunks(2, [np.array([[0, 1]])], [np.array([w])])

    def test_edges_normalized_to_sorted_pairs(self):
        g = Graph(3, [(2, 0), (1, 2)])
        assert g.edges() == [(0, 2), (1, 2)]


class TestQueries:
    def test_neighbors_port_order(self):
        g = Graph(4, [(0, 2), (0, 1), (0, 3)])
        assert g.neighbors(0) == (2, 1, 3)  # insertion order = ports

    def test_incident_gives_edge_ids(self):
        g = Graph(3, [(0, 1), (0, 2)])
        assert g.incident(0) == ((1, 0), (2, 1))

    def test_degree_and_max_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1
        assert g.max_degree() == 3

    def test_edge_id_symmetric(self):
        g = Graph(3, [(1, 2)])
        assert g.edge_id(1, 2) == g.edge_id(2, 1) == 0

    def test_edge_id_missing_raises(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(KeyError):
            g.edge_id(0, 2)

    def test_has_edge(self):
        g = Graph(3, [(0, 1)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_out_of_range_queries_never_alias_real_edges(self):
        # Regression: the flat u*n+v key must not collide for vertices
        # outside [0, n): (0, 7) would hash like (1, 2) on n=5.
        g = Graph(5, [(1, 2)])
        assert not g.has_edge(0, 7)
        assert not g.has_edge(-1, 4)
        with pytest.raises(KeyError):
            g.edge_id(0, 7)

    def test_float_edge_endpoints_rejected(self):
        with pytest.raises(TypeError, match="integers"):
            Graph(3, [(0.9, 1.2)])
        with pytest.raises(TypeError, match="integers"):
            Graph(3, np.array([[0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [2**63, 2**64, -(2**63) - 1, 10**20])
    def test_endpoint_outside_int64_is_out_of_range(self, bad):
        """An integer endpoint no int64 can hold is out of range, not a
        type error (it used to read "got dtype float64/object")."""
        msg = f"endpoint {bad} out of range for n=3"
        with pytest.raises(ValueError, match=msg):
            Graph(3, [(0, 1), (0, bad)])
        with pytest.raises(ValueError, match=msg):
            Graph(3, np.array([[0, bad]], dtype=object))
        with pytest.raises(ValueError, match=msg):
            Graph.from_edge_chunks(3, [np.array([[0, bad]], dtype=object)])

    def test_uint64_endpoint_outside_int64_is_not_wrapped(self):
        arr = np.array([[0, 2**63 + 1]], dtype=np.uint64)
        with pytest.raises(ValueError, match=f"endpoint {2**63 + 1} out of"):
            Graph(3, arr)

    def test_unweighted_weight_is_one(self):
        g = Graph(2, [(0, 1)])
        assert g.weight(0, 1) == 1.0
        assert not g.weighted

    def test_weighted_lookup(self):
        g = Graph(3, [(0, 1), (1, 2)], [2.5, 7.0])
        assert g.weighted
        assert g.weight(1, 0) == 2.5
        assert g.edge_weight(1) == 7.0
        assert g.total_weight() == 9.5

    def test_total_weight_unweighted_counts_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.total_weight() == 2.0


class TestBulkAccessors:
    """The CSR array surface added by the ISSUE 2 refactor."""

    def test_array_edge_input(self):
        g = Graph(3, np.array([[2, 0], [1, 2]]))
        assert g.edges() == [(0, 2), (1, 2)]

    def test_degrees_matches_scalar_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
        assert g.degrees().tolist() == [g.degree(v) for v in range(4)]

    def test_endpoints_array_aligned_with_edges(self):
        g = Graph(4, [(3, 0), (1, 2)])
        lo, hi = g.endpoints_array()
        assert list(zip(lo.tolist(), hi.tolist())) == g.edges()

    def test_weights_array(self):
        gw = Graph(3, [(0, 1), (1, 2)], [2.5, 7.0])
        assert gw.weights_array().tolist() == [2.5, 7.0]
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.weights_array().tolist() == [1.0, 1.0]

    def test_incident_view_is_port_ordered(self):
        g = Graph(4, [(0, 2), (0, 1), (0, 3)])
        nbrs, eids = g.incident_view(0)
        assert nbrs.tolist() == [2, 1, 3]
        assert eids.tolist() == [0, 1, 2]

    def test_incident_view_is_view_not_copy(self):
        g = Graph(4, [(0, 2), (0, 1), (0, 3)])
        nbrs, _ = g.incident_view(0)
        _, indices, _ = g.adjacency_arrays()
        assert nbrs.base is indices or nbrs.base is indices.base

    def test_views_are_read_only(self):
        g = Graph(3, [(0, 1), (1, 2)], [1.0, 2.0])
        nbrs, eids = g.incident_view(1)
        for arr in (nbrs, eids, g.weights_array(), *g.endpoints_array()):
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_neighbor_sets_cached_and_correct(self):
        g = Graph(4, [(0, 1), (0, 2), (2, 3)])
        sets = g.neighbor_sets()
        assert sets[0] == {1, 2} and sets[3] == {2}
        assert g.neighbor_sets() is sets  # built once, shared

    @given(graphs())
    def test_bulk_and_scalar_agree(self, g):
        lo, hi = g.endpoints_array()
        assert g.degrees().sum() == 2 * g.m
        for v in g.vertices():
            nbrs, eids = g.incident_view(v)
            assert tuple(nbrs.tolist()) == g.neighbors(v)
            assert tuple(zip(nbrs.tolist(), eids.tolist())) == g.incident(v)


class TestStructure:
    def test_bipartition_even_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        part = g.bipartition()
        assert part is not None
        xs, ys = part
        assert sorted(xs + ys) == [0, 1, 2, 3]
        for u, v in g.edges():
            assert (u in xs) != (v in xs)

    def test_bipartition_odd_cycle_none(self, triangle):
        assert triangle.bipartition() is None
        assert not triangle.is_bipartite()

    def test_isolated_vertices_on_x_side(self):
        g = Graph(3, [(0, 1)])
        xs, _ys = g.bipartition()
        assert 2 in xs

    def test_connected_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert comps == [[0, 1], [2, 3], [4]]

    def test_subgraph_keeps_vertices_renumbers_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [1.0, 2.0, 3.0])
        sub = g.subgraph([2, 0])
        assert sub.n == 4
        assert sub.edges() == [(0, 1), (2, 3)]
        assert sub.weight(2, 3) == 3.0

    @pytest.mark.parametrize("index_dtype", [None, np.int64])
    def test_support_subgraph_equals_a_fresh_build(self, index_dtype):
        g = Graph(
            8, [(1, 5), (0, 3), (3, 5), (5, 6), (1, 3), (2, 7)],
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], index_dtype=index_dtype,
        )
        eids = np.array([0, 2, 4])  # edges (1,5), (3,5), (1,3)
        sub, verts = g.support_subgraph(eids)
        assert verts.tolist() == [1, 3, 5]
        fresh = Graph(3, [(0, 2), (1, 2), (0, 1)], [1.0, 3.0, 5.0])
        assert (sub.n, sub.m) == (3, 3)
        assert sub.index_dtype == g.index_dtype
        for got, want in zip(sub.adjacency_arrays(), fresh.adjacency_arrays()):
            assert got.tolist() == want.tolist()
        assert sub.edges() == fresh.edges()
        assert sub.weights_array().tolist() == [1.0, 3.0, 5.0]
        empty, none = g.support_subgraph(np.array([], dtype=np.int64))
        assert (empty.n, empty.m, none.size) == (0, 0, 0)

    @pytest.mark.parametrize("tier", [np.int32, np.int64])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_support_subgraph_property(self, tier, data):
        """``support_subgraph(eids)`` is a fresh build of the relabeled
        kept edges — CSR arrays, endpoints, index dtype and weights —
        for graphs built from shuffled, randomly oriented edge lists and
        any ascending subset, including the empty and the full set."""
        n = data.draw(st.integers(0, 12), label="n")
        pairs = list(combinations(range(n), 2))
        edges = data.draw(
            st.lists(st.sampled_from(pairs), unique=True) if pairs
            else st.just([]), label="edges",
        )
        edges = [
            (v, u) if data.draw(st.booleans()) else (u, v) for u, v in edges
        ]
        weights = None
        if data.draw(st.booleans(), label="weighted"):
            weights = [float(1 + i) for i in range(len(edges))]
        mode = data.draw(st.sampled_from(["empty", "full", "random"]))
        kept = [
            mode == "full" or (mode == "random" and data.draw(st.booleans()))
            for _ in edges
        ]
        eids = np.flatnonzero(np.array(kept, dtype=bool))
        with forced_index_dtype(tier):
            g = Graph(n, edges, weights)
            sub, verts = g.support_subgraph(eids)
            ends = sorted({x for e in eids for x in edges[e]})
            at = {x: i for i, x in enumerate(ends)}
            fresh = Graph(
                len(ends),
                [(at[edges[e][0]], at[edges[e][1]]) for e in eids],
                None if weights is None else [weights[e] for e in eids],
            )
        assert verts.dtype == np.int64 and verts.tolist() == ends
        assert (sub.n, sub.m) == (fresh.n, fresh.m)
        assert sub.weighted == fresh.weighted
        assert sub.index_dtype == fresh.index_dtype == np.dtype(tier)
        for got, want in zip(
            (*sub.adjacency_arrays(), *sub.endpoints_array()),
            (*fresh.adjacency_arrays(), *fresh.endpoints_array()),
        ):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
        assert sub.weights_array().tolist() == fresh.weights_array().tolist()
        assert sub.edges() == fresh.edges()

    def test_with_weights_replaces(self):
        g = Graph(3, [(0, 1), (1, 2)])
        g2 = g.with_weights([5.0, 6.0])
        assert g2.weight(0, 1) == 5.0
        assert g.weight(0, 1) == 1.0  # original untouched

    def test_unweighted_strips(self):
        g = Graph(2, [(0, 1)], [9.0])
        assert not g.unweighted().weighted


class TestProperties:
    @given(graphs())
    def test_handshake_lemma(self, g):
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.m

    @given(graphs())
    def test_edge_ids_bijective(self, g):
        for eid in g.edge_ids():
            u, v = g.edge_endpoints(eid)
            assert g.edge_id(u, v) == eid

    @given(graphs())
    def test_neighbors_symmetric(self, g):
        for u, v in g.edges():
            assert v in g.neighbors(u)
            assert u in g.neighbors(v)

    @given(graphs())
    def test_components_partition_vertices(self, g):
        comps = g.connected_components()
        flat = [v for c in comps for v in c]
        assert sorted(flat) == list(g.vertices())

    @given(graphs())
    def test_bipartition_covers_or_odd_cycle(self, g):
        part = g.bipartition()
        if part is not None:
            xs, ys = part
            assert sorted(xs + ys) == list(g.vertices())
            xset = set(xs)
            for u, v in g.edges():
                assert (u in xset) != (v in xset)
