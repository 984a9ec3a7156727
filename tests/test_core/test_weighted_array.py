"""Property tests for the weighted array kernels (ISSUE 5).

The vectorized derived-weights kernel must agree with the scalar
``wrap_path``/``g(P)`` definitions *bit for bit* on arbitrary graphs
and matchings — including length-1 and length-2 wraps (one or both
wrap endpoints free), isolated vertices, and float-noise edges whose
derived weight sits right at the ``_EPS_W`` threshold.  The vectorized
weight-class helper gets the same treatment against its scalar twin.
"""

from importlib import import_module

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.lps_mwm import _weight_class, _weight_class_array
from repro.core.weighted_mwm import (
    _EPS_W,
    derived_weights,
    derived_weights_array,
    weighted_mwm,
    weighted_mwm_batched,
    wrap_gain,
    wrap_path,
)
from repro.graphs.graph import Graph
from repro.graphs.generators import gnp_random
from repro.graphs.weights import assign_uniform_weights
from repro.matching.matching import Matching

from tests.conftest import graphs, matchable

#: the module itself (``repro.core`` re-exports a function of its name)
weighted_module = import_module("repro.core.weighted_mwm")

_slow = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _weighted(g: Graph, seed: int) -> Graph:
    return assign_uniform_weights(g, seed=seed) if g.m else g.with_weights([])


class TestDerivedWeightsKernel:
    @given(matchable(max_n=12), st.integers(min_value=0, max_value=99))
    @_slow
    def test_kernel_equals_wrap_gain_per_edge(self, gm, wseed):
        g0, edges = gm
        g = _weighted(g0, wseed)
        m = Matching(g, edges)
        wm = derived_weights_array(g, m.mate_array())
        lo, hi = g.endpoints_array()
        for eid in range(g.m):
            u, v = int(lo[eid]), int(hi[eid])
            if m.is_matched_edge(u, v):
                assert wm[eid] == 0.0
            else:
                # Bit-identical to the scalar definition, and the wrap
                # it prices has between 1 and 3 edges.
                assert wm[eid] == wrap_gain(g, m, u, v)
                assert 1 <= len(wrap_path(m, u, v)) <= 3

    @given(matchable(max_n=12), st.integers(min_value=0, max_value=99))
    @_slow
    def test_list_view_matches_kernel(self, gm, wseed):
        g0, edges = gm
        g = _weighted(g0, wseed)
        m = Matching(g, edges)
        assert derived_weights(g, m) == derived_weights_array(
            g, m.mate_array()
        ).tolist()

    @given(matchable(max_n=10), st.integers(min_value=0, max_value=9),
           st.integers(min_value=2, max_value=4))
    @_slow
    def test_batched_kernel_matches_per_lane(self, gm, wseed, num_lanes):
        g0, edges = gm
        g = _weighted(g0, wseed)
        rng = np.random.default_rng(wseed)
        lanes = []
        for _ in range(num_lanes):
            m = Matching(g)
            order = rng.permutation(g.m) if g.m else []
            for eid in order:
                u, v = g.edge_endpoints(int(eid))
                if m.is_free(u) and m.is_free(v) and rng.integers(0, 2):
                    m.add(u, v)
            lanes.append(m.mate_array())
        batched = derived_weights_array(g, np.stack(lanes)) if lanes else None
        for row, mate in enumerate(lanes):
            assert (batched[row] == derived_weights_array(g, mate)).all()

    def test_wrap_lengths_1_and_2(self):
        # Path a-b-c-d with only (b,c) matched: wrap(a,b) has 2 edges,
        # wrap on a free-free edge has 1, wrap(c,d) has 2.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [5.0, 2.0, 4.0])
        m = Matching(g, [(1, 2)])
        assert len(wrap_path(m, 0, 1)) == 2
        assert len(wrap_path(m, 2, 3)) == 2
        wm = derived_weights_array(g, m.mate_array())
        assert wm[g.edge_id(0, 1)] == 5.0 - 2.0
        assert wm[g.edge_id(2, 3)] == 4.0 - 2.0
        assert wm[g.edge_id(1, 2)] == 0.0
        free = Matching(g)
        wm_free = derived_weights_array(g, free.mate_array())
        assert wm_free.tolist() == [5.0, 2.0, 4.0]  # length-1 wraps

    def test_isolated_vertices_and_empty_graph(self):
        g = Graph(5, [(0, 1)], [3.0])  # vertices 2-4 isolated
        m = Matching(g)
        assert derived_weights_array(g, m.mate_array()).tolist() == [3.0]
        empty = Graph(4, [], [])
        assert derived_weights_array(empty, Matching(empty).mate_array()).size == 0

    def test_eps_threshold_noise(self):
        # A swap whose gain is float noise: w(a,b) barely exceeds the
        # matched weight.  The kernel must reproduce the scalar
        # subtraction exactly so the _EPS_W comparison agrees.
        for bump in (0.0, _EPS_W / 2, 5e-12, 1e-9):
            w_edge = 1.0 + bump
            g = Graph(3, [(0, 1), (1, 2)], [w_edge, 1.0])
            m = Matching(g, [(1, 2)])
            wm = derived_weights_array(g, m.mate_array())
            scalar = wrap_gain(g, m, 0, 1)
            assert wm[0] == scalar
            assert (wm[0] > _EPS_W) == (scalar > _EPS_W)


class TestBatchedPipeline:
    """``weighted_mwm_batched`` against the generator loop, lane by lane.

    The batched pipeline keeps each lane's w_M from one iteration to the
    next and recomputes only the edges at vertices whose mate changed;
    the generator loop recomputes every edge with the kernel.  Weights
    in {1, 2, 3} tie often, so derived weights land exactly on 0 (such
    an edge must stay out of the support), and equal matchings,
    ``RunResult``s and iteration counts pin every iteration's update.
    """

    @given(graphs(max_n=12), st.data())
    @_slow
    def test_matches_generator(self, g0, data):
        g = g0.with_weights(data.draw(
            st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                     min_size=g0.m, max_size=g0.m),
            label="weights",
        ))
        seeds = data.draw(
            st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
            label="seeds",
        )
        adaptive = data.draw(st.booleans(), label="adaptive")
        batched = weighted_mwm_batched(g, seeds, adaptive=adaptive)
        for s, (m_b, res_b, it_b) in zip(seeds, batched):
            m_g, res_g, it_g = weighted_mwm(g, seed=s, adaptive=adaptive)
            assert sorted(m_b.edges()) == sorted(m_g.edges()), f"seed {s}"
            assert res_b == res_g and it_b == it_g, f"seed {s}"

    @given(graphs(max_n=12), st.data())
    @settings(_slow, max_examples=120)
    def test_every_update_equals_the_kernel(self, g0, data):
        # On so small a graph most updates change rows holding more than
        # a quarter of the lanes' edges, and the kernel recomputes them
        # whole; disjoint ballast edges on fresh vertices are matched in
        # iteration 1 and never move again, so from iteration 2 on the
        # update takes the changed rows' path.  After every update each
        # box lane's w_M, positive mask and matched weights must equal
        # the kernel's on the lanes' new mates.
        weights = data.draw(
            st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                     min_size=g0.m, max_size=g0.m),
            label="weights",
        )
        ballast = 8 * g0.m + 8
        lo, hi = g0.endpoints_array()
        edges = list(zip(lo.tolist(), hi.tolist()))
        edges += [(g0.n + 2 * i, g0.n + 2 * i + 1) for i in range(ballast)]
        g = Graph(g0.n + 2 * ballast, edges, weights + [2.0] * ballast)
        seeds = data.draw(
            st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
            label="seeds",
        )
        real = weighted_module._rederive
        updates = []

        def checked(g_, mate, vw, wm, pos, lanes, changed):
            real(g_, mate, vw, wm, pos, lanes, changed)
            want_wm, want_vw = weighted_module._derived_weights(g_, mate[lanes])
            assert wm[lanes].tobytes() == want_wm.tobytes()
            assert vw[lanes].tobytes() == want_vw.tobytes()
            assert (pos[lanes] == (want_wm > _EPS_W)).all()
            updates.append(lanes.size)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weighted_module, "_rederive", checked)
            weighted_mwm_batched(g, seeds, adaptive=data.draw(st.booleans()))
        assert len(updates) >= (1 if g0.m else 0)


class TestWeightClassArray:
    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    @_slow
    def test_matches_scalar_classes(self, ws):
        wmax = max(ws)
        got = _weight_class_array(np.asarray(ws), wmax)
        assert got.tolist() == [_weight_class(w, wmax) for w in ws]

    def test_power_of_two_boundaries(self):
        wmax = 64.0
        ws = [64.0, 32.0, 32.0000000001, 16.0, 8.0, 63.9999999999, 1e-12]
        got = _weight_class_array(np.asarray(ws), wmax)
        assert got.tolist() == [_weight_class(w, wmax) for w in ws]

    def test_per_lane_wmax_rows(self):
        w = np.asarray([8.0, 4.0, 1.0])
        wmax = np.asarray([[8.0], [16.0]])
        got = _weight_class_array(w, wmax)
        assert got.tolist() == [
            [_weight_class(x, 8.0) for x in w],
            [_weight_class(x, 16.0) for x in w],
        ]


class TestFromMateArray:
    def test_round_trip_and_validation(self):
        g = assign_uniform_weights(gnp_random(14, 0.3, seed=2), seed=2)
        m = Matching(g)
        for u, v in g.edges():
            if m.is_free(u) and m.is_free(v):
                m.add(u, v)
        rebuilt = Matching.from_mate_array(g, m.mate_array())
        assert rebuilt == m and len(rebuilt) == len(m)
        bad = m.mate_array()
        if len(m):
            v = int(np.flatnonzero(bad != -1)[0])
            bad[v] = -1  # break symmetry
            with pytest.raises(ValueError):
                Matching.from_mate_array(g, bad)
        not_edge = np.full(g.n, -1, dtype=np.int64)
        pair = next(
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        )
        not_edge[pair[0]], not_edge[pair[1]] = pair[1], pair[0]
        with pytest.raises(ValueError):
            Matching.from_mate_array(g, not_edge)
        with pytest.raises(ValueError):
            Matching.from_mate_array(g, np.zeros(g.n, dtype=np.int64))  # self-mate
