"""Tests for Section 4 (Algorithm 5, Theorem 4.5) — weighted matching."""

import pytest
from hypothesis import given, settings

from repro.core import (
    apply_wraps,
    derived_weights,
    weighted_mwm,
    weighted_mwm_reference,
    wrap_path,
)
from repro.baselines.lps_interleaved import lps_interleaved_mwm
from repro.baselines.lps_mwm import lps_mwm, lps_mwm_batched
from repro.core.weighted_mwm import (
    default_iterations,
    weighted_mwm_batched,
    wrap_gain,
)
from repro.graphs import Graph, gnp_random, path_graph
from repro.graphs.weights import assign_exponential_weights, assign_uniform_weights
from repro.matching import Matching, maximum_matching_weight

from tests.conftest import graphs


@pytest.fixture
def weighted_path():
    """0—1—2—3 with weights 4, 2, 5; M = {(1,2)}."""
    g = Graph(4, [(0, 1), (1, 2), (2, 3)], [4.0, 2.0, 5.0])
    return g, Matching(g, [(1, 2)])


class TestWrap:
    def test_both_mates_exist(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [4.0, 2.0, 5.0])
        m = Matching(g, [(0, 1), (2, 3)])
        assert wrap_path(m, 1, 2) == [(0, 1), (1, 2), (2, 3)]

    def test_one_free_endpoint(self, weighted_path):
        g, m = weighted_path
        assert wrap_path(m, 0, 1) == [(0, 1), (1, 2)]

    def test_both_free(self):
        g = Graph(2, [(0, 1)], [3.0])
        m = Matching(g)
        assert wrap_path(m, 0, 1) == [(0, 1)]

    def test_matched_edge_rejected(self, weighted_path):
        g, m = weighted_path
        with pytest.raises(ValueError):
            wrap_path(m, 1, 2)

    def test_gain_formula(self, weighted_path):
        g, m = weighted_path
        assert wrap_gain(g, m, 0, 1) == 4.0 - 2.0
        assert wrap_gain(g, m, 2, 3) == 5.0 - 2.0


class TestDerivedWeights:
    def test_matched_edges_zero(self, weighted_path):
        g, m = weighted_path
        wm = derived_weights(g, m)
        assert wm[g.edge_id(1, 2)] == 0.0

    def test_values(self, weighted_path):
        g, m = weighted_path
        wm = derived_weights(g, m)
        assert wm[g.edge_id(0, 1)] == 2.0
        assert wm[g.edge_id(2, 3)] == 3.0

    def test_negative_gains_possible(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [1.0, 9.0, 1.0])
        m = Matching(g, [(1, 2)])
        wm = derived_weights(g, m)
        assert wm[g.edge_id(0, 1)] == -8.0

    def test_empty_matching_is_original_weights(self):
        g = assign_uniform_weights(gnp_random(10, 0.4, seed=1), seed=1)
        wm = derived_weights(g, Matching(g))
        for eid in g.edge_ids():
            assert wm[eid] == g.edge_weight(eid)


class TestApplyWraps:
    def test_simple_swap(self, weighted_path):
        g, m = weighted_path
        m2 = apply_wraps(m, [(0, 1)])
        assert m2.edges() == [(0, 1)]

    def test_overlapping_wraps_share_removed_edge(self):
        """The Figure 2 situation: both wraps evict the same M edge."""
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [7.0, 2.0, 7.0])
        m = Matching(g, [(1, 2)])
        m2 = apply_wraps(m, [(0, 1), (2, 3)])
        assert m2.edges() == [(0, 1), (2, 3)]

    def test_lemma_41_inequality(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [7.0, 2.0, 7.0])
        m = Matching(g, [(1, 2)])
        wm = derived_weights(g, m)
        mprime = [(0, 1), (2, 3)]
        gain = sum(wm[g.edge_id(u, v)] for u, v in mprime)
        m2 = apply_wraps(m, mprime)
        assert m2.weight() >= m.weight() + gain
        assert m2.weight() == 14.0 and m.weight() + gain == 12.0  # strict

    def test_nonmatching_mprime_rejected(self):
        g = path_graph(3).with_weights([1.0, 1.0])
        m = Matching(g)
        with pytest.raises(ValueError, match="not a matching"):
            apply_wraps(m, [(0, 1), (1, 2)])

    def test_mprime_overlapping_m_rejected(self, weighted_path):
        g, m = weighted_path
        with pytest.raises(ValueError, match="disjoint"):
            apply_wraps(m, [(1, 2)])

    @given(graphs(max_n=10, weighted=True))
    @settings(max_examples=50, deadline=None)
    def test_lemma_41_property(self, g):
        """w(M ⊕ ⋃wrap(e)) ≥ w(M) + w_M(M′) on random instances."""
        from repro.matching.greedy import greedy_mwm

        m = greedy_mwm(g)  # some matching
        wm = derived_weights(g, m)
        keep = [e for e in g.edge_ids() if wm[e] > 0]
        if not keep:
            return
        gp = g.subgraph(keep).with_weights([wm[e] for e in keep])
        mprime = greedy_mwm(gp)
        gain = sum(wm[g.edge_id(u, v)] for u, v in mprime.edges())
        m2 = apply_wraps(m, mprime.edges())
        assert m2.weight() >= m.weight() + gain - 1e-9


class TestAlgorithm5:
    def test_iteration_formula(self):
        # (3/(2*0.2)) * ln(2/0.1) = 7.5 * ln 20 ≈ 22.47 -> 23
        assert default_iterations(0.1, 0.2) == 23

    @pytest.mark.parametrize("seed", range(3))
    def test_half_minus_eps_guarantee(self, seed):
        g = assign_uniform_weights(gnp_random(35, 0.15, seed=seed), seed=seed)
        m, _, _ = weighted_mwm(g, eps=0.1, seed=seed, check_lemma41=True)
        opt = maximum_matching_weight(g)
        assert m.weight() >= (0.5 - 0.1) * opt - 1e-9

    def test_exponential_weights(self):
        g = assign_exponential_weights(gnp_random(30, 0.15, seed=4), seed=4)
        m, _, _ = weighted_mwm(g, eps=0.1, seed=4)
        assert m.weight() >= 0.4 * maximum_matching_weight(g) - 1e-9

    def test_adaptive_stop_at_local_optimum(self):
        g = assign_uniform_weights(gnp_random(25, 0.2, seed=5), seed=5)
        m, _, it = weighted_mwm(g, eps=0.1, seed=5, adaptive=True)
        wm = derived_weights(g, m)
        # adaptive stops exactly when no positive derived weight remains
        # OR the iteration budget ran out first.
        if it < default_iterations(0.1, 0.2):
            assert all(w <= 1e-12 for w in wm)

    def test_unweighted_rejected(self):
        with pytest.raises(ValueError):
            weighted_mwm(path_graph(4))

    def test_invalid_eps(self):
        g = path_graph(2).with_weights([1.0])
        with pytest.raises(ValueError):
            weighted_mwm(g, eps=0.0)

    def test_determinism(self):
        g = assign_uniform_weights(gnp_random(20, 0.2, seed=6), seed=6)
        a, _, _ = weighted_mwm(g, eps=0.2, seed=7)
        b, _, _ = weighted_mwm(g, eps=0.2, seed=7)
        assert a == b

    def test_rounds_accounted(self):
        g = assign_uniform_weights(gnp_random(20, 0.2, seed=8), seed=8)
        _, res, it = weighted_mwm(g, eps=0.2, seed=8)
        assert res.rounds > 0 and res.charged_rounds >= it

    def test_interleaved_box_same_guarantee_fewer_rounds(self):
        g = assign_uniform_weights(gnp_random(30, 0.15, seed=9), seed=9)
        opt = maximum_matching_weight(g)
        m_seq, res_seq, _ = weighted_mwm(g, eps=0.1, seed=9)
        m_int, res_int, _ = weighted_mwm(g, eps=0.1, seed=9, box="interleaved")
        assert m_seq.weight() >= 0.4 * opt - 1e-9
        assert m_int.weight() >= 0.4 * opt - 1e-9
        assert res_int.rounds < res_seq.rounds / 5

    def test_unknown_box_rejected(self):
        g = assign_uniform_weights(gnp_random(10, 0.3, seed=10), seed=10)
        with pytest.raises(ValueError, match="unknown box"):
            weighted_mwm(g, box="bogus")


#: Algorithm 5's entry points, each called as ``f(g, **params)``.
ENTRY_POINTS = {
    "weighted_mwm[generator]": weighted_mwm,
    "weighted_mwm[array]": lambda g, **kw: weighted_mwm(g, backend="array", **kw),
    "weighted_mwm_batched": lambda g, **kw: weighted_mwm_batched(g, [0], **kw),
    "weighted_mwm_reference": weighted_mwm_reference,
}

#: (entry point, parameter, bad value): δ must lie in (0, 1] — a δ-MWM
#: box cannot beat w(M*) — and iterations must be None or >= 0.  The
#: eps cases run on the reference; ``test_invalid_eps`` covers the rest.
BAD_PARAMS = [
    (entry, name, value)
    for entry in ENTRY_POINTS
    for name, value in [
        ("delta", 0), ("delta", -0.5), ("delta", 1.5), ("iterations", -3),
    ]
] + [
    ("weighted_mwm_reference", "eps", value) for value in (0, 3.0)
]

#: Weighted-family calls that take ``backend=``.
BACKEND_CALLS = {
    "weighted_mwm[sequential]": lambda g, b: weighted_mwm(g, backend=b),
    "weighted_mwm[interleaved]": (
        lambda g, b: weighted_mwm(g, box="interleaved", backend=b)
    ),
    "lps_mwm": lambda g, b: lps_mwm(g, backend=b),
    "lps_mwm_batched": lambda g, b: lps_mwm_batched(g, [0, 1], backend=b),
    "lps_interleaved_mwm": lambda g, b: lps_interleaved_mwm(g, backend=b),
}


class TestParameterChecks:
    @pytest.mark.parametrize("entry,name,value", BAD_PARAMS)
    def test_impossible_parameters_rejected(self, entry, name, value):
        g = assign_uniform_weights(gnp_random(12, 0.3, seed=1), seed=1)
        with pytest.raises(ValueError, match=name):
            ENTRY_POINTS[entry](g, **{name: value})

    @pytest.mark.parametrize("call", sorted(BACKEND_CALLS))
    def test_unknown_backend_rejected_on_edgeless_graph(self, call):
        g = Graph(4, [], weights=[])
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            BACKEND_CALLS[call](g, "bogus")


class TestReference:
    @pytest.mark.parametrize("seed", range(3))
    def test_reference_guarantee(self, seed):
        g = assign_uniform_weights(gnp_random(30, 0.15, seed=seed + 20), seed=seed)
        m, _ = weighted_mwm_reference(g, eps=0.1)
        opt = maximum_matching_weight(g)
        assert m.weight() >= 0.4 * opt - 1e-9

    def test_monotone_weight_growth(self):
        """Each Algorithm 5 iteration never decreases w(M) (Lemma 4.1)."""
        g = assign_uniform_weights(gnp_random(25, 0.2, seed=9), seed=9)
        prev = 0.0
        for iters in (1, 2, 4, 8):
            m, _ = weighted_mwm_reference(g, iterations=iters)
            assert m.weight() >= prev - 1e-9
            prev = m.weight()
