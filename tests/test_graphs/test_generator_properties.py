"""Property net over *every* public generator, old and new.

Uniform invariants (no self-loops / duplicates, degree-sum = 2m,
seed-determinism) are asserted for the whole catalog through one
parameterized fixture list, so adding a generator without property
coverage fails the completeness test.  Family-specific invariants
(BA minimum degree, d-regularity, planted perfect matching, ...) are
asserted per family below.
"""

import numpy as np
import pytest

import repro.graphs as graphs_pkg
from repro.graphs import (
    Graph,
    barabasi_albert,
    barbell_graph,
    bipartite_random,
    caterpillar_graph,
    comb_graph,
    complete_bipartite,
    complete_graph,
    crown_graph,
    cycle_graph,
    gnm_random,
    gnp_random,
    grid_graph,
    hypercube_graph,
    kronecker,
    lollipop_graph,
    path_graph,
    planted_matching,
    powerlaw_configuration,
    random_regular,
    random_tree,
    star_graph,
    switch_demand_graph,
    watts_strogatz,
)
from repro.graphs.graph import forced_index_dtype

from tests.conftest import assert_same_csr


def _graph_of(result):
    """Unwrap builders that return (graph, ...) tuples."""
    return result[0] if isinstance(result, tuple) else result


# Every public generator: name -> builder(seed) at a fixed small scale.
# Deterministic families ignore the seed.
CATALOG = {
    "gnp_random": lambda seed: gnp_random(40, 0.12, seed=seed),
    "gnm_random": lambda seed: gnm_random(30, 60, seed=seed),
    "bipartite_random": lambda seed: bipartite_random(15, 18, 0.2, seed=seed),
    "complete_graph": lambda seed: complete_graph(9),
    "complete_bipartite": lambda seed: complete_bipartite(5, 7),
    "path_graph": lambda seed: path_graph(12),
    "cycle_graph": lambda seed: cycle_graph(11),
    "star_graph": lambda seed: star_graph(10),
    "grid_graph": lambda seed: grid_graph(4, 6),
    "crown_graph": lambda seed: crown_graph(6),
    "random_tree": lambda seed: random_tree(25, seed=seed),
    "random_regular": lambda seed: random_regular(20, 3, seed=seed),
    "hypercube_graph": lambda seed: hypercube_graph(4),
    "barbell_graph": lambda seed: barbell_graph(5, bridge=2),
    "caterpillar_graph": lambda seed: caterpillar_graph(6, legs=2, seed=seed),
    "comb_graph": lambda seed: comb_graph(8),
    "switch_demand_graph": lambda seed: switch_demand_graph(10, 0.4, seed=seed),
    "barabasi_albert": lambda seed: barabasi_albert(40, 3, seed=seed),
    "watts_strogatz": lambda seed: watts_strogatz(30, 4, 0.3, seed=seed),
    "powerlaw_configuration": lambda seed: powerlaw_configuration(
        60, 2.5, seed=seed
    ),
    "kronecker": lambda seed: kronecker(5, seed=seed),
    "planted_matching": lambda seed: planted_matching(30, 0.15, seed=seed),
    "lollipop_graph": lambda seed: lollipop_graph(7, 9),
}

# Families whose output varies with the seed.
RANDOM_FAMILIES = {
    "gnp_random",
    "gnm_random",
    "bipartite_random",
    "random_tree",
    "random_regular",
    "switch_demand_graph",
    "barabasi_albert",
    "watts_strogatz",
    "powerlaw_configuration",
    "kronecker",
    "planted_matching",
}


def test_catalog_is_complete():
    """Every generator exported by repro.graphs is property-tested."""
    exported = {
        name
        for name in graphs_pkg.__all__
        if name not in {"Graph", "read_edgelist", "write_edgelist"}
        and not name.startswith("assign_")
    }
    assert exported == set(CATALOG)


@pytest.mark.parametrize("name", sorted(CATALOG))
class TestUniversalInvariants:
    def test_simple_graph(self, name):
        """No self-loops, no duplicates, endpoints in range, u < v."""
        g = _graph_of(CATALOG[name](seed=3))
        seen = set()
        for u, v in g.edges():
            assert 0 <= u < v < g.n
            assert (u, v) not in seen
            seen.add((u, v))

    def test_degree_sum_is_2m(self, name):
        g = _graph_of(CATALOG[name](seed=3))
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.m

    def test_adjacency_consistent_with_edges(self, name):
        g = _graph_of(CATALOG[name](seed=3))
        for u, v in g.edges():
            assert v in g.neighbors(u) and u in g.neighbors(v)
            assert g.has_edge(u, v)

    @pytest.mark.parametrize("tier", [np.int32, np.int64])
    def test_csr_matches_the_stable_argsort(self, name, tier):
        """Port numbers: each vertex's half-edges in edge-id order."""
        for seed in (0, 1, 2):
            with forced_index_dtype(tier):
                g = _graph_of(CATALOG[name](seed=seed))
            assert g.index_dtype == np.dtype(tier)
            assert_same_csr(g)

    def test_same_seed_identical(self, name):
        a = _graph_of(CATALOG[name](seed=11))
        b = _graph_of(CATALOG[name](seed=11))
        assert (a.n, a.edges()) == (b.n, b.edges())

    def test_different_seed_differs(self, name):
        if name not in RANDOM_FAMILIES:
            pytest.skip("deterministic family")
        # A single seed pair can collide by chance; require that *some*
        # seed in a small set changes the graph.
        base = _graph_of(CATALOG[name](seed=0)).edges()
        assert any(
            _graph_of(CATALOG[name](seed=s)).edges() != base for s in (1, 2, 3)
        )


class TestFamilyInvariants:
    def test_barabasi_albert_min_degree(self):
        g = barabasi_albert(50, 3, seed=5)
        assert min(g.degree(v) for v in g.vertices()) >= 3
        # |E| = C(m+1, 2) seed clique + m per later vertex.
        assert g.m == 6 + (50 - 4) * 3

    def test_barabasi_albert_skew(self):
        """Preferential attachment grows hubs well above the minimum."""
        g = barabasi_albert(300, 2, seed=5)
        assert g.max_degree() >= 15

    def test_barabasi_albert_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            barabasi_albert(3, 2)
        with pytest.raises(ValueError):
            barabasi_albert(10, 0)

    def test_watts_strogatz_edge_count_preserved(self):
        """Rewiring moves endpoints but never changes |E| = n·k/2."""
        for beta in (0.0, 0.3, 1.0):
            g = watts_strogatz(40, 6, beta, seed=2)
            assert g.m == 40 * 3

    def test_watts_strogatz_beta_zero_is_ring_lattice(self):
        g = watts_strogatz(20, 4, 0.0, seed=9)
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert g.has_edge(0, 1) and g.has_edge(0, 2) and g.has_edge(0, 19)

    def test_watts_strogatz_validation(self):
        with pytest.raises(ValueError):
            watts_strogatz(10, 3, 0.1)  # odd k
        with pytest.raises(ValueError):
            watts_strogatz(4, 4, 0.1)  # k >= n
        with pytest.raises(ValueError):
            watts_strogatz(10, 4, 1.5)  # bad beta

    def test_random_regular_is_regular(self):
        for d in (2, 3, 4):
            g = random_regular(18, d, seed=d)
            assert all(g.degree(v) == d for v in g.vertices())

    def test_powerlaw_configuration_respects_caps(self):
        g = powerlaw_configuration(80, 2.2, min_deg=2, seed=4)
        # Erasure only removes edges, so drawn degrees are an upper
        # bound and n-1 a hard cap.
        assert g.max_degree() <= 79
        assert g.m >= 40  # min_deg=2 implies >= n stubs even after erasure slack

    def test_powerlaw_configuration_validation(self):
        with pytest.raises(ValueError):
            powerlaw_configuration(10, 1.0)
        with pytest.raises(ValueError):
            powerlaw_configuration(10, 2.5, min_deg=0)

    def test_kronecker_vertex_count(self):
        assert kronecker(3, seed=1).n == 8
        assert kronecker(4, seed=1).n == 16

    def test_kronecker_custom_initiator(self):
        g = kronecker(2, initiator=[[1.0, 0.0], [0.0, 1.0]], seed=1)
        assert g.n == 4 and g.m == 0  # identity initiator has no off-diagonal mass

    def test_kronecker_validation(self):
        with pytest.raises(ValueError):
            kronecker(0)
        with pytest.raises(ValueError):
            kronecker(2, initiator=[[0.5, 1.2], [0.3, 0.1]])
        with pytest.raises(ValueError):
            kronecker(20)  # dense sampler size guard

    def test_planted_matching_is_perfect_matching(self):
        g, pairs = planted_matching(40, 0.1, seed=8)
        assert len(pairs) == 20
        used = [x for p in pairs for x in p]
        assert sorted(used) == list(range(40))  # perfect: every vertex once
        assert all(g.has_edge(u, v) for u, v in pairs)

    def test_planted_matching_zero_noise_is_exactly_the_matching(self):
        g, pairs = planted_matching(12, 0.0, seed=1)
        assert g.m == 6
        assert sorted(g.edges()) == sorted(pairs)

    def test_planted_matching_validation(self):
        with pytest.raises(ValueError):
            planted_matching(7)  # odd
        with pytest.raises(ValueError):
            planted_matching(10, noise=-0.1)

    def test_lollipop_degrees(self):
        g = lollipop_graph(6, 4)
        assert g.n == 10
        assert g.m == 15 + 4
        assert g.max_degree() == 6  # junction vertex: 5 clique + 1 tail
        assert g.degree(9) == 1  # tail tip

    def test_lollipop_validation(self):
        with pytest.raises(ValueError):
            lollipop_graph(2, 5)
        with pytest.raises(ValueError):
            lollipop_graph(5, 0)
