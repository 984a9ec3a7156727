"""Unit tests for graph generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.generators as gen_mod
from repro.graphs import (
    Graph,
    bipartite_random,
    complete_bipartite,
    complete_graph,
    crown_graph,
    cycle_graph,
    gnm_random,
    gnp_random,
    grid_graph,
    path_graph,
    random_regular,
    random_tree,
    star_graph,
    switch_demand_graph,
)


class TestGnp:
    def test_p_zero_empty(self):
        assert gnp_random(10, 0.0, seed=1).m == 0

    def test_p_one_complete(self):
        g = gnp_random(6, 1.0, seed=1)
        assert g.m == 15

    def test_determinism(self):
        a = gnp_random(50, 0.1, seed=7)
        b = gnp_random(50, 0.1, seed=7)
        assert a.edges() == b.edges()

    def test_different_seeds_differ(self):
        a = gnp_random(50, 0.1, seed=7)
        b = gnp_random(50, 0.1, seed=8)
        assert a.edges() != b.edges()

    def test_expected_density(self):
        # n=200, p=0.05: E[m] = 995; allow generous 5-sigma slack.
        g = gnp_random(200, 0.05, seed=3)
        expected = 0.05 * 200 * 199 / 2
        sigma = np.sqrt(expected * 0.95)
        assert abs(g.m - expected) < 5 * sigma

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            gnp_random(10, 1.5)

    def test_no_duplicate_or_self_edges(self):
        g = gnp_random(100, 0.2, seed=5)  # Graph() would raise otherwise
        assert all(u < v for u, v in g.edges())

    @pytest.mark.parametrize("p", [1e-300, 5e-324, 1e-17])
    def test_tiny_p_returns_isolated_vertices(self, p):
        # The float gaps pass 2^63 (or overflow to inf): clipped before
        # the int64 cast, the first one ends the stream.
        g = gnp_random(10, p, seed=1)
        assert (g.n, g.m) == (10, 0)


def _gnp_fixed_blocks(n, p, seed):
    """``gnp_random``'s loop with every block 2^18 uniforms long (oracle)."""
    rng = np.random.default_rng(seed)
    if p == 0.0 or n < 2:
        return Graph(n)
    if p == 1.0:
        return complete_graph(n)
    total = n * (n - 1) // 2
    lp = np.log1p(-p)

    def chunks():
        last = -1
        while True:
            gaps = 1 + np.floor(
                np.log(1.0 - rng.random(1 << 18)) / lp
            ).astype(np.int64)
            ranks = last + np.cumsum(gaps)
            done = bool(ranks[-1] >= total)
            if done:
                ranks = ranks[ranks < total]
            else:
                last = int(ranks[-1])
            if ranks.size:
                u, v = gen_mod._unrank_edges(n, ranks)
                yield np.stack([u, v], axis=1)
            if done:
                return

    return Graph.from_edge_chunks(n, chunks())


def _assert_same_graph(g, h):
    """Byte-equal CSR and endpoint arrays, dtypes included."""
    for a, b in zip(g.adjacency_arrays() + g.endpoints_array(),
                    h.adjacency_arrays() + h.endpoints_array()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Below about p = 1e-17 the oracle's unclipped int64 cast of a gap
# overflows and its stream never ends (``gnp_random`` clips the gaps, see
# ``TestGnp``); block sizes do not depend on it.
probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-9, 1.0))


class TestGnpBlockSizes:
    """The first block is sized from the expected edge count; the graph
    is the one fixed 2^18-uniform blocks give."""

    @given(n=st.integers(0, 300), p=probabilities,
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_equals_fixed_blocks(self, n, p, seed):
        _assert_same_graph(gnp_random(n, p, seed=seed),
                           _gnp_fixed_blocks(n, p, seed))

    @given(n=st.integers(2, 120), p=probabilities,
           seed=st.integers(0, 2**32 - 1), chunk=st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_short_blocks_equal_fixed_blocks(self, n, p, seed, chunk):
        # A small block size makes the first block run short and later
        # ones get drawn, at sizes a test can afford.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gen_mod, "_CHUNK", chunk)
            g = gnp_random(n, p, seed=seed)
        _assert_same_graph(g, _gnp_fixed_blocks(n, p, seed))

    def test_a_full_first_block_runs_short(self):
        # ~2.9e5 expected edges: the first block is 2^18 uniforms and a
        # second one is drawn.
        g = gnp_random(800, 0.9, seed=2)
        assert g.m > 1 << 18
        _assert_same_graph(g, _gnp_fixed_blocks(800, 0.9, 2))

    def test_small_graph_draws_its_sized_block(self):
        # 93 expected edges: one block of 93 + 6*isqrt(94) + 64 uniforms.
        rng = np.random.default_rng(5)
        gnp_random(40, 0.12, seed=rng)
        ref = np.random.default_rng(5)
        ref.random(93 + 6 * 9 + 64)
        assert rng.random() == ref.random()


class TestGnm:
    def test_exact_edge_count(self):
        g = gnm_random(20, 37, seed=2)
        assert g.m == 37

    def test_m_too_large_rejected(self):
        with pytest.raises(ValueError):
            gnm_random(4, 7)

    def test_determinism(self):
        assert gnm_random(30, 50, seed=4).edges() == gnm_random(30, 50, seed=4).edges()


class TestOversizedDrawsFailFast:
    """A graph that cannot be held raises before anything is drawn.

    The host-memory probe is monkeypatched, so no test allocates.
    """

    @staticmethod
    def _host(monkeypatch, nbytes):
        monkeypatch.setattr(gen_mod, "physical_memory_bytes", lambda: nbytes)

    def test_gnp_past_physical_memory(self, monkeypatch):
        self._host(monkeypatch, 10**6)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(MemoryError, match=(
            r"gnp_random\(n=1000000, .*\) with ~4e\+06 expected edges "
            r"needs about 1e\+08 bytes, more than this host's 1e\+06 bytes"
        )):
            gnp_random(10**6, 8 / (10**6 - 1), seed=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("p,need", [
        (0.2, "2.4e\\+10"),  # m = 10^9 fits the int32 tier: 4-byte slots
        (0.5, "1.2e\\+11"),  # 2m = 5e9 promotes to int64: 8-byte slots
        (1.0, "2.4e\\+11"),  # checked before the complete-graph shortcut
    ])
    def test_gnp_estimate_follows_the_index_tier(self, monkeypatch, p, need):
        self._host(monkeypatch, 10**9)
        with pytest.raises(MemoryError, match=f"needs about {need} bytes"):
            gnp_random(10**5, p)

    def test_gnp_past_the_int64_range(self, monkeypatch):
        self._host(monkeypatch, None)
        with pytest.raises(MemoryError, match="an int64 index addresses"):
            gnp_random(10**12, 0.1)

    def test_gnp_that_fits_is_unchanged(self, monkeypatch):
        ref = gnp_random(50, 0.1, seed=4)
        for host in (10**9, None):
            self._host(monkeypatch, host)
            assert gnp_random(50, 0.1, seed=4).edges() == ref.edges()

    def test_bipartite_dense_draw_past_physical_memory(self, monkeypatch):
        self._host(monkeypatch, 10**6)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(MemoryError, match=(
            r"dense draw of bipartite_random\(nx=1000, ny=1000\) needs "
            r"about 8e\+06 bytes, more than this host's 1e\+06 bytes"
        )):
            bipartite_random(1000, 1000, 0.1, seed=rng)
        assert rng.bit_generator.state == state
        self._host(monkeypatch, None)
        with pytest.raises(MemoryError, match="an int64 index addresses"):
            bipartite_random(10**12, 10**12, 0.1)

    def test_probe_reads_sysconf_or_gives_none(self, monkeypatch):
        have = gen_mod.physical_memory_bytes()
        assert have is None or have > 0

        def unavailable(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(gen_mod.os, "sysconf", unavailable)
        assert gen_mod.physical_memory_bytes() is None
        assert gnp_random(20, 0.2, seed=1).m > 0  # the host check is skipped


class TestBipartiteRandom:
    def test_sides(self):
        g, xs, ys = bipartite_random(5, 7, 0.5, seed=1)
        assert xs == list(range(5))
        assert ys == list(range(5, 12))
        assert g.n == 12

    def test_edges_cross_sides(self):
        g, xs, ys = bipartite_random(6, 6, 0.4, seed=2)
        xset = set(xs)
        for u, v in g.edges():
            assert (u in xset) != (v in xset)

    def test_is_bipartite(self):
        g, _, _ = bipartite_random(8, 8, 0.3, seed=3)
        assert g.is_bipartite()


class TestStructured:
    def test_complete_graph(self):
        g = complete_graph(5)
        assert g.m == 10 and g.max_degree() == 4

    def test_complete_bipartite(self):
        g, xs, ys = complete_bipartite(3, 4)
        assert g.m == 12
        assert all(g.degree(x) == 4 for x in xs)

    def test_path(self):
        g = path_graph(5)
        assert g.m == 4
        assert g.degree(0) == 1 and g.degree(2) == 2

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.m == 6
        assert all(g.degree(v) == 2 for v in g.vertices())

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(7)
        assert g.degree(0) == 6
        assert g.m == 6

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.n == 12
        assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical
        assert g.is_bipartite()

    def test_crown(self):
        g, xs, ys = crown_graph(4)
        assert g.n == 8
        assert g.m == 4 * 3  # K44 minus perfect matching
        assert all(not g.has_edge(x, 4 + x) for x in range(4))
        assert g.is_bipartite()

    def test_crown_too_small(self):
        with pytest.raises(ValueError):
            crown_graph(2)


class TestRandomTree:
    def test_tree_edge_count(self):
        for n in (1, 2, 3, 10, 50):
            g = random_tree(n, seed=n)
            assert g.m == max(0, n - 1)

    def test_tree_connected(self):
        g = random_tree(40, seed=9)
        assert len(g.connected_components()) == 1

    def test_determinism(self):
        assert random_tree(25, seed=3).edges() == random_tree(25, seed=3).edges()


class TestRandomRegular:
    def test_degrees(self):
        g = random_regular(20, 3, seed=1)
        assert all(g.degree(v) == 3 for v in g.vertices())

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            random_regular(5, 3)

    def test_degree_too_large_rejected(self):
        with pytest.raises(ValueError):
            random_regular(4, 4)


class TestSwitchDemand:
    def test_bipartite_shape(self):
        g, xs, ys = switch_demand_graph(8, 0.5, seed=1)
        assert g.n == 16
        assert g.is_bipartite()

    def test_patterns_run(self):
        for pattern in ("uniform", "diagonal", "hotspot"):
            g, _, _ = switch_demand_graph(6, 0.4, pattern=pattern, seed=2)
            assert g.n == 12

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            switch_demand_graph(4, 0.5, pattern="bogus")

    def test_hotspot_skews_to_output_zero(self):
        g, xs, ys = switch_demand_graph(16, 0.4, pattern="hotspot", seed=3)
        deg0 = g.degree(16)  # output 0
        others = [g.degree(y) for y in ys[1:]]
        assert deg0 >= max(others)
