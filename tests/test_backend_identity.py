"""Backend seed-identity: array backend == generator backend, byte for byte.

The ISSUE 3 acceptance bar: for every ported algorithm (Luby MIS,
Israeli–Itai, generic_mcm — joined in ISSUE 4 by the Cole–Vishkin ring
pipeline and the interleaved LPS matching, and in ISSUE 5 by the whole
weighted pipeline: the weight-class LPS box, Algorithm 5 over either
box, and the k-opt reference), the array backend — a one-lane
``BatchedArrayBackend`` run for a single seed — must produce a
``RunResult`` byte-identical to the generator backend's from the same
seed — asserted two ways:

* directly, ``RunResult`` dataclass equality (rounds, messages, bits,
  peak, outputs) across graph families and seeds;
* against the **pre-refactor capture** ``tests/goldens/seed_identity.json``:
  the array-backend run of each golden cell must serialize to exactly
  the bytes stored in the golden file.
"""

import json

import pytest

from repro.baselines.cole_vishkin import ring_coloring, ring_maximal_matching
from repro.baselines.israeli_itai import israeli_itai_matching
from repro.baselines.lps_interleaved import lps_interleaved_mwm
from repro.baselines.lps_mwm import lps_mwm
from repro.baselines.luby_mis import luby_mis, verify_mis
from repro.core.generic_mcm import generic_mcm
from repro.core.kopt_mwm import kopt_mwm
from repro.core.weighted_mwm import weighted_mwm
from repro.graphs import (
    Graph,
    barabasi_albert,
    comb_graph,
    complete_graph,
    crown_graph,
    cycle_graph,
    gnp_random,
    path_graph,
    star_graph,
    watts_strogatz,
)
from repro.graphs.weights import assign_uniform_weights

from tests.golden_harness import GOLDEN_PATH, _edges, _res_dict, to_canonical_json

GRAPHS = {
    "gnp": gnp_random(26, 0.18, seed=1),
    "ba": barabasi_albert(30, 2, seed=2),
    "ws": watts_strogatz(24, 4, 0.2, seed=3),
    "cycle": cycle_graph(9),
    "path2": path_graph(2),
    "star": star_graph(11),
    "complete": complete_graph(8),
    "crown": crown_graph(5)[0],
    "empty": Graph(6),
    "isolated": Graph(8, [(0, 1), (2, 3)]),
    # Trailing degree-0 vertices after a degree->=2 vertex: the shape
    # that exposed the clamped-reduceat truncation (ISSUE 5 review).
    "tail_isolated": Graph(6, [(0, 1), (0, 2), (1, 2)]),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("seed", [0, 1, 7])
class TestBackendEquivalence:
    def test_luby_mis(self, name, seed):
        g = GRAPHS[name]
        mis_g, res_g = luby_mis(g, seed=seed)
        mis_a, res_a = luby_mis(g, seed=seed, backend="array")
        assert mis_g == mis_a
        assert res_g == res_a
        assert verify_mis(g, mis_a)

    def test_israeli_itai(self, name, seed):
        g = GRAPHS[name]
        m_g, res_g = israeli_itai_matching(g, seed=seed)
        m_a, res_a = israeli_itai_matching(g, seed=seed, backend="array")
        assert sorted(m_g.edges()) == sorted(m_a.edges())
        assert res_g == res_a


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", ["gnp", "comb", "cycle"])
class TestGenericMcmEquivalence:
    def test_generic_mcm(self, name, seed):
        g = comb_graph(8) if name == "comb" else GRAPHS[name]
        m_g, st_g = generic_mcm(g, k=2, seed=seed)
        m_a, st_a = generic_mcm(g, k=2, seed=seed, backend="array")
        assert sorted(m_g.edges()) == sorted(m_a.edges())
        assert st_g.result == st_a.result
        assert st_g.views == st_a.views
        assert st_g.conflict_sizes == st_a.conflict_sizes
        assert st_g.mis_sizes == st_a.mis_sizes


@pytest.mark.parametrize("n", [3, 5, 9, 17, 64])
class TestColeVishkinEquivalence:
    def test_ring_coloring(self, n):
        g = cycle_graph(n)
        colors_g, res_g = ring_coloring(g)
        colors_a, res_a = ring_coloring(g, backend="array")
        assert colors_g == colors_a
        assert res_g == res_a
        assert set(colors_a.values()) <= {0, 1, 2}

    def test_ring_matching(self, n):
        g = cycle_graph(n)
        m_g, res_g = ring_maximal_matching(g)
        m_a, res_a = ring_maximal_matching(g, backend="array")
        assert sorted(m_g.edges()) == sorted(m_a.edges())
        assert res_g == res_a


@pytest.mark.parametrize("seed", [0, 1, 9])
@pytest.mark.parametrize("name", ["gnp", "ba", "ws"])
class TestLpsInterleavedEquivalence:
    def test_lps_interleaved(self, name, seed):
        g = assign_uniform_weights(GRAPHS[name], seed=seed + 1)
        m_g, res_g = lps_interleaved_mwm(g, seed=seed)
        m_a, res_a = lps_interleaved_mwm(g, seed=seed, backend="array")
        assert sorted(m_g.edges()) == sorted(m_a.edges())
        assert res_g == res_a


@pytest.mark.parametrize("seed", [0, 1, 9])
@pytest.mark.parametrize("name", ["gnp", "ba", "star", "isolated"])
class TestLpsMwmEquivalence:
    def test_lps_mwm(self, name, seed):
        g = assign_uniform_weights(GRAPHS[name], seed=seed + 1)
        m_g, res_g = lps_mwm(g, seed=seed)
        m_a, res_a = lps_mwm(g, seed=seed, backend="array")
        assert sorted(m_g.edges()) == sorted(m_a.edges())
        assert res_g == res_a


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["gnp", "ba", "cycle"])
class TestWeightedMwmEquivalence:
    """Algorithm 5 end to end: kernel + box + wrap surgery, both boxes."""

    def test_sequential_box(self, name, seed):
        g = assign_uniform_weights(GRAPHS[name], seed=seed + 1)
        m_g, res_g, it_g = weighted_mwm(g, eps=0.3, seed=seed)
        m_a, res_a, it_a = weighted_mwm(g, eps=0.3, seed=seed, backend="array")
        assert sorted(m_g.edges()) == sorted(m_a.edges())
        assert res_g == res_a
        assert it_g == it_a

    def test_interleaved_box_adaptive(self, name, seed):
        g = assign_uniform_weights(GRAPHS[name], seed=seed + 1)
        m_g, res_g, it_g = weighted_mwm(
            g, eps=0.3, seed=seed, box="interleaved", adaptive=True
        )
        m_a, res_a, it_a = weighted_mwm(
            g, eps=0.3, seed=seed, box="interleaved", adaptive=True,
            backend="array",
        )
        assert sorted(m_g.edges()) == sorted(m_a.edges())
        assert res_g == res_a
        assert it_g == it_a


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", ["gnp", "ba", "crown", "isolated"])
class TestKoptEquivalence:
    def test_kopt(self, name, k):
        g = assign_uniform_weights(GRAPHS[name], seed=k)
        m_s, p_s = kopt_mwm(g, k=k)
        m_a, p_a = kopt_mwm(g, k=k, backend="array")
        assert sorted(m_s.edges()) == sorted(m_a.edges())
        assert p_s == p_a


class TestArrayBackendMatchesGoldens:
    """Array-backend reruns of the golden cells, byte-compared.

    The golden file was captured *before* the CSR refactor and has
    pinned the generator engine ever since; matching it from the array
    backend closes the chain: pre-refactor engine == generator backend
    == array backend.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def _assert_cell(self, golden, key, computed):
        assert to_canonical_json(computed) == to_canonical_json(golden[key])

    def test_luby_cells(self, golden):
        mis, res = luby_mis(barabasi_albert(30, 2, seed=2), seed=5, backend="array")
        self._assert_cell(
            golden, "luby_mis/ba30", {"mis": sorted(mis), "res": _res_dict(res)}
        )
        mis, res = luby_mis(gnp_random(24, 0.2, seed=1), seed=6, backend="array")
        self._assert_cell(
            golden, "luby_mis/gnp24", {"mis": sorted(mis), "res": _res_dict(res)}
        )

    def test_israeli_itai_cells(self, golden):
        m, res = israeli_itai_matching(
            gnp_random(24, 0.2, seed=1), seed=5, backend="array"
        )
        self._assert_cell(
            golden, "israeli_itai/gnp24", {"edges": _edges(m), "res": _res_dict(res)}
        )
        m, res = israeli_itai_matching(
            barabasi_albert(30, 2, seed=2), seed=7, backend="array"
        )
        self._assert_cell(
            golden, "israeli_itai/ba30", {"edges": _edges(m), "res": _res_dict(res)}
        )

    def test_cole_vishkin_cells(self, golden):
        g = cycle_graph(9)
        colors, res = ring_coloring(g, backend="array")
        self._assert_cell(
            golden,
            "cole_vishkin_coloring/ring9",
            {
                "colors": {str(k): colors[k] for k in sorted(colors)},
                "res": _res_dict(res),
            },
        )
        m, res = ring_maximal_matching(g, backend="array")
        self._assert_cell(
            golden,
            "cole_vishkin_matching/ring9",
            {"edges": _edges(m), "res": _res_dict(res)},
        )

    def test_lps_interleaved_cell(self, golden):
        g_w = assign_uniform_weights(gnp_random(20, 0.3, seed=3), seed=4)
        m, res = lps_interleaved_mwm(g_w, seed=9, backend="array")
        self._assert_cell(
            golden,
            "lps_interleaved/gnp20w",
            {"edges": _edges(m), "res": _res_dict(res)},
        )

    def test_generic_mcm_cell(self, golden):
        m, stats = generic_mcm(comb_graph(8), k=2, seed=7, backend="array")
        self._assert_cell(
            golden,
            "generic_mcm/comb8",
            {
                "edges": _edges(m),
                "conflict_sizes": {
                    str(k): v for k, v in sorted(stats.conflict_sizes.items())
                },
                "mis_sizes": {str(k): v for k, v in sorted(stats.mis_sizes.items())},
                "res": _res_dict(stats.result),
            },
        )

    def test_lps_mwm_cells(self, golden):
        g_w = assign_uniform_weights(gnp_random(20, 0.3, seed=3), seed=4)
        m, res = lps_mwm(g_w, seed=9, backend="array")
        self._assert_cell(
            golden, "lps_mwm/gnp20w", {"edges": _edges(m), "res": _res_dict(res)}
        )
        g_baw = assign_uniform_weights(barabasi_albert(30, 2, seed=2), seed=8)
        m, res = lps_mwm(g_baw, seed=11, backend="array")
        self._assert_cell(
            golden, "lps_mwm/ba30w", {"edges": _edges(m), "res": _res_dict(res)}
        )

    def test_weighted_mwm_cells(self, golden):
        g_w = assign_uniform_weights(gnp_random(20, 0.3, seed=3), seed=4)
        m, res, iters = weighted_mwm(g_w, eps=0.3, seed=7, backend="array")
        self._assert_cell(
            golden,
            "weighted_mwm/gnp20w",
            {
                "edges": _edges(m),
                "weight": m.weight(),
                "iterations": iters,
                "res": _res_dict(res),
            },
        )
        m, res, iters = weighted_mwm(
            g_w, eps=0.3, seed=7, box="interleaved", backend="array"
        )
        self._assert_cell(
            golden,
            "weighted_mwm_interleaved/gnp20w",
            {
                "edges": _edges(m),
                "weight": m.weight(),
                "iterations": iters,
                "res": _res_dict(res),
            },
        )

    def test_kopt_cell(self, golden):
        g_w = assign_uniform_weights(gnp_random(20, 0.3, seed=3), seed=4)
        m, passes = kopt_mwm(g_w, k=2, backend="array")
        self._assert_cell(
            golden,
            "kopt_mwm/gnp20w",
            {"edges": _edges(m), "weight": m.weight(), "passes": passes},
        )
