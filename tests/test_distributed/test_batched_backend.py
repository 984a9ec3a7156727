"""Batched array execution == per-seed sequential execution, byte for byte.

The ISSUE 4 acceptance bar: a :class:`BatchedArrayBackend` run over a
seed batch must produce, for every seed, a ``RunResult`` byte-identical
to the generator backend's (and the one-lane array backend's) run of
that seed — asserted three ways:

* direct ``RunResult`` equality across the four scenario generator
  families used by the backend benches (Barabási–Albert,
  Watts–Strogatz, G(n,p), power-law configuration) and degenerate
  graphs;
* on a batch with **mixed early termination** — seeds that finish
  rounds earlier than others keep contributing nothing while the
  stragglers run (the per-seed round counts in one batch differ, and
  every seed still matches its solo run);
* against the **pre-refactor goldens**: the batched rerun of each
  golden cell, embedded in a larger batch, must serialize to exactly
  the bytes stored in ``tests/goldens/seed_identity.json``.
"""

import json

import numpy as np
import pytest

from repro.baselines.israeli_itai import (
    israeli_itai_matching,
    israeli_itai_matching_batched,
)
from repro.baselines.lps_interleaved import (
    lps_interleaved_array,
    lps_interleaved_program,
)
from repro.baselines.lps_mwm import lps_mwm, lps_mwm_batched
from repro.baselines.luby_mis import luby_mis, luby_mis_batched, verify_mis
from repro.core.weighted_mwm import weighted_mwm, weighted_mwm_batched
from repro.distributed import run_program_batched
from repro.graphs import (
    Graph,
    barabasi_albert,
    gnp_random,
    powerlaw_configuration,
    watts_strogatz,
)
from repro.graphs.weights import assign_uniform_weights

from tests.golden_harness import GOLDEN_PATH, _edges, _res_dict, to_canonical_json

#: The four scenario generator families of the backend benches.
FAMILIES = {
    "barabasi_albert": lambda: barabasi_albert(40, 3, seed=2),
    "watts_strogatz": lambda: watts_strogatz(30, 4, 0.2, seed=3),
    "gnp": lambda: gnp_random(35, 0.15, seed=1),
    "powerlaw": lambda: powerlaw_configuration(40, 2.5, seed=4),
}

SEEDS = [0, 1, 2, 5, 9]


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestBatchedIdentityAcrossFamilies:
    def test_luby_mis(self, family):
        g = FAMILIES[family]()
        batched = luby_mis_batched(g, SEEDS)
        reference = luby_mis_batched(g, SEEDS, backend="generator")
        for s, (mis_b, res_b), (mis_g, res_g) in zip(SEEDS, batched, reference):
            assert mis_b == mis_g, f"seed {s}"
            assert res_b == res_g, f"seed {s}"
            mis_a, res_a = luby_mis(g, seed=s, backend="array")
            assert mis_b == mis_a and res_b == res_a
            assert verify_mis(g, mis_b)

    def test_israeli_itai(self, family):
        g = FAMILIES[family]()
        batched = israeli_itai_matching_batched(g, SEEDS)
        reference = israeli_itai_matching_batched(g, SEEDS, backend="generator")
        for s, (m_b, res_b), (m_g, res_g) in zip(SEEDS, batched, reference):
            assert sorted(m_b.edges()) == sorted(m_g.edges()), f"seed {s}"
            assert res_b == res_g, f"seed {s}"
            m_a, res_a = israeli_itai_matching(g, seed=s, backend="array")
            assert sorted(m_b.edges()) == sorted(m_a.edges()) and res_b == res_a

    def test_lps_mwm(self, family):
        g = assign_uniform_weights(FAMILIES[family](), seed=6)
        batched = lps_mwm_batched(g, SEEDS)
        reference = lps_mwm_batched(g, SEEDS, backend="generator")
        for s, (m_b, res_b), (m_g, res_g) in zip(SEEDS, batched, reference):
            assert sorted(m_b.edges()) == sorted(m_g.edges()), f"seed {s}"
            assert res_b == res_g, f"seed {s}"
            m_a, res_a = lps_mwm(g, seed=s, backend="array")
            assert sorted(m_b.edges()) == sorted(m_a.edges()) and res_b == res_a

    def test_lps_interleaved(self, family):
        # No batched wrapper exists: drive the program over the seed list.
        g = assign_uniform_weights(FAMILIES[family](), seed=6)
        runs = [
            run_program_batched(
                g,
                backend=backend,
                generator_program=lps_interleaved_program,
                batched_array_program=lps_interleaved_array,
                params={"wmax": float(g.weights_array().max()),
                        "num_classes": 16},
                seeds=SEEDS,
            )
            for backend in ("array", "generator")
        ]
        assert runs[0] == runs[1]

    def test_weighted_mwm(self, family):
        g = assign_uniform_weights(FAMILIES[family](), seed=6)
        seeds = SEEDS[:3]
        batched = weighted_mwm_batched(g, seeds, eps=0.3)
        for s, (m_b, res_b, it_b) in zip(seeds, batched):
            m_g, res_g, it_g = weighted_mwm(g, eps=0.3, seed=s)
            assert sorted(m_b.edges()) == sorted(m_g.edges()), f"seed {s}"
            assert res_b == res_g, f"seed {s}"
            assert it_b == it_g, f"seed {s}"


class TestMixedEarlyTermination:
    """Seeds in one batch finish at different rounds; identity holds."""

    def test_luby_round_counts_diverge_within_batch(self):
        g = barabasi_albert(40, 3, seed=2)
        seeds = list(range(12))
        batched = luby_mis_batched(g, seeds)
        rounds = [res.rounds for _, res in batched]
        # The point of the masked-termination design: seeds genuinely
        # stop at different rounds inside one batched run...
        assert len(set(rounds)) > 1, rounds
        # ...and every seed still matches its solo generator run.
        for s, (mis_b, res_b) in zip(seeds, batched):
            mis_g, res_g = luby_mis(g, seed=s)
            assert mis_b == mis_g and res_b == res_g

    def test_israeli_itai_mixed_termination(self):
        g = gnp_random(35, 0.15, seed=1)
        seeds = list(range(10))
        batched = israeli_itai_matching_batched(g, seeds)
        rounds = [res.rounds for _, res in batched]
        assert len(set(rounds)) > 1, rounds
        for s, (m_b, res_b) in zip(seeds, batched):
            m_g, res_g = israeli_itai_matching(g, seed=s)
            assert sorted(m_b.edges()) == sorted(m_g.edges()) and res_b == res_g

    def test_degenerate_graphs(self):
        for g in (Graph(6), Graph(8, [(0, 1), (2, 3)])):
            for (mis_b, res_b), s in zip(luby_mis_batched(g, SEEDS), SEEDS):
                mis_g, res_g = luby_mis(g, seed=s)
                assert mis_b == mis_g and res_b == res_g
            for (m_b, res_b), s in zip(
                israeli_itai_matching_batched(g, SEEDS), SEEDS
            ):
                m_g, res_g = israeli_itai_matching(g, seed=s)
                assert sorted(m_b.edges()) == sorted(m_g.edges())
                assert res_b == res_g

    def test_budget_error_matches_generator_semantics(self):
        g = barabasi_albert(40, 3, seed=2)
        with pytest.raises(RuntimeError, match="still running"):
            luby_mis_batched(g, SEEDS, max_rounds=1)
        with pytest.raises(RuntimeError, match="still running"):
            luby_mis(g, seed=0, max_rounds=1)

    def test_single_seed_batch(self):
        g = watts_strogatz(30, 4, 0.2, seed=3)
        ((mis_b, res_b),) = luby_mis_batched(g, [7])
        mis_g, res_g = luby_mis(g, seed=7)
        assert mis_b == mis_g and res_b == res_g

    def test_weighted_mwm_adaptive_lanes_stop_independently(self):
        # Under ``adaptive`` lanes leave the pipeline at different
        # iterations (their derived weights dry up at different times);
        # every lane must still match its solo adaptive run.
        g = assign_uniform_weights(gnp_random(28, 0.2, seed=5), seed=5)
        seeds = list(range(6))
        batched = weighted_mwm_batched(g, seeds, eps=0.3, adaptive=True)
        iters = [it for _, _, it in batched]
        assert len(set(iters)) > 1, iters
        for s, (m_b, res_b, it_b) in zip(seeds, batched):
            m_g, res_g, it_g = weighted_mwm(g, eps=0.3, seed=s, adaptive=True)
            assert sorted(m_b.edges()) == sorted(m_g.edges()), f"seed {s}"
            assert res_b == res_g and it_b == it_g, f"seed {s}"

    def test_weighted_degenerate_graphs(self):
        for g0 in (Graph(6), Graph(8, [(0, 1), (2, 3)])):
            g = assign_uniform_weights(g0, seed=1)
            for (m_b, res_b, it_b), s in zip(
                weighted_mwm_batched(g, SEEDS, eps=0.3), SEEDS
            ):
                m_g, res_g, it_g = weighted_mwm(g, eps=0.3, seed=s)
                assert sorted(m_b.edges()) == sorted(m_g.edges())
                assert res_b == res_g and it_b == it_g


class TestBatchedMatchesGoldens:
    """Batched reruns of the golden cells, byte-compared.

    Each golden seed is embedded in a *larger* batch (extra seeds on
    both sides), so the assertion also proves neighboring lanes cannot
    perturb a seed's stream or accounting.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def _assert_cell(self, golden, key, computed):
        assert to_canonical_json(computed) == to_canonical_json(golden[key])

    def test_luby_cells(self, golden):
        results = luby_mis_batched(barabasi_albert(30, 2, seed=2), [1, 5, 11])
        mis, res = results[1]  # seed 5, surrounded by other lanes
        self._assert_cell(
            golden, "luby_mis/ba30", {"mis": sorted(mis), "res": _res_dict(res)}
        )
        results = luby_mis_batched(gnp_random(24, 0.2, seed=1), [0, 6, 13])
        mis, res = results[1]  # seed 6
        self._assert_cell(
            golden, "luby_mis/gnp24", {"mis": sorted(mis), "res": _res_dict(res)}
        )

    def test_israeli_itai_cells(self, golden):
        results = israeli_itai_matching_batched(
            gnp_random(24, 0.2, seed=1), [2, 5, 8]
        )
        m, res = results[1]  # seed 5
        self._assert_cell(
            golden, "israeli_itai/gnp24", {"edges": _edges(m), "res": _res_dict(res)}
        )
        results = israeli_itai_matching_batched(
            barabasi_albert(30, 2, seed=2), [3, 7, 12]
        )
        m, res = results[1]  # seed 7
        self._assert_cell(
            golden, "israeli_itai/ba30", {"edges": _edges(m), "res": _res_dict(res)}
        )

    def test_lps_mwm_cells(self, golden):
        g_w = assign_uniform_weights(gnp_random(20, 0.3, seed=3), seed=4)
        results = lps_mwm_batched(g_w, [2, 9, 14])
        m, res = results[1]  # seed 9, surrounded by other lanes
        self._assert_cell(
            golden, "lps_mwm/gnp20w", {"edges": _edges(m), "res": _res_dict(res)}
        )
        g_baw = assign_uniform_weights(barabasi_albert(30, 2, seed=2), seed=8)
        results = lps_mwm_batched(g_baw, [4, 11, 21])
        m, res = results[1]  # seed 11
        self._assert_cell(
            golden, "lps_mwm/ba30w", {"edges": _edges(m), "res": _res_dict(res)}
        )

    def test_weighted_mwm_cell(self, golden):
        g_w = assign_uniform_weights(gnp_random(20, 0.3, seed=3), seed=4)
        results = weighted_mwm_batched(g_w, [1, 7, 19], eps=0.3)
        m, res, iters = results[1]  # seed 7
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
