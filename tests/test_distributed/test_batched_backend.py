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

import functools
import json
from importlib import import_module

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
from repro.baselines.lps_mwm import (
    _lps_params,
    _weight_class,
    lps_mwm,
    lps_mwm_batched,
)
from repro.baselines.luby_mis import luby_mis, luby_mis_batched, verify_mis
from repro.core.weighted_mwm import (
    _EPS_W,
    default_iterations,
    derived_weights_array,
    weighted_mwm,
    weighted_mwm_batched,
)
from repro.distributed import run_program_batched
from repro.graphs import (
    Graph,
    barabasi_albert,
    gnp_random,
    powerlaw_configuration,
    star_graph,
    watts_strogatz,
)
from repro.graphs.graph import forced_index_dtype
from repro.graphs.weights import assign_uniform_weights

from tests.golden_harness import GOLDEN_PATH, _edges, _res_dict, to_canonical_json

#: the module itself (``repro.core`` re-exports a function of its name)
weighted_module = import_module("repro.core.weighted_mwm")

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


def _gapped_gnp() -> Graph:
    """G(120, 0.02) with vertices 0, 60 and 119 cut off.

    Iteration 1's support already skips them, so every compact vertex
    id differs from its node id from vertex 1 on.
    """
    g = gnp_random(120, 0.02, seed=1)
    lo, hi = g.endpoints_array()
    cut = np.isin(lo, (0, 60, 119)) | np.isin(hi, (0, 60, 119))
    return assign_uniform_weights(g.subgraph(np.flatnonzero(~cut)), seed=2)


def _two_scales() -> Graph:
    """Two components with weights on scales 1 and 100."""
    a = assign_uniform_weights(gnp_random(16, 0.3, seed=3), seed=5)
    b = assign_uniform_weights(gnp_random(16, 0.3, seed=4), seed=6)
    edges = [np.stack(x.endpoints_array(), axis=1) for x in (a, b)]
    return Graph(
        32,
        np.concatenate([edges[0], edges[1] + 16]),
        np.concatenate([a.weights_array(), 100.0 * b.weights_array()]),
    )


#: Graphs whose Algorithm 5 supports have gaps, and the seeds per cell.
SUPPORT_GRAPHS = {
    "gapped_gnp": (_gapped_gnp, [0, 1]),
    "two_scales": (_two_scales, [0, 1, 2]),
    "star": (lambda: assign_uniform_weights(star_graph(13), seed=7), [0, 1, 2]),
}


@functools.lru_cache(maxsize=None)
def _generator_runs(name: str, adaptive: bool) -> list:
    build, seeds = SUPPORT_GRAPHS[name]
    g = build()
    return [weighted_mwm(g, seed=s, adaptive=adaptive) for s in seeds]


class TestCompactedBox:
    """The box runs on the lanes' positive-edge support, not on ``g``.

    At the default eps=0.1 all 23 iterations run and the supports
    shrink; every lane must still equal its generator run.
    """

    @pytest.mark.parametrize("index_dtype", [None, np.int64])
    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("name", sorted(SUPPORT_GRAPHS))
    def test_matches_generator(self, name, adaptive, index_dtype):
        build, seeds = SUPPORT_GRAPHS[name]
        with forced_index_dtype(index_dtype):
            batched = weighted_mwm_batched(build(), seeds, adaptive=adaptive)
        for s, (m_b, res_b, it_b), (m_g, res_g, it_g) in zip(
            seeds, batched, _generator_runs(name, adaptive)
        ):
            assert sorted(m_b.edges()) == sorted(m_g.edges()), f"seed {s}"
            assert res_b == res_g and it_b == it_g, f"seed {s}"

    def test_budget_error_counts_every_node(self):
        # Iteration 1's support leaves 3 vertices out; the lockstep
        # schedule still runs all n nodes, and the error says so.
        g = _gapped_gnp()
        messages = []
        for backend in ("generator", "array"):
            with pytest.raises(RuntimeError) as err:
                weighted_mwm(g, seed=0, backend=backend, max_rounds=5)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[1].startswith(f"{g.n} node(s) still running after 5 ")

    def test_box_graph_is_the_union_support(self, monkeypatch):
        # Every box call, at every iteration, against the full w_M
        # kernel on the mates the lanes hold when the call is made: the
        # support and its node ids, and each lane's half-edge classes
        # and broadcast degrees, element by element.
        g = _gapped_gnp()
        seeds = [0, 1, 2]
        node_ids, calls = [], []
        real_ctx = weighted_module.BatchedArrayContext
        real_box = weighted_module.lps_mwm_array_batched

        def ctx_spy(graph, box_seeds, *args, **kwargs):
            node_ids.append(kwargs.get("node_ids"))
            return real_ctx(graph, box_seeds, *args, **kwargs)

        def box_spy(ctx, **params):
            calls.append((ctx.graph, params))
            return real_box(ctx, **params)

        monkeypatch.setattr(weighted_module, "BatchedArrayContext", ctx_spy)
        monkeypatch.setattr(weighted_module, "lps_mwm_array_batched", box_spy)
        weighted_mwm_batched(g, seeds)
        monkeypatch.undo()
        assert len(node_ids) == len(calls) >= 3
        lo, hi = g.endpoints_array()
        num_classes = _lps_params(g, None, None)["num_classes"]
        # A lane whose w_M has no positive edge skips the box, and its
        # mates stay put, so the calls are iterations 1..k and
        # iteration k + 1 (if it runs) has no positive edge at all.
        checked = range(1, min(len(calls) + 1, default_iterations(0.1, 0.2)) + 1)
        for it in checked:
            mates = np.stack([
                m.mate_array()
                for m, _, _ in weighted_mwm_batched(g, seeds, iterations=it - 1)
            ])
            wm = derived_weights_array(g, mates)
            pos = wm > _EPS_W
            if it > len(calls):
                assert not pos.any(), f"iteration {it}"
                continue
            sub, params = calls[it - 1]
            box = np.flatnonzero(pos.any(axis=1))
            support = np.flatnonzero(pos[box].any(axis=0))
            verts = np.unique(np.concatenate([lo[support], hi[support]]))
            assert sub.n == verts.size < g.n, f"iteration {it}"
            assert np.array_equal(node_ids[it - 1], verts), f"iteration {it}"
            s_lo, s_hi = sub.endpoints_array()
            assert verts[s_lo].tolist() == lo[support].tolist()
            assert verts[s_hi].tolist() == hi[support].tolist()
            edge = support[sub.adjacency_arrays()[2]]  # per half-edge
            want_cls = np.full((box.size, edge.size), num_classes)
            want_deg = np.zeros((box.size, verts.size), dtype=np.int64)
            for r, lane in enumerate(box):
                wmax = wm[lane][pos[lane]].max()
                for t, e in enumerate(edge):
                    if pos[lane, e]:
                        want_cls[r, t] = _weight_class(wm[lane, e], wmax)
                for e in np.flatnonzero(pos[lane]):
                    want_deg[r, np.searchsorted(verts, [lo[e], hi[e]])] += 1
            assert params["he_cls"].tolist() == want_cls.tolist(), f"iteration {it}"
            assert params["lane_degrees"].tolist() == want_deg.tolist(), (
                f"iteration {it}"
            )


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
