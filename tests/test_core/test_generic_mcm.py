"""Tests for Algorithms 1 & 2 (Theorem 3.1)."""

import importlib

import numpy as np
import pytest

from repro.core import generic_mcm, generic_mcm_reference
from repro.core.generic_mcm import flood_views_array, flood_views_program
from repro.distributed import Network
from repro.distributed.backends import run_program_batched
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    gnp_random,
    path_graph,
    star_graph,
)
from repro.graphs.graph import forced_index_dtype
from repro.matching import greedy_maximal_matching, maximum_matching_size

# The module, not the ``repro.core.generic_mcm`` function it exports.
FLOOD = importlib.import_module("repro.core.generic_mcm")


def _flood_shapes() -> dict[str, Graph]:
    with forced_index_dtype(np.int64):
        wide = gnp_random(24, 0.15, seed=4)
    assert wide.index_dtype == np.int64
    return {
        "empty": Graph(0, []),
        "single": Graph(1, []),
        "isolated": Graph(6, [(1, 4)]),
        "path": path_graph(7),
        "star": star_graph(7),
        "cycle": cycle_graph(9),
        "k6": complete_graph(6),
        "two_components": Graph(
            9, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (6, 7), (7, 8)]
        ),
        "gnp_int64": wide,
    }


FLOOD_SHAPES = _flood_shapes()


def _flood(g, backend, depth, keep_views, max_rounds=1_000_000):
    # A maximal matching, so matched and free flags mix in the views.
    mates = greedy_maximal_matching(g).mate_array().tolist()
    return run_program_batched(
        g,
        backend=backend,
        generator_program=flood_views_program,
        batched_array_program=flood_views_array,
        params={"depth": depth, "mates": mates, "keep_views": keep_views},
        seeds=[0],
        max_rounds=max_rounds,
    )[0]


def _outcome(run):
    """A run's result, or its budget error's message."""
    try:
        return run()
    except RuntimeError as exc:
        return str(exc)


class TestFlooding:
    def _views(self, g, mates, depth):
        net = Network(
            g, flood_views_program, params={"depth": depth, "mates": mates}
        )
        return net.run().outputs

    def test_depth_zero_sees_self(self):
        g = path_graph(3)
        views = self._views(g, [-1, -1, -1], 0)
        assert ("v", 0, True) in views[0]
        assert ("e", 0, 1, False) in views[0]
        assert not any(rec[1] == 2 for rec in views[0] if rec[0] == "v")

    def test_depth_covers_ball(self):
        g = path_graph(5)
        views = self._views(g, [-1] * 5, 2)
        # node 0 at depth 2 knows vertices 0,1,2 and edge (2,3) via node 2's
        # incident list, but not vertex record of 4.
        vids = {rec[1] for rec in views[0] if rec[0] == "v"}
        assert vids == {0, 1, 2}

    def test_matched_flags_propagate(self):
        g = path_graph(3)
        views = self._views(g, [1, 0, -1], 1)
        assert ("e", 0, 1, True) in views[2]

    def test_full_depth_equals_whole_component(self):
        g = cycle_graph(6)
        views = self._views(g, [-1] * 6, 6)
        for v in range(6):
            assert len([r for r in views[v] if r[0] == "e"]) == 6

    def test_message_sizes_bounded_by_graph_size(self):
        g = gnp_random(20, 0.2, seed=1)
        net = Network(
            g, flood_views_program, params={"depth": 4, "mates": [-1] * 20}
        )
        res = net.run()
        # Theorem 3.1: messages O(|V|+|E|) — each record ~O(log n) bits.
        per_record = 3 + 2 * 7 + 8  # flags + 2 ids + tag, loose
        assert res.max_message_bits <= (g.n + g.m) * per_record


class TestArrayFloodIdentity:
    """The layered array flood against the generator reference.

    ``FLOOD_CELLS`` of 1 and 7 force blocks of one and of a few sources;
    the default runs every shape here as one block.
    """

    @pytest.mark.parametrize("cells", [1, 7, None])
    @pytest.mark.parametrize("shape", sorted(FLOOD_SHAPES))
    def test_run_result_equals_generator(self, monkeypatch, shape, cells):
        if cells is not None:
            monkeypatch.setattr(FLOOD, "FLOOD_CELLS", cells)
        g = FLOOD_SHAPES[shape]
        for depth in range(8):
            for keep_views in (True, False):
                want = _flood(g, "generator", depth, keep_views)
                got = _flood(g, "array", depth, keep_views)
                assert got == want, (depth, keep_views)

    @pytest.mark.parametrize("shape", sorted(FLOOD_SHAPES))
    def test_round_budget(self, monkeypatch, shape):
        monkeypatch.setattr(FLOOD, "FLOOD_CELLS", 7)
        g = FLOOD_SHAPES[shape]
        for depth in (0, 1, 3):
            for budget in (depth, depth + 1):
                want, got = (
                    _outcome(lambda: _flood(g, backend, depth, False, budget))
                    for backend in ("generator", "array")
                )
                assert got == want, (depth, budget)
                # The final resume needs one round past the flood.
                assert isinstance(want, str) == (budget == depth and g.n > 0)

    def test_generic_mcm_round_budget(self):
        g = FLOOD_SHAPES["gnp_int64"]
        for budget in range(9):
            want, got = (
                _outcome(lambda: generic_mcm(
                    g, k=2, seed=1, max_rounds=budget, backend=backend
                )[1].result)
                for backend in ("generator", "array")
            )
            assert got == want, budget


class TestApproximation:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ratio_on_paths(self, k):
        g = path_graph(12)
        m, _ = generic_mcm(g, k=k, seed=1)
        opt = maximum_matching_size(g)
        assert len(m) >= (1 - 1 / (k + 1)) * opt - 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_ratio_on_random_k2(self, seed):
        g = gnp_random(40, 0.08, seed=seed)
        m, _ = generic_mcm(g, k=2, seed=seed)
        opt = maximum_matching_size(g)
        assert len(m) >= (1 - 1 / 3) * opt - 1e-9

    def test_k1_gives_maximal(self):
        g = gnp_random(30, 0.1, seed=5)
        m, _ = generic_mcm(g, k=1, seed=5)
        assert m.is_maximal()

    def test_eps_parameter(self):
        g = gnp_random(30, 0.1, seed=6)
        m, _ = generic_mcm(g, eps=0.5, seed=6)  # k = 2
        opt = maximum_matching_size(g)
        assert len(m) >= 0.5 * opt

    def test_odd_cycle_blossom_case(self):
        g = cycle_graph(5)
        m, _ = generic_mcm(g, k=2, seed=7)
        assert len(m) == 2

    def test_param_validation(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            generic_mcm(g)  # neither k nor eps
        with pytest.raises(ValueError):
            generic_mcm(g, k=2, eps=0.1)  # both
        with pytest.raises(ValueError):
            generic_mcm(g, eps=1.5)
        with pytest.raises(ValueError):
            generic_mcm(g, k=0)


class TestStats:
    def test_conflict_sizes_recorded(self):
        g = path_graph(8)
        _, stats = generic_mcm(g, k=2, seed=8)
        assert 1 in stats.conflict_sizes and 3 in stats.conflict_sizes

    def test_charged_rounds_positive_when_mis_ran(self):
        g = gnp_random(20, 0.2, seed=9)
        _, stats = generic_mcm(g, k=2, seed=9)
        assert stats.result.charged_rounds > 0
        assert stats.result.rounds > 0  # flooding was simulated

    def test_views_exposed_for_verification(self):
        g = path_graph(5)
        _, stats = generic_mcm(g, k=1, seed=10)
        assert set(stats.views) == set(range(5))


class TestReference:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_reference_guarantee(self, k, seed):
        g = gnp_random(30, 0.1, seed=seed)
        m = generic_mcm_reference(g, k, seed=seed)
        opt = maximum_matching_size(g)
        assert len(m) >= (1 - 1 / (k + 1)) * opt - 1e-9

    def test_reference_deterministic_without_seed(self):
        g = gnp_random(25, 0.15, seed=11)
        assert generic_mcm_reference(g, 2) == generic_mcm_reference(g, 2)

    def test_distributed_matches_reference_quality(self):
        """Same guarantee; sizes within each other's phase bounds."""
        g = gnp_random(30, 0.12, seed=12)
        md, _ = generic_mcm(g, k=2, seed=12)
        mr = generic_mcm_reference(g, 2)
        opt = maximum_matching_size(g)
        for m in (md, mr):
            assert len(m) >= (2 / 3) * opt - 1e-9
