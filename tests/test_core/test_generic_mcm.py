"""Tests for Algorithms 1 & 2 (Theorem 3.1)."""

import dataclasses
import functools
import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import generic_mcm, generic_mcm_reference
from repro.core.generic_mcm import flood_views_array, flood_views_program
from repro.distributed import Network
from repro.distributed.backends import BatchedArrayContext, run_program_batched
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
        # 150 sources: one block spans three words, the last one partial.
        "multiword": gnp_random(150, 0.03, seed=2),
    }


FLOOD_SHAPES = _flood_shapes()

#: ``FLOOD_CELLS`` for small blocks and chunks: 15 000 makes blocks of
#: 100 sources on the multiword shape; elsewhere 256 makes blocks of 10
#: on gnp_int64 and chunks of 4 bit rows.
SMALL_CELLS = {"multiword": 15_000}


def _set_switch(monkeypatch, switch):
    """Keep the switch rule, never switch, or switch at layer ``switch``."""
    if switch == "never":
        monkeypatch.setattr(FLOOD, "FLOOD_SWITCH", 0)
    elif switch != "rule":
        monkeypatch.setattr(
            FLOOD, "_switches", lambda layer, slots, words: layer >= switch
        )


def _layers_reached(g):
    """The most breadth-first layers any source has: its eccentricity + 1."""
    nbrs = g.neighbor_sets()
    most = 0
    for v in range(g.n):
        seen, front, layers = {v}, {v}, 0
        while front:
            layers += 1
            front = {w for u in front for w in nbrs[u]} - seen
            seen |= front
        most = max(most, layers)
    return most


def _identity_cases():
    """The switch rule, no switch, and a switch forced at every layer a
    search reaches, under one block and under small blocks and chunks
    (views there under the rule and without a switch only); one-source
    blocks (chunks of one row) under the rule and without a switch, on
    every shape but multiword."""
    for shape, g in sorted(FLOOD_SHAPES.items()):
        switches = ["rule", "never", *range(min(_layers_reached(g), 8))]
        for switch in switches:
            yield shape, None, switch
            yield shape, SMALL_CELLS.get(shape, 256), switch
        if shape != "multiword":
            yield shape, 1, "rule"
            yield shape, 1, "never"


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


@functools.cache
def _reference(shape, depth, keep_views):
    """The generator flood of a shape, run once per test run: the run
    without views is the run with views, its outputs all ``None``."""
    if not keep_views:
        res = _reference(shape, depth, True)
        return dataclasses.replace(res, outputs=dict.fromkeys(res.outputs))
    return _flood(FLOOD_SHAPES[shape], "generator", depth, keep_views)


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

    ``FLOOD_CELLS`` of 1 forces blocks of one source, and
    ``SMALL_CELLS`` small blocks and chunks; the default runs every shape
    here as one block.  The switch settings run the ragged search alone,
    the bit kernel from every layer on, and the rule's own choice.
    """

    @pytest.mark.parametrize("shape,cells,switch", list(_identity_cases()))
    def test_run_result_equals_generator(self, monkeypatch, shape, cells, switch):
        if cells is not None:
            monkeypatch.setattr(FLOOD, "FLOOD_CELLS", cells)
        _set_switch(monkeypatch, switch)
        g = FLOOD_SHAPES[shape]
        forced = isinstance(switch, int)
        for depth in range(8):
            for keep_views in (True, False):
                if forced and switch >= depth + keep_views:
                    continue  # the search ends before the forced layer
                if forced and keep_views and cells:
                    continue  # small blocks: views without a forced switch
                want = _reference(shape, depth, keep_views)
                got = _flood(g, "array", depth, keep_views)
                assert got == want, (depth, keep_views)

    @pytest.mark.parametrize("switch", ["rule", 0])
    @pytest.mark.parametrize("shape", sorted(FLOOD_SHAPES))
    def test_round_budget(self, monkeypatch, shape, switch):
        monkeypatch.setattr(FLOOD, "FLOOD_CELLS", SMALL_CELLS.get(shape, 7))
        _set_switch(monkeypatch, switch)
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

    @pytest.mark.parametrize("switch", ["rule", 0])
    def test_generic_mcm_round_budget(self, monkeypatch, switch):
        _set_switch(monkeypatch, switch)
        g = FLOOD_SHAPES["gnp_int64"]
        for budget in range(9):
            want, got = (
                _outcome(lambda: generic_mcm(
                    g, k=2, seed=1, max_rounds=budget, backend=backend
                )[1].result)
                for backend in ("generator", "array")
            )
            assert got == want, budget

    def test_bit_kernel_equals_ragged_search(self):
        # Runs of hundreds of equal-size records (vertex ids 256..511,
        # and the commonest edge sizes) in a block of ten words.
        g = gnp_random(600, 0.01, seed=3)
        with pytest.MonkeyPatch.context() as never:
            _set_switch(never, "never")
            want = _flood(g, "array", 5, False)
        for switch in ("rule", *range(5)):
            with pytest.MonkeyPatch.context() as forced:
                _set_switch(forced, switch)
                assert _flood(g, "array", 5, False) == want, switch

    @pytest.mark.parametrize("shape", ["path", "two_components"])
    def test_idle_tail(self, monkeypatch, shape):
        # Every ball fills its component within 7 rounds; the other 33
        # rounds are silent and replay as one idle_steps call.
        g = FLOOD_SHAPES[shape]
        resumes = []
        begin = BatchedArrayContext.begin_step

        def counted(ctx, live):
            resumes.append(1)
            begin(ctx, live)

        monkeypatch.setattr(BatchedArrayContext, "begin_step", counted)
        for keep_views in (True, False):
            for budget in (3, 6, 7, 8, 20, 40, 41):
                want, got = (
                    _outcome(lambda: _flood(g, backend, 40, keep_views, budget))
                    for backend in ("generator", "array")
                )
                assert got == want, (keep_views, budget)
            resumes.clear()
            _flood(g, "array", 40, keep_views)
            assert len(resumes) <= g.n + 1

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(0, 40),
        p=st.sampled_from([0.0, 0.03, 0.08, 0.15, 0.3]),
        seed=st.integers(0, 2**16),
        depth=st.integers(0, 7),
        keep_views=st.booleans(),
        switch=st.one_of(st.just("rule"), st.integers(0, 8)),
    )
    @example(n=0, p=0.0, seed=0, depth=3, keep_views=True, switch=0)
    @example(n=1, p=0.0, seed=0, depth=2, keep_views=False, switch=0)
    @example(n=12, p=0.03, seed=5, depth=7, keep_views=True, switch=1)
    def test_random_graphs_equal_generator(
        self, n, p, seed, depth, keep_views, switch
    ):
        g = gnp_random(n, p, seed=seed)
        want = _flood(g, "generator", depth, keep_views)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _set_switch(monkeypatch, switch)
            assert _flood(g, "array", depth, keep_views) == want


class TestFloodMemory:
    """The flood's traced peaks: a saturated flood, and chunked bit layers."""

    def test_saturated_flood_peak(self):
        # single_seed's deepest phase: balls of ~44% of the graph at
        # radius 5.  The ragged search alone peaks near 290 MB here.
        g = gnp_random(2000, 4 / 1999, seed=7)
        tracemalloc.start()
        try:
            _flood(g, "array", 6, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak

    def test_bit_layers_work_in_chunks(self, monkeypatch):
        # A whole bit layer of G(400, 1/2) gathers 4.5 MB of neighbour
        # rows and unpacks 18 MB of edge rows; in chunks the bit layers
        # stay within 1.5 FLOOD_CELLS over what the flood held before.
        g = gnp_random(400, 0.5, seed=1)
        cells = 1 << 20
        monkeypatch.setattr(FLOOD, "FLOOD_CELLS", cells)
        want = _flood(g, "array", 3, False)
        peaks = []
        run = FLOOD._BitFlood.run

        def traced(kernel, *args):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            yield from run(kernel, *args)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)

        monkeypatch.setattr(FLOOD._BitFlood, "run", traced)
        _set_switch(monkeypatch, 0)
        tracemalloc.start()
        try:
            got = _flood(g, "array", 3, False)
        finally:
            tracemalloc.stop()
        assert got == want
        assert peaks and max(peaks) < 1.5 * cells, peaks


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
