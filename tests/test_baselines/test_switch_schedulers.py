"""Tests for PIM and iSLIP (the switch-scheduling baselines)."""

import numpy as np
import pytest

from repro.baselines import IslipScheduler, pim_matching
from repro.baselines.pim import pim_iterations_default, pim_schedule_matrix
from repro.graphs import bipartite_random


def _requests(demand, num_outputs):
    """Boolean request matrix from per-input demand sets."""
    req = np.zeros((len(demand), num_outputs), dtype=bool)
    for i, outs in enumerate(demand):
        req[i, sorted(outs)] = True
    return req


def _pairs(mi, mj):
    return list(zip(mi.tolist(), mj.tolist()))


def _pim_pairs(demand, num_outputs, rng, iterations=None):
    """PIM's matrix core on demand sets, as (input, output) pairs."""
    return _pairs(*pim_schedule_matrix(
        _requests(demand, num_outputs), rng, iterations
    ))


def _islip_pairs(s, demand):
    """iSLIP's matrix core on demand sets, as (input, output) pairs."""
    return _pairs(*s.schedule_matrix(_requests(demand, s.num_outputs)))


def _check_partial_permutation(matches, demand):
    ins = [i for i, _ in matches]
    outs = [j for _, j in matches]
    assert len(ins) == len(set(ins))
    assert len(outs) == len(set(outs))
    for i, j in matches:
        assert j in demand[i], f"matched ({i},{j}) without demand"


class TestPim:
    def test_iterations_default_grows_slowly(self):
        assert pim_iterations_default(2) == 3
        assert pim_iterations_default(64) == 8

    def test_valid_schedule(self):
        rng = np.random.default_rng(1)
        demand = [{0, 1}, {0, 1}, {2}]
        matches = _pim_pairs(demand, 3, rng)
        _check_partial_permutation(matches, demand)

    def test_full_diagonal_demand_perfect(self):
        rng = np.random.default_rng(2)
        demand = [{i} for i in range(8)]
        matches = _pim_pairs(demand, 8, rng)
        assert sorted(matches) == [(i, i) for i in range(8)]

    def test_empty_demand(self):
        rng = np.random.default_rng(3)
        assert _pim_pairs([set(), set()], 2, rng) == []

    def test_contention_resolved(self):
        # All inputs want output 0: exactly one wins.
        rng = np.random.default_rng(4)
        matches = _pim_pairs([{0}] * 6, 6, rng)
        assert len(matches) == 1

    def test_more_iterations_no_smaller(self):
        demand = [set(range(8)) for _ in range(8)]
        small = _pim_pairs(demand, 8, np.random.default_rng(5), iterations=1)
        large = _pim_pairs(demand, 8, np.random.default_rng(5), iterations=8)
        assert len(large) >= len(small)

    def test_graph_adapter(self):
        g, xs, ys = bipartite_random(10, 10, 0.3, seed=6)
        m = pim_matching(g, xs, ys, seed=7)
        assert all(g.has_edge(u, v) for u, v in m.edges())


class TestIslip:
    def test_valid_schedule(self):
        s = IslipScheduler(4, 4)
        matches = _islip_pairs(s, [{0, 1}, {1, 2}, {2, 3}, {3, 0}])
        _check_partial_permutation(matches, [{0, 1}, {1, 2}, {2, 3}, {3, 0}])

    def test_full_demand_perfect_match(self):
        s = IslipScheduler(4, 4, iterations=4)
        matches = _islip_pairs(s, [set(range(4))] * 4)
        assert len(matches) == 4

    def test_pointer_desynchronization(self):
        """Under persistent full demand, iSLIP converges to a rotating
        perfect schedule: after warmup, every slot matches all ports."""
        s = IslipScheduler(4, 4, iterations=1)
        demand = [set(range(4))] * 4
        sizes = [len(_islip_pairs(s, demand)) for _ in range(12)]
        assert all(size == 4 for size in sizes[4:])

    def test_deterministic(self):
        a = IslipScheduler(4, 4)
        b = IslipScheduler(4, 4)
        d = [{0, 1}, {1}, {2, 3}, {0, 3}]
        assert _islip_pairs(a, d) == _islip_pairs(b, d)

    def test_wrong_demand_length_rejected(self):
        s = IslipScheduler(3, 3)
        with pytest.raises(ValueError):
            s.schedule_matrix(np.zeros((1, 3), dtype=bool))

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            IslipScheduler(2, 2, iterations=0)
