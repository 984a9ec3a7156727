"""Tests for the queue-length-weighted schedulers (Section 4 ↔ switch)."""

import numpy as np

from repro.switch import (
    MaxWeightScheduler,
    PimScheduler,
    WeightedPaperScheduler,
    bernoulli_uniform,
    hotspot,
    run_switch,
)


def _schedule(sched, weights):
    """``schedule_matrix`` on ``weights[i][j]`` queued cells, as pairs."""
    occ = np.zeros((len(weights), len(weights)), dtype=np.int32)
    for i, row in enumerate(weights):
        for j, w in row.items():
            occ[i, j] = w
    mi, mj = sched.schedule_matrix(occ, 0)
    return list(zip(mi.tolist(), mj.tolist()))


class TestMaxWeightScheduler:
    def test_prefers_long_queues(self):
        s = MaxWeightScheduler(2)
        # input 0 has 10 cells for output 0 and 1 for output 1;
        # input 1 has 1 cell for output 0.  MWM: (0,0)+(1,?) — (1,0)
        # conflicts, so it's (0,0) alone... unless (0,1)+(1,0)=2 < 10.
        matches = _schedule(s, [{0: 10, 1: 1}, {0: 1}])
        assert (0, 0) in matches

    def test_total_weight_maximized(self):
        s = MaxWeightScheduler(2)
        # crossing pairs beat the single heavy edge when their sum wins
        matches = _schedule(s, [{0: 5, 1: 4}, {0: 4}])
        assert sorted(matches) == [(0, 1), (1, 0)]  # 8 > 5

    def test_empty(self):
        assert _schedule(MaxWeightScheduler(3), [{}, {}, {}]) == []

    def test_unweighted_adapter(self):
        matches = _schedule(MaxWeightScheduler(2), [{0: 1, 1: 1}, {0: 1}])
        assert len(matches) == 2


class TestWeightedPaperScheduler:
    def test_half_weight_guarantee_per_slot(self):
        weights = [
            {0: 9, 1: 3, 2: 1},
            {0: 8, 1: 7},
            {2: 5},
        ]
        got = _schedule(WeightedPaperScheduler(3, eps=0.1), weights)
        opt = _schedule(MaxWeightScheduler(3), weights)
        got_w = sum(weights[i][j] for i, j in got)
        opt_w = sum(weights[i][j] for i, j in opt)
        assert got_w >= (0.5 - 0.1) * opt_w - 1e-9

    def test_valid_partial_permutation(self):
        weights = [{0: 2, 1: 1}, {0: 3, 1: 4}]
        matches = _schedule(WeightedPaperScheduler(2), weights)
        ins = [i for i, _ in matches]
        outs = [j for _, j in matches]
        assert len(set(ins)) == len(ins) and len(set(outs)) == len(outs)


class TestEndToEnd:
    def test_mwm_scheduler_sustains_load(self):
        st = run_switch(
            6,
            bernoulli_uniform(6, 0.7, seed=1),
            MaxWeightScheduler(6),
            slots=600,
        )
        assert st.arrivals == st.departures + st.backlog
        assert abs(st.throughput - 0.7) < 0.08

    def test_weighted_paper_scheduler_end_to_end(self):
        st = run_switch(
            6,
            bernoulli_uniform(6, 0.7, seed=2),
            WeightedPaperScheduler(6, eps=0.1),
            slots=600,
        )
        assert st.arrivals == st.departures + st.backlog
        assert st.mean_delay < 20

    def test_weighted_beats_random_under_hotspot_backlog(self):
        """Queue-aware scheduling drains the hot output's competitors
        no worse than queue-blind PIM."""
        kwargs = dict(slots=800, warmup=100)
        blind = run_switch(
            6, hotspot(6, 0.5, seed=3), PimScheduler(6, seed=3), **kwargs
        )
        aware = run_switch(
            6, hotspot(6, 0.5, seed=3), WeightedPaperScheduler(6), **kwargs
        )
        assert aware.backlog <= blind.backlog * 1.5 + 30
