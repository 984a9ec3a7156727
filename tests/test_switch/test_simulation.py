"""Tests for scheduler adapters and the end-to-end switch loop."""

import numpy as np
import pytest

from repro.switch import (
    GreedyMaximalScheduler,
    IslipAdapter,
    PaperScheduler,
    PimScheduler,
    bernoulli_uniform,
    run_switch,
)
from repro.switch.schedulers import MaxSizeScheduler, _demand_graph


def _occupancy(demand, ports):
    """The occupancy matrix with one cell queued per demanded VOQ."""
    occ = np.zeros((ports, ports), dtype=np.int32)
    for i, outs in enumerate(demand):
        occ[i, sorted(outs)] = 1
    return occ


def _schedule(sched, demand, slot=0):
    """``schedule_matrix`` on the demand's occupancy, as (input, output) pairs."""
    mi, mj = sched.schedule_matrix(_occupancy(demand, len(demand)), slot)
    return list(zip(mi.tolist(), mj.tolist()))


class TestDemandGraph:
    def test_shape(self):
        g = _demand_graph(_occupancy([{0, 1}, {2}, set()], 3))
        assert g.n == 6
        assert g.has_edge(0, 3) and g.has_edge(0, 4) and g.has_edge(1, 5)
        assert g.m == 3


class TestSchedulersProduceMatchings:
    DEMAND = [{0, 1, 2}, {0, 1}, {1, 2}, set()]

    @pytest.mark.parametrize(
        "sched",
        [
            PimScheduler(4, seed=1),
            IslipAdapter(4),
            GreedyMaximalScheduler(4, seed=1),
            PaperScheduler(4, k=3),
            PaperScheduler(4, k=2, distributed=True, seed=3),
            MaxSizeScheduler(4),
        ],
        ids=["pim", "islip", "greedy", "paper", "paper-dist", "max"],
    )
    def test_valid_partial_permutation(self, sched):
        matches = _schedule(sched, self.DEMAND, slot=0)
        ins = [i for i, _ in matches]
        outs = [j for _, j in matches]
        assert len(set(ins)) == len(ins)
        assert len(set(outs)) == len(outs)
        for i, j in matches:
            assert j in self.DEMAND[i]

    def test_max_scheduler_at_least_others(self):
        mx = len(_schedule(MaxSizeScheduler(4), self.DEMAND))
        for sched in (PimScheduler(4, seed=2), PaperScheduler(4, k=3)):
            assert len(_schedule(sched, self.DEMAND)) <= mx

    def test_paper_scheduler_half_bound(self):
        """(1−1/k) of max, per slot."""
        mx = len(_schedule(MaxSizeScheduler(4), self.DEMAND))
        got = len(_schedule(PaperScheduler(4, k=3), self.DEMAND))
        assert got >= (1 - 1 / 3) * mx


class TestRunSwitch:
    def test_conservation(self):
        st = run_switch(
            4, bernoulli_uniform(4, 0.6, seed=1), PimScheduler(4, seed=1), slots=300
        )
        assert st.arrivals == st.departures + st.backlog

    def test_low_load_low_delay(self):
        st = run_switch(
            8, bernoulli_uniform(8, 0.3, seed=2), IslipAdapter(8), slots=800
        )
        assert st.mean_delay < 2.0
        assert st.backlog < 20

    def test_throughput_tracks_load(self):
        st = run_switch(
            8,
            bernoulli_uniform(8, 0.5, seed=3),
            PaperScheduler(8, k=3),
            slots=800,
            warmup=100,
        )
        assert abs(st.throughput - 0.5) < 0.07

    def test_warmup_excluded_from_stats(self):
        st = run_switch(
            4, bernoulli_uniform(4, 0.5, seed=4), PimScheduler(4, seed=4),
            slots=100, warmup=50,
        )
        assert st.slots == 100

    def test_zero_slots(self):
        st = run_switch(
            4, bernoulli_uniform(4, 0.5, seed=5), PimScheduler(4, seed=5), slots=0
        )
        assert st.slots == 0 and st.departures == 0

    def test_distributed_paper_scheduler_end_to_end(self):
        """The real Section 3.2 protocol driving a (small) switch."""
        st = run_switch(
            4,
            bernoulli_uniform(4, 0.6, seed=6),
            PaperScheduler(4, k=2, distributed=True, seed=6),
            slots=60,
        )
        assert st.arrivals == st.departures + st.backlog
        assert st.departures > 0
