"""Tests for the seed-axis batched switch engine (ISSUE 8).

The load-bearing property is per-lane *byte-identity*: one
`run_switch_batched` execution must produce, for every lane, exactly
the `SwitchStats` that a fresh scalar `run_switch` run (the reference
fabric) with that lane's seed pair produces — across every scheduler ×
traffic cell, including delay accounting, and regardless of chunking,
lane count, or mixed per-lane operating points.
"""

import numpy as np
import pytest

from repro.switch import (
    GreedyMaximalScheduler,
    IslipAdapter,
    MaxWeightScheduler,
    PaperScheduler,
    PimScheduler,
    WeightedPaperScheduler,
    batched_traffic,
    bernoulli_uniform,
    bursty,
    diagonal,
    hotspot,
    run_switch,
    run_switch_batched,
)
from repro.switch import engine
from repro.switch.schedulers import MaxSizeScheduler
from repro.switch.traffic import BatchedChunkedTraffic

PORTS = 6
SEEDS = [11, 12, 13, 14]

TRAFFIC = {
    "bernoulli": lambda s: bernoulli_uniform(PORTS, 0.6, seed=s),
    "diagonal": lambda s: diagonal(PORTS, 0.5, seed=s),
    "bursty": lambda s: bursty(PORTS, 0.5, burst_len=6.0, seed=s),
    "hotspot": lambda s: hotspot(PORTS, 0.4, hot_fraction=0.3, seed=s),
}

SCHEDULERS = {
    "pim": lambda s: PimScheduler(PORTS, seed=s),
    "islip": lambda s: IslipAdapter(PORTS),
    "greedy": lambda s: GreedyMaximalScheduler(PORTS, seed=s),
    "paper": lambda s: PaperScheduler(PORTS, k=3, seed=s),
    "maxsize": lambda s: MaxSizeScheduler(PORTS),
    "mwm": lambda s: MaxWeightScheduler(PORTS),
    "wpaper": lambda s: WeightedPaperScheduler(PORTS, eps=0.1),
}


def sequential(tname, sname, seeds=SEEDS, slots=120, warmup=30):
    return [
        run_switch(
            PORTS, TRAFFIC[tname](s), SCHEDULERS[sname](s),
            slots=slots, warmup=warmup,
        )
        for s in seeds
    ]


def batched(tname, sname, seeds=SEEDS, slots=120, warmup=30, chunk_slots=37):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "CHUNK_SLOTS", chunk_slots)
        return run_switch_batched(
            PORTS,
            batched_traffic(TRAFFIC[tname], seeds),
            [SCHEDULERS[sname](s) for s in seeds],
            slots=slots,
            warmup=warmup,
        )


@pytest.mark.parametrize("tname", sorted(TRAFFIC))
@pytest.mark.parametrize("sname", sorted(SCHEDULERS))
class TestLaneIdentity:
    def test_identical_stats_per_lane(self, tname, sname):
        """Every lane == its fresh sequential run, warmup included."""
        assert batched(tname, sname) == sequential(tname, sname)


class TestBatchingInvariants:
    def test_chunk_size_invariance_along_seed_axis(self):
        """Chunking is an implementation detail on the batched path too."""
        reference = batched("bernoulli", "greedy", chunk_slots=37)
        for chunk in (1, 7, 120, 4096):
            assert batched(
                "bernoulli", "greedy", chunk_slots=chunk
            ) == reference

    def test_mixed_per_lane_loads(self, monkeypatch):
        """Lanes may run different models/loads; identity is per lane."""
        lane_specs = [
            bernoulli_uniform(PORTS, 0.3, seed=1),
            bernoulli_uniform(PORTS, 0.9, seed=2),
            bursty(PORTS, 0.5, burst_len=4.0, seed=3),
            hotspot(PORTS, 0.4, hot_fraction=0.5, seed=4),
        ]
        remake = [
            bernoulli_uniform(PORTS, 0.3, seed=1),
            bernoulli_uniform(PORTS, 0.9, seed=2),
            bursty(PORTS, 0.5, burst_len=4.0, seed=3),
            hotspot(PORTS, 0.4, hot_fraction=0.5, seed=4),
        ]
        scheds = [GreedyMaximalScheduler(PORTS, seed=s) for s in range(4)]
        monkeypatch.setattr(engine, "CHUNK_SLOTS", 41)
        bat = run_switch_batched(
            PORTS, lane_specs, scheds, slots=150, warmup=20
        )
        seq = [
            run_switch(
                PORTS, remake[i], GreedyMaximalScheduler(PORTS, seed=i),
                slots=150, warmup=20,
            )
            for i in range(4)
        ]
        assert bat == seq

    def test_single_lane_degenerates_to_vectorized(self):
        """num_seeds=1, what run_switch_vectorized runs, is the scalar run."""
        bat = batched("bursty", "pim", seeds=[5])
        assert bat == sequential("bursty", "pim", seeds=[5])

    def test_scheduler_state_carries_over(self, monkeypatch):
        """A batched run leaves each scheduler where sequential runs do.

        Running the same scheduler objects through a second (scalar)
        run must match two back-to-back scalar runs — the tape matrix /
        pointer state is written back per lane on finalize.
        """
        monkeypatch.setattr(engine, "CHUNK_SLOTS", 29)
        for sname in ("greedy", "pim", "islip"):
            scheds = [SCHEDULERS[sname](s) for s in SEEDS]
            run_switch_batched(
                PORTS, batched_traffic(TRAFFIC["bernoulli"], SEEDS),
                scheds, slots=90, warmup=10,
            )
            second_after_batched = [
                run_switch(
                    PORTS, TRAFFIC["bernoulli"](s + 50), scheds[i],
                    slots=90, warmup=10,
                )
                for i, s in enumerate(SEEDS)
            ]
            fresh = [SCHEDULERS[sname](s) for s in SEEDS]
            for i, s in enumerate(SEEDS):
                run_switch(
                    PORTS, TRAFFIC["bernoulli"](s), fresh[i],
                    slots=90, warmup=10,
                )
            second_sequential = [
                run_switch(
                    PORTS, TRAFFIC["bernoulli"](s + 50), fresh[i],
                    slots=90, warmup=10,
                )
                for i, s in enumerate(SEEDS)
            ]
            assert second_after_batched == second_sequential, sname

    def test_zero_slots_with_warmup(self):
        assert batched(
            "bernoulli", "greedy", slots=0, warmup=40
        ) == sequential("bernoulli", "greedy", slots=0, warmup=40)


class TestValidation:
    def test_rejects_shared_scheduler_instance(self):
        sched = GreedyMaximalScheduler(PORTS, seed=0)
        with pytest.raises(ValueError, match="own scheduler instance"):
            run_switch_batched(
                PORTS,
                batched_traffic(TRAFFIC["bernoulli"], [0, 1]),
                [sched, sched],
                slots=10,
            )

    def test_rejects_lane_count_mismatch(self):
        with pytest.raises(ValueError, match="traffic lanes"):
            run_switch_batched(
                PORTS,
                batched_traffic(TRAFFIC["bernoulli"], [0, 1, 2]),
                [GreedyMaximalScheduler(PORTS, seed=s) for s in (0, 1)],
                slots=10,
            )

    def test_rejects_port_mismatch(self):
        with pytest.raises(ValueError, match="ports"):
            run_switch_batched(
                PORTS + 1,
                batched_traffic(TRAFFIC["bernoulli"], [0, 1]),
                [GreedyMaximalScheduler(PORTS + 1, seed=s) for s in (0, 1)],
                slots=10,
            )

    def test_rejects_empty_lane_list(self):
        with pytest.raises(ValueError, match="at least one scheduler lane"):
            run_switch_batched(
                PORTS, batched_traffic(TRAFFIC["bernoulli"], [0]), [],
                slots=10,
            )
        with pytest.raises(ValueError, match="at least one traffic lane"):
            BatchedChunkedTraffic([])

    def test_rejects_mixed_port_traffic_lanes(self):
        with pytest.raises(ValueError, match="share a port count"):
            BatchedChunkedTraffic(
                [bernoulli_uniform(4, 0.5, seed=0),
                 bernoulli_uniform(5, 0.5, seed=1)]
            )
