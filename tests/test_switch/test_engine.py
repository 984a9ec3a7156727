"""Tests for the single-seed entry point of the switch engine.

The load-bearing property is *byte-identity*: `run_switch_vectorized` —
a one-lane `run_switch_batched` run — must produce exactly the same
`SwitchStats` as the scalar reference loop for every scheduler ×
traffic-model cell, including delay accounting (which the engine
reconstructs without per-cell timestamps).
"""

import numpy as np
import pytest

from repro.switch import (
    ChunkedTraffic,
    GreedyMaximalScheduler,
    IslipAdapter,
    MaxWeightScheduler,
    PaperScheduler,
    PimScheduler,
    WeightedPaperScheduler,
    bernoulli_uniform,
    bursty,
    diagonal,
    hotspot,
    run_switch,
    run_switch_batched,
    run_switch_vectorized,
)
from repro.switch import engine
from repro.switch.schedulers import MaxSizeScheduler

PORTS = 8

TRAFFIC = {
    "bernoulli": lambda: bernoulli_uniform(PORTS, 0.6, seed=5),
    "diagonal": lambda: diagonal(PORTS, 0.5, seed=6),
    "bursty": lambda: bursty(PORTS, 0.5, burst_len=6.0, seed=7),
    "hotspot": lambda: hotspot(PORTS, 0.4, hot_fraction=0.3, seed=8),
}

SCHEDULERS = {
    "pim": lambda: PimScheduler(PORTS, seed=1),
    "islip": lambda: IslipAdapter(PORTS),
    "greedy": lambda: GreedyMaximalScheduler(PORTS, seed=2),
    "paper": lambda: PaperScheduler(PORTS, k=3, seed=3),
    "maxsize": lambda: MaxSizeScheduler(PORTS),
    "mwm": lambda: MaxWeightScheduler(PORTS),
    "wpaper": lambda: WeightedPaperScheduler(PORTS, eps=0.1),
}


@pytest.mark.parametrize("tname", sorted(TRAFFIC))
@pytest.mark.parametrize("sname", sorted(SCHEDULERS))
class TestIdentity:
    def test_identical_stats(self, tname, sname, monkeypatch):
        """Vectorized == scalar on the full SwitchStats, warmup included."""
        scalar = run_switch(
            PORTS, TRAFFIC[tname](), SCHEDULERS[sname](), slots=120, warmup=30
        )
        # odd on purpose: window boundary mid-chunk
        monkeypatch.setattr(engine, "CHUNK_SLOTS", 37)
        vec = run_switch_vectorized(
            PORTS,
            TRAFFIC[tname](),
            SCHEDULERS[sname](),
            slots=120,
            warmup=30,
        )
        assert vec == scalar

    def test_conservation_without_warmup(self, tname, sname):
        """With warmup=0 the window sees every cell: conservation is exact."""
        st = run_switch_vectorized(
            PORTS, TRAFFIC[tname](), SCHEDULERS[sname](), slots=150
        )
        assert st.arrivals == st.departures + st.backlog
        assert st.slots == 150
        assert len(st.match_sizes) == 150
        assert st.total_delay >= 0


class TestIdentityEdgeCases:
    def test_distributed_paper_scheduler(self):
        a = run_switch(
            4,
            bernoulli_uniform(4, 0.5, seed=11),
            PaperScheduler(4, k=3, seed=4, distributed=True),
            slots=40,
            warmup=10,
        )
        b = run_switch_vectorized(
            4,
            bernoulli_uniform(4, 0.5, seed=11),
            PaperScheduler(4, k=3, seed=4, distributed=True),
            slots=40,
            warmup=10,
        )
        assert a == b

    def test_zero_slots_with_warmup_measures_warmup(self):
        """The scalar loop never reaches its stats reset when slots=0 —
        the warmup slots themselves are the measured window.  The engine
        reproduces that quirk."""
        a = run_switch(
            PORTS, bernoulli_uniform(PORTS, 0.7, seed=9),
            GreedyMaximalScheduler(PORTS, seed=1), slots=0, warmup=50,
        )
        b = run_switch_vectorized(
            PORTS, bernoulli_uniform(PORTS, 0.7, seed=9),
            GreedyMaximalScheduler(PORTS, seed=1), slots=0, warmup=50,
        )
        assert a == b
        assert a.slots == 50

    def test_zero_slots_zero_warmup(self):
        st = run_switch_vectorized(
            PORTS, bernoulli_uniform(PORTS, 0.5, seed=1),
            GreedyMaximalScheduler(PORTS), slots=0,
        )
        assert st.slots == 0
        assert st.arrivals == st.departures == st.backlog == 0
        assert st.match_sizes == []


class TestChunkInvariance:
    def test_consumer_chunk_size_irrelevant(self, monkeypatch):
        """The stats are a pure function of (params, seed), not of how
        the engine slices the stream into chunks."""
        results = []
        for cs in (1, 7, 100, 999, 4096):
            monkeypatch.setattr(engine, "CHUNK_SLOTS", cs)
            results.append(run_switch_vectorized(
                PORTS,
                bernoulli_uniform(PORTS, 0.6, seed=3),
                GreedyMaximalScheduler(PORTS, seed=4),
                slots=200,
                warmup=25,
            ))
        assert all(r == results[0] for r in results)


class TestValidation:
    def test_rejects_plain_callable_traffic(self):
        with pytest.raises(TypeError):
            run_switch_vectorized(
                4, lambda slot: [], GreedyMaximalScheduler(4), slots=10
            )

    def test_rejects_port_mismatch(self):
        with pytest.raises(ValueError):
            run_switch_vectorized(
                4, bernoulli_uniform(8, 0.5), GreedyMaximalScheduler(4), slots=10
            )

    @pytest.mark.parametrize(
        "slots,warmup,name", [(-5, 0, "slots"), (10, -3, "warmup")]
    )
    def test_rejects_negative_horizon(self, slots, warmup, name):
        """Every engine rejects a negative slot count by name, so the
        engines cannot disagree on what such a run measures."""
        engines = [
            lambda t, s, **kw: run_switch(4, t, s, **kw),
            lambda t, s, **kw: run_switch_vectorized(4, t, s, **kw),
            lambda t, s, **kw: run_switch_batched(4, [t], [s], **kw)[0],
        ]
        for engine in engines:
            with pytest.raises(ValueError, match=f"{name} must be >= 0"):
                engine(
                    bernoulli_uniform(4, 0.5, seed=0),
                    GreedyMaximalScheduler(4),
                    slots=slots,
                    warmup=warmup,
                )

    @pytest.mark.parametrize("sname", sorted(SCHEDULERS))
    def test_rejects_scheduler_port_mismatch(self, sname):
        """A scheduler built for PORTS ports cannot drive a larger
        switch: every engine names the mismatch before the first slot."""
        engines = [
            lambda t, s: run_switch(PORTS + 2, t, s, slots=5),
            lambda t, s: run_switch_vectorized(PORTS + 2, t, s, slots=5),
            lambda t, s: run_switch_batched(PORTS + 2, [t], [s], slots=5),
        ]
        for engine in engines:
            with pytest.raises(
                ValueError,
                match=f"scheduler is built for {PORTS} ports, switch has "
                f"{PORTS + 2}",
            ):
                engine(
                    bernoulli_uniform(PORTS + 2, 0.9, seed=0),
                    SCHEDULERS[sname](),
                )

    def test_rejects_non_matching_schedule(self):
        class Bad:
            def schedule_matrix(self, occupancy, slot):
                # two cells out of the same input: not a matching
                return np.array([0, 0]), np.array([0, 1])

        traffic = bernoulli_uniform(4, 1.0, seed=0)
        with pytest.raises(ValueError):
            run_switch_vectorized(4, traffic, Bad(), slots=5)

    def test_rejects_scheduling_empty_voq(self):
        class Bad:
            def schedule_matrix(self, occupancy, slot):
                return np.array([0]), np.array([0])  # regardless of occupancy

        traffic = bernoulli_uniform(4, 0.0, seed=0)  # no arrivals ever
        with pytest.raises(ValueError):
            run_switch_vectorized(4, traffic, Bad(), slots=5)


class TestIslipPointerDesync:
    def test_sustained_uniform_load_reaches_full_throughput(self):
        """The first-iteration-only pointer-advance rule desynchronizes
        the round-robin pointers; under sustained saturated uniform
        traffic a *single* iSLIP iteration converges toward a rotating
        permutation schedule and near-unit throughput.  (The exact
        rotating schedule under persistent full demand is pinned in
        tests/test_baselines/test_switch_schedulers.py.)"""
        st = run_switch_vectorized(
            16,
            bernoulli_uniform(16, 1.0, seed=21),
            IslipAdapter(16, iterations=1),
            slots=2000,
            warmup=2000,
        )
        assert st.throughput > 0.95
