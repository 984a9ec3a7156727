"""Fault-injection seam: determinism, cross-backend identity, oracles.

The fault model's contract (ISSUE 10) has four legs, each pinned here:

* **Determinism** — fault streams are a pure function of
  ``(plan, seed)``: same plan + seed reproduces byte-identical runs,
  and an explicit ``FaultPlan.seed`` pins the schedules independently
  of the algorithm RNG.
* **Cross-backend identity** — generator ``Network``, one-lane array
  runs and multi-lane ``BatchedArrayBackend`` batches produce
  byte-identical ``RunResult``\\ s
  (outputs, rounds, traffic counters, *and* fault counters) under the
  same plan, including the stall case: when loss starves a one-shot
  announcement, every backend must stall identically.
* **Round-0 prune identity** — a window-0 plan (all events at round 0,
  no loss/delay) is indistinguishable from a fault-free run on the
  pre-pruned survivor graph.
* **Degradation oracle** — on every small graph, a faulted
  Israeli–Itai run still yields a valid matching, maximal on the
  survivor subgraph modulo widows.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.israeli_itai import (
    israeli_itai_array_batched,
    israeli_itai_matching,
    israeli_itai_matching_batched,
    israeli_itai_program,
)
from repro.baselines.luby_mis import luby_mis, luby_mis_program
from repro.distributed.backends import run_program_batched
from repro.distributed.faults import (
    _PARSE_KEYS,
    NEVER,
    FaultPlan,
    bind_many,
    with_seed,
)
from repro.distributed.network import Network
from repro.distributed.trace import Tracer, run_traced
from repro.graphs.generators import (
    barabasi_albert,
    complete_graph,
    cycle_graph,
    gnp_random,
    grid_graph,
    path_graph,
    random_tree,
)
from repro.matching.certify import (
    certify_degraded_matching,
    degraded_matching,
    survivor_subgraph,
)
from tests.test_exhaustive import all_graphs


def _snapshot(res):
    """Every RunResult field that the identity contract covers."""
    return dataclasses.asdict(res)


def _run_ii(g, seed, plan, backend):
    """II via the routing helper; a stall becomes ('stall', message)."""
    try:
        (res,) = run_program_batched(
            g,
            backend=backend,
            generator_program=israeli_itai_program,
            batched_array_program=israeli_itai_array_batched,
            seeds=[seed],
            max_rounds=500,
            faults=plan,
        )
    except RuntimeError as e:
        return ("stall", str(e))
    return ("done", _snapshot(res))


GRAPHS = [
    ("gnp12", gnp_random(12, 0.3, seed=5)),
    ("cycle9", cycle_graph(9)),
    ("k6", complete_graph(6)),
    ("tree10", random_tree(10, seed=2)),
]

PLANS = [
    FaultPlan(),
    FaultPlan(loss=0.1),
    FaultPlan(crashes=2, crash_window=6),
    FaultPlan(link_failures=3, link_window=6),
    FaultPlan(loss=0.05, crashes=1, link_failures=2),
    FaultPlan(crashes=2, crash_window=0, link_failures=2, link_window=0),
]


_SMALL = st.integers(0, 12)
_INTS = st.one_of(
    _SMALL, _SMALL, _SMALL,
    st.sampled_from([int(NEVER) - 1, int(NEVER), 2**64 - 1, 2**64, -1]),
    st.integers(-(2**70), 2**70),
).map(str)
_FLOATS = st.one_of(
    st.floats(0, 1), st.floats(0, 1),
    st.floats(allow_nan=True, allow_infinity=True),
).map(repr)
#: ``key=value`` items whose value has the key's type (mostly in range),
#: and items pairing any key, or an unknown one, with any value.
_TYPED_ITEM = st.sampled_from(sorted(_PARSE_KEYS)).flatmap(
    lambda k: st.tuples(st.just(k), _FLOATS if k == "loss" else _INTS)
)
_ANY_ITEM = st.tuples(
    st.sampled_from([*_PARSE_KEYS, "junk"]),
    st.one_of(_INTS, _FLOATS, st.text(max_size=4)),
)


class TestPlanParsing:
    def test_parse_round_trips_the_knobs(self):
        plan = FaultPlan.parse("loss=0.05,crash=3,link=2,crash_window=4,seed=7")
        assert plan == FaultPlan(
            loss=0.05, crashes=3, link_failures=2, crash_window=4, seed=7
        )

    def test_empty_spec_is_noop(self):
        assert not FaultPlan.parse("").is_active
        assert not FaultPlan().is_active

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("lossage=0.5")

    @pytest.mark.parametrize("bad", ["loss=1.5", "loss=-0.1", "crash=-1",
                                     "delay=-2", "link_window=-1"])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    @pytest.mark.parametrize("bad,name", [
        ("delay=4611686018427387904", "delay"),  # 2^62 == NEVER
        ("delay=100000000000000000000", "delay"),
        ("crash_window=100000000000000000000,crash=1", "crash_window"),
        ("link_window=4611686018427387904,link=1", "link_window"),
        ("seed=-1", "seed"),
        ("seed=18446744073709551616", "seed"),  # 2^64
    ])
    def test_rejects_values_past_the_schedule_range(self, bad, name):
        """A round at or past NEVER would read as "never triggers", and
        a seed outside [0, 2^64) would alias another seed's faults."""
        with pytest.raises(ValueError, match=name):
            FaultPlan.parse(bad)

    def test_accepts_the_largest_values(self):
        plan = FaultPlan.parse(
            f"delay={int(NEVER) - 1},crash_window={int(NEVER) - 1},"
            f"seed={2**64 - 1}"
        )
        assert plan.delay == plan.crash_window == int(NEVER) - 1
        assert plan.seed == 2**64 - 1

    @pytest.mark.parametrize("spec", [
        "crash=1,crashes=3", "loss=0.1,loss=0.2", "link=1,link_failures=2",
        "links=1,link=1", "seed=1,seed=1",
    ])
    def test_rejects_a_key_given_twice(self, spec):
        with pytest.raises(ValueError, match="twice"):
            FaultPlan.parse(spec)

    @given(st.lists(st.one_of(_TYPED_ITEM, _TYPED_ITEM, _TYPED_ITEM,
                              _ANY_ITEM), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_spec_raises_value_error_or_runs(self, items):
        """Any ``key=value`` list either fails to parse with a
        ValueError or yields a plan Israeli–Itai runs to completion or
        to the stall RuntimeError — never another exception."""
        spec = ",".join(f"{k}={v}" for k, v in items)
        try:
            plan = FaultPlan.parse(spec)
        except ValueError:
            return
        try:
            israeli_itai_matching(path_graph(6), seed=1, max_rounds=120,
                                  faults=plan)
        except RuntimeError as e:
            assert "still running" in str(e)

    def test_describe_mentions_every_active_knob(self):
        plan = FaultPlan(loss=0.1, crashes=2, link_failures=1, seed=3)
        desc = plan.describe()
        for frag in ("loss=0.1", "crashes=2", "links=1", "fault_seed=3"):
            assert frag in desc
        assert FaultPlan().describe() == "none"


class TestFaultStreamDeterminism:
    def test_same_plan_and_seed_bitwise_identical(self):
        g = gnp_random(15, 0.3, seed=1)
        plan = FaultPlan(loss=0.2, crashes=3, link_failures=3)
        a, b = plan.bind(g, 9), plan.bind(g, 9)
        assert np.array_equal(a.crash_round, b.crash_round)
        assert np.array_equal(a.link_fail_round, b.link_fail_round)
        for rnd in range(4):
            for u in range(g.n):
                assert a.drop(u, (u + 1) % g.n, rnd) == b.drop(
                    u, (u + 1) % g.n, rnd
                )

    def test_explicit_fault_seed_decouples_from_run_seed(self):
        g = gnp_random(15, 0.3, seed=1)
        plan = with_seed(FaultPlan(crashes=3, link_failures=2), 42)
        a, b = plan.bind(g, 0), plan.bind(g, 999)
        assert np.array_equal(a.crash_round, b.crash_round)
        assert np.array_equal(a.link_fail_round, b.link_fail_round)

    def test_run_seed_keys_streams_when_plan_seed_unset(self):
        g = gnp_random(30, 0.3, seed=1)
        plan = FaultPlan(crashes=5)
        a, b = plan.bind(g, 0), plan.bind(g, 1)
        assert not np.array_equal(a.crash_round, b.crash_round)

    def test_drop_mask_matches_scalar_drop(self):
        g = gnp_random(10, 0.4, seed=3)
        fs = FaultPlan(loss=0.3).bind(g, 7)
        src = np.repeat(np.arange(g.n), g.n)
        dst = np.tile(np.arange(g.n), g.n)
        for rnd in (0, 1, 5):
            mask = fs.drop_mask(src, dst, rnd)
            scalar = [fs.drop(int(u), int(v), rnd) for u, v in zip(src, dst)]
            assert mask.tolist() == scalar

    def test_inactive_plan_binds_to_none(self):
        assert FaultPlan().bind(gnp_random(5, 0.5, seed=0), 0) is None

    def test_bind_many_one_state_per_lane(self):
        g = gnp_random(8, 0.4, seed=0)
        states = bind_many(FaultPlan(crashes=1), g, [0, 1, 2])
        assert len(states) == 3
        assert all(s is not None for s in states)
        assert bind_many(FaultPlan(), g, [0, 1]) is None


class TestCrossBackendIdentity:
    """Generator ≡ array ≡ batched, byte for byte, faults included."""

    @pytest.mark.parametrize("gname,g", GRAPHS)
    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: p.describe())
    def test_generator_vs_array(self, gname, g, plan):
        for seed in range(4):
            gen = _run_ii(g, seed, plan, "generator")
            arr = _run_ii(g, seed, plan, "array")
            assert gen == arr, f"{gname} seed={seed} plan={plan.describe()}"

    def test_batched_lanes_match_single_runs(self):
        g = gnp_random(14, 0.3, seed=9)
        plan = FaultPlan(loss=0.03, crashes=2, link_failures=1)
        seeds = list(range(6))
        singles = [
            israeli_itai_matching(g, seed=s, backend="array", faults=plan)
            for s in seeds
        ]
        batched = israeli_itai_matching_batched(
            g, seeds, backend="array", faults=plan
        )
        for (sm, sr), (bm, br) in zip(singles, batched):
            assert sm.edges() == bm.edges()
            assert _snapshot(sr) == _snapshot(br)

    def test_batched_identical_across_chunkings(self):
        g = gnp_random(12, 0.35, seed=4)
        plan = FaultPlan(crashes=1, link_failures=2)
        seeds = list(range(6))
        whole = israeli_itai_matching_batched(
            g, seeds, backend="array", faults=plan
        )
        chunked = israeli_itai_matching_batched(
            g, seeds[:2], backend="array", faults=plan
        ) + israeli_itai_matching_batched(
            g, seeds[2:], backend="array", faults=plan
        )
        for (wm, wr), (cm, cr) in zip(whole, chunked):
            assert wm.edges() == cm.edges()
            assert _snapshot(wr) == _snapshot(cr)

    def test_batched_generator_fallback_matches(self):
        g = gnp_random(10, 0.35, seed=6)
        plan = FaultPlan(loss=0.02, crashes=1)
        seeds = [0, 1, 2]
        arr = israeli_itai_matching_batched(g, seeds, backend="array",
                                            faults=plan)
        gen = israeli_itai_matching_batched(g, seeds, backend="generator",
                                            faults=plan)
        for (am, ar), (gm, gr) in zip(arr, gen):
            assert am.edges() == gm.edges()
            assert _snapshot(ar) == _snapshot(gr)

    @pytest.mark.parametrize("backend", ["array", "generator"])
    def test_empty_seed_list_under_a_plan(self, backend):
        g = gnp_random(8, 0.4, seed=0)
        plan = FaultPlan(loss=0.1, crashes=2, link_failures=2)
        assert israeli_itai_matching_batched(
            g, [], backend=backend, faults=plan
        ) == []

    def test_fault_free_plan_changes_nothing(self):
        g = gnp_random(12, 0.3, seed=2)
        plain = israeli_itai_matching(g, seed=3)
        noop = israeli_itai_matching(g, seed=3, faults=FaultPlan())
        assert _snapshot(plain[1]) == _snapshot(noop[1])
        assert _snapshot(noop[1])["messages_dropped"] == 0


#: Graph families of the faulted-batch net, each drawn at up to 40
#: vertices from a Hypothesis-chosen size and graph seed.
_NET_GRAPHS = st.sampled_from([
    lambda n, s: gnp_random(n, 0.2, seed=s),
    lambda n, s: random_tree(n, seed=s),
    lambda n, s: cycle_graph(max(n, 3)),
    lambda n, s: complete_graph(min(n, 9)),
    lambda n, s: grid_graph(max(n // 6, 1), 6),
    lambda n, s: barabasi_albert(max(n, 4), 2, seed=s),
])
_NET_PLANS = st.builds(
    FaultPlan,
    loss=st.one_of(st.just(0.0), st.floats(0.0, 0.01)),
    crashes=st.integers(0, 4),
    crash_window=st.integers(0, 11),
    link_failures=st.integers(0, 4),
    link_window=st.integers(0, 11),
    seed=st.one_of(st.none(), st.integers(0, 2**64 - 1)),
)


def _faulted_batch(g, seeds, plan, backend):
    """Per-lane (edges, RunResult fields), or ('stall', message)."""
    try:
        runs = israeli_itai_matching_batched(
            g, seeds, max_rounds=150, backend=backend, faults=plan
        )
    except RuntimeError as e:
        return ("stall", str(e))
    return [(m.edges(), _snapshot(res)) for m, res in runs]


class TestFaultedBatchNet:
    """Multi-lane faulted batches against per-seed generator runs.

    Every lane of one array batch runs its own fault schedule, so the
    program must fire each lane's events, count each lane's faults and
    stop each lane on its own; a batch must equal its seeds' generator
    runs field for field, fault counters included, or stall with the
    same message as the first generator run that stalls.
    """

    @given(
        _NET_GRAPHS, st.integers(1, 40), st.integers(0, 99), _NET_PLANS,
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
    )
    @settings(max_examples=120, deadline=None)
    def test_batch_equals_per_seed_generator_runs(
        self, family, n, graph_seed, plan, seeds
    ):
        g = family(n, graph_seed)
        want: list | tuple = []
        for s in seeds:
            run = _faulted_batch(g, [s], plan, "generator")
            if run[0] == "stall":
                want = run
                break
            want += run
        assert _faulted_batch(g, seeds, plan, "array") == want


class TestBackendGates:
    def test_delay_is_generator_only(self):
        g = gnp_random(8, 0.4, seed=0)
        with pytest.raises(ValueError, match="generator-backend-only"):
            _run_ii(g, 0, FaultPlan(delay=2), "array")
        # The generator path accepts the same plan (the run may still
        # stall honestly — a delayed one-shot announcement arrives too
        # late to be believed — but it must not be rejected up front).
        status, _ = _run_ii(g, 0, FaultPlan(delay=2), "generator")
        assert status in ("done", "stall")

    def test_program_without_fault_seam_rejected(self):
        g = gnp_random(8, 0.4, seed=0)
        with pytest.raises(ValueError, match="fault seam"):
            luby_mis(g, seed=0, backend="array", faults=FaultPlan(crashes=1))
        mis, res = luby_mis(g, seed=0, backend="generator",
                            faults=FaultPlan(crashes=1))
        assert res.nodes_crashed <= 1


class TestPruneIdentity:
    """Window-0 plans ≡ fault-free runs on the pre-pruned graph."""

    COUNTERS = ("rounds", "total_messages", "total_bits", "max_message_bits")

    def _check(self, g, seed, plan, run):
        fs = plan.bind(g, seed)
        _, faulted = run(g, seed, plan)
        _, clean = run(fs.pruned_graph(0), seed, None)
        for key in self.COUNTERS:
            assert getattr(faulted, key) == getattr(clean, key), key
        crashed = set(fs.crashed_by(0).tolist())
        for v in range(g.n):
            if v in crashed:
                assert faulted.outputs[v] is None
            else:
                assert faulted.outputs[v] == clean.outputs[v]

    @pytest.mark.parametrize("seed", range(4))
    def test_israeli_itai_generator(self, seed):
        g = gnp_random(14, 0.3, seed=seed + 20)
        plan = FaultPlan(crashes=2, crash_window=0,
                         link_failures=2, link_window=0)
        self._check(
            g, seed, plan,
            lambda gg, s, p: israeli_itai_matching(gg, seed=s, faults=p),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_israeli_itai_array_backend(self, seed):
        g = gnp_random(14, 0.3, seed=seed + 40)
        plan = FaultPlan(crashes=2, crash_window=0,
                         link_failures=1, link_window=0)
        self._check(
            g, seed, plan,
            lambda gg, s, p: israeli_itai_matching(
                gg, seed=s, backend="array", faults=p
            ),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_luby_generator(self, seed):
        g = gnp_random(14, 0.3, seed=seed + 60)
        plan = FaultPlan(crashes=2, crash_window=0,
                         link_failures=2, link_window=0)
        self._check(
            g, seed, plan,
            lambda gg, s, p: luby_mis(gg, seed=s, faults=p),
        )


class TestFaultCounters:
    def test_counters_flow_into_run_result(self):
        g = gnp_random(16, 0.3, seed=0)
        plan = FaultPlan(loss=0.1, crashes=2, link_failures=2)
        _, res = israeli_itai_matching(g, seed=1, max_rounds=400, faults=plan)
        assert res.messages_dropped > 0
        assert res.nodes_crashed <= 2
        assert res.links_failed <= 2

    def test_merge_sums_fault_counters(self):
        g = gnp_random(12, 0.3, seed=1)
        plan = FaultPlan(loss=0.15)
        _, a = israeli_itai_matching(g, seed=1, max_rounds=400, faults=plan)
        _, b = israeli_itai_matching(g, seed=2, max_rounds=400, faults=plan)
        merged = a.merge(b)
        assert merged.messages_dropped == a.messages_dropped + b.messages_dropped

    def test_trace_records_per_round_fault_deltas(self):
        g = gnp_random(14, 0.35, seed=14)
        plan = FaultPlan(loss=0.1, delay=1)
        net = Network(g, israeli_itai_program, seed=2, faults=plan)
        res, tracer = run_traced(net, max_rounds=400)
        assert res.messages_dropped > 0 and res.messages_delayed > 0
        assert sum(r.dropped for r in tracer.records) == res.messages_dropped
        assert sum(r.delayed for r in tracer.records) == res.messages_delayed
        # Round-trip: fault columns survive serialization.
        again = Tracer.from_dicts(tracer.to_dicts())
        assert again.records == tracer.records

    def test_prefault_trace_rows_still_load(self):
        # Rows written before the fault columns existed have no
        # dropped/delayed keys; they must load with zero defaults.
        t = Tracer.from_dicts(
            [{"round": 0, "messages": 4, "bits": 32, "max_bits": 8,
              "live_nodes": 4}]
        )
        assert t.records[0].dropped == 0 and t.records[0].delayed == 0


class TestDegradationOracle:
    """Property net: II under faults degrades honestly on all small graphs."""

    def _outputs(self, g, seed, plan):
        try:
            _, res = israeli_itai_matching(
                g, seed=seed, max_rounds=300, faults=plan
            )
        except RuntimeError:
            return None  # loss starved a one-shot announcement: a stall
        return res.outputs

    @pytest.mark.parametrize("plan", [
        FaultPlan(crashes=1, crash_window=3),
        FaultPlan(link_failures=2, link_window=3),
        FaultPlan(loss=0.25),
        FaultPlan(loss=0.1, crashes=1, link_failures=1),
    ], ids=lambda p: p.describe())
    def test_all_graphs_on_4_vertices_16_seeds(self, plan):
        checked = 0
        for g in all_graphs(4):
            if g.m == 0:
                continue
            for seed in range(16):
                outputs = self._outputs(g, seed, plan)
                if outputs is None:
                    continue
                fs = plan.bind(g, seed)
                failed = fs.failed_links_by(10**9) if fs is not None else []
                rep = certify_degraded_matching(g, outputs, failed_links=failed)
                assert rep.ok, (g.edges(), seed, plan.describe(), rep)
                checked += 1
        assert checked > 500  # the net must actually bite

    def test_fault_free_run_has_no_widows_or_crashes(self):
        for g in list(all_graphs(4))[::7]:
            if g.m == 0:
                continue
            _, res = israeli_itai_matching(g, seed=1)
            rep = certify_degraded_matching(g, res.outputs)
            assert rep.ok and not rep.widows and rep.crashed == 0
            assert rep.survivors == g.n

    def test_degraded_matching_reports_widows(self):
        # A hand-built asymmetric claim: 0 says 1, 1 says nobody.
        from repro.graphs.graph import Graph

        g = Graph(3, [(0, 1), (1, 2)])
        m, widows = degraded_matching(g, {0: 1, 1: -1, 2: None})
        assert len(m) == 0 and widows == [(0, 1)]

    def test_self_claim_is_a_violation(self):
        # A node claiming itself is no widow: the report is invalid.
        from repro.graphs.graph import Graph

        g = Graph(3, [(0, 1), (1, 2)])
        rep = certify_degraded_matching(g, {0: 0, 1: -1, 2: -1})
        assert not rep.valid and not rep.ok

    def test_survivor_subgraph_drops_crashed_and_failed(self):
        from repro.graphs.graph import Graph

        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sub = survivor_subgraph(g, {0: -1, 1: -1, 2: None, 3: -1},
                                failed_links=[0])
        # Edge 0 failed, edges 1-2 touch crashed node 2.
        assert sub.m == 0

    def test_crashed_nodes_never_in_matching(self):
        g = gnp_random(12, 0.4, seed=9)
        plan = FaultPlan(crashes=3, crash_window=4)
        m, res = israeli_itai_matching(g, seed=5, faults=plan)
        fs = plan.bind(g, 5)
        crashed = set(fs.crashed_by(res.rounds).tolist())
        for u, v in m.edges():
            assert u not in crashed and v not in crashed


class TestNeverSentinel:
    def test_never_is_far_beyond_any_run(self):
        assert NEVER > 10**15
