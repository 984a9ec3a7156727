"""Unit tests for the execution-backend layer.

Backend *equivalence* on whole algorithms lives in
``tests/test_backend_identity.py``; this module covers the protocol,
the registry, the contexts' accounting and segment reductions, the
shared proposal helpers, and the array backends' engine-contract edges
(budget, CONGEST, idempotency).
"""

import numpy as np
import pytest

from repro.baselines.cole_vishkin import (
    cv_steps_needed,
    ring_color_array,
    ring_matching_array,
)
from repro.baselines.israeli_itai import israeli_itai_matching, israeli_itai_program
from repro.baselines.luby_mis import luby_mis_array_batched, luby_mis_program
from repro.distributed import (
    BACKENDS,
    BatchedArrayBackend,
    BatchedArrayContext,
    CongestViolation,
    ExecutionBackend,
    GeneratorBackend,
    Network,
    bit_size,
    congest_with_bound,
    int_payload_bits,
    resolve_backend,
    run_program_batched,
)
from repro.distributed.backends import (
    choose_targets,
    lane_nonzero,
    replay_acceptor_choices,
    sorted_csr,
)
from repro.core.generic_mcm import flood_views_array
from repro.distributed.models import LOCAL
from repro.graphs import (
    Graph,
    barabasi_albert,
    complete_graph,
    cycle_graph,
    gnp_random,
    path_graph,
    star_graph,
    watts_strogatz,
)

#: Graph shapes that historically broke CSR segment handling.
SHAPES = {
    "gnp": gnp_random(26, 0.18, seed=1),
    "ba": barabasi_albert(30, 2, seed=2),
    "ws": watts_strogatz(24, 4, 0.2, seed=3),
    "star": star_graph(11),
    "complete": complete_graph(8),
    "empty": Graph(6),
    "isolated": Graph(8, [(0, 1), (2, 3)]),
    # Trailing degree-0 vertices after a degree>=2 vertex: the shape of
    # the clamped-reduceat regression.
    "tail_isolated": Graph(6, [(0, 1), (0, 2), (1, 2)]),
    # Edges inserted in descending order, so every port order descends.
    "reversed": Graph(9, gnp_random(9, 0.5, seed=8).edges()[::-1]),
}


def _ctx(g, model=LOCAL, max_rounds=1_000_000):
    """A one-lane context, as every single-seed array run uses."""
    return BatchedArrayContext(
        g, [0], model, model.limit(g.n, g.max_degree()), max_rounds
    )


def _bctx(g, num_seeds):
    return BatchedArrayContext(g, list(range(num_seeds)), LOCAL, None, 1_000_000)


def _silent(ctx):
    return None


def _run_luby(g, backend, **kwargs):
    """Luby through the batched routing helper, as a one-lane run."""
    return run_program_batched(
        g,
        backend=backend,
        generator_program=luby_mis_program,
        batched_array_program=luby_mis_array_batched,
        params={"n": g.n},
        seeds=[0],
        **kwargs,
    )


class TestProtocolAndRegistry:
    def test_generator_backend_is_network(self):
        assert GeneratorBackend is Network

    def test_network_conforms(self):
        g = path_graph(3)
        gen = Network(g, luby_mis_program, params={"n": g.n})
        assert isinstance(gen, ExecutionBackend)

    def test_registry_contents(self):
        assert BACKENDS == {"generator": Network, "array": BatchedArrayBackend}

    def test_resolve_known(self):
        assert resolve_backend("generator") is Network
        assert resolve_backend("array") is BatchedArrayBackend

    def test_resolve_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("cuda")

    def test_run_program_batched_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            _run_luby(path_graph(2), "nope")

    def test_charge_rounds_on_network(self):
        net = Network(path_graph(2), israeli_itai_program)
        net.charge_rounds(5)
        assert net.result.charged_rounds == 5


class TestIntPayloadBits:
    @pytest.mark.parametrize(
        "value", [0, 1, 2, 3, 7, 8, 255, 256, -1, -17, 2**40, 2**62, -(2**62)]
    )
    def test_matches_bit_size(self, value):
        assert int_payload_bits([value])[0] == bit_size(value)

    def test_vectorized_batch(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(-(2**62), 2**62, size=500)
        expect = [bit_size(int(v)) for v in vals]
        assert int_payload_bits(vals).tolist() == expect


@pytest.mark.parametrize("num_seeds", [1, 3])
class TestBatchedSegments:
    """The CSR reductions against brute force, at one lane and three."""

    def test_masked_degrees_brute_force(self, num_seeds):
        g = gnp_random(40, 0.15, seed=3)
        ctx = _bctx(g, num_seeds)
        rng = np.random.default_rng(1)
        for _ in range(5):
            mask = rng.random((num_seeds, g.n)) < 0.5
            expect = [
                [sum(mask[s, u] for u in g.neighbors(v)) for v in range(g.n)]
                for s in range(num_seeds)
            ]
            assert ctx.masked_degrees(mask).tolist() == expect

    def test_neighbor_any_matches_degrees(self, num_seeds):
        g = gnp_random(30, 0.2, seed=4)
        ctx = _bctx(g, num_seeds)
        mask = np.zeros((num_seeds, g.n), dtype=bool)
        mask[:, [0, 7, 13]] = True
        mask[-1, 7] = False
        assert (
            ctx.neighbor_any(mask) == (ctx.masked_degrees(mask) > 0)
        ).all()

    def test_neighbor_max_brute_force(self, num_seeds):
        g = gnp_random(35, 0.2, seed=5)
        ctx = _bctx(g, num_seeds)
        rng = np.random.default_rng(2)
        values = rng.integers(1, 1000, size=(num_seeds, g.n))
        mask = rng.random((num_seeds, g.n)) < 0.6
        got = ctx.neighbor_max(values, mask=mask)
        for s in range(num_seeds):
            for v in range(g.n):
                vals = [values[s, u] for u in g.neighbors(v) if mask[s, u]]
                assert got[s, v] == (max(vals) if vals else 0), (s, v)

    def test_neighbor_max_unmasked_and_isolated(self, num_seeds):
        # Vertex 3 is isolated; reduceat's empty-segment quirk must not
        # leak the next segment's head into it.
        g = Graph(5, [(0, 1), (1, 2), (2, 4)])
        ctx = _bctx(g, num_seeds)
        values = np.tile(np.array([10, 20, 30, 99, 40]), (num_seeds, 1))
        got = ctx.neighbor_max(values)
        assert got.tolist() == [[20, 30, 40, 0, 30]] * num_seeds

    def test_empty_graph_helpers(self, num_seeds):
        ctx = _bctx(Graph(4), num_seeds)
        zeros = [[0, 0, 0, 0]] * num_seeds
        mask = np.ones((num_seeds, 4), dtype=bool)
        assert ctx.masked_degrees(mask).tolist() == zeros
        values = np.tile(np.arange(4), (num_seeds, 1))
        assert ctx.neighbor_max(values).tolist() == zeros

    def test_trailing_isolated_vertices(self, num_seeds):
        # Regression: trailing degree-0 vertices once clamped the
        # reduceat starts, silently truncating the last non-empty
        # segment — the last non-isolated vertex (degree >= 2) lost its
        # final half-edge from every reduction.
        g = Graph(6, [(0, 1), (0, 2), (1, 2)])  # vertices 3-5 isolated
        ctx = _bctx(g, num_seeds)
        mask = np.ones((num_seeds, 6), dtype=bool)
        values = np.tile(np.array([5, 7, 9, 1, 1, 1]), (num_seeds, 1))
        degs = ctx.masked_degrees(mask).tolist()
        assert degs == [[2, 2, 2, 0, 0, 0]] * num_seeds
        maxes = ctx.neighbor_max(values).tolist()
        assert maxes == [[9, 9, 7, 0, 0, 0]] * num_seeds
        mask[-1, 1] = False
        assert ctx.masked_degrees(mask)[-1].tolist() == [1, 2, 1, 0, 0, 0]
        got = ctx.neighbor_max(values, mask=mask)[-1].tolist()
        assert got == [9, 9, 5, 0, 0, 0]

    def test_lane_nonzero_matches_nonzero(self, num_seeds):
        mask = np.random.default_rng(3).random((num_seeds, 17)) < 0.4
        rows, cols = lane_nonzero(mask)
        want_rows, want_cols = np.nonzero(mask)
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()


@pytest.mark.parametrize("gname", sorted(SHAPES))
class TestSharedHelpersByShape:
    """Reductions and proposal helpers against brute force, per shape."""

    def test_reductions_brute_force(self, gname):
        g = SHAPES[gname]
        rng = np.random.default_rng(0)
        for num_seeds in (1, 3):
            ctx = _bctx(g, num_seeds)
            for density in (0.0, 0.3, 1.0):
                mask = rng.random((num_seeds, g.n)) < density
                degs = ctx.masked_degrees(mask)
                assert degs.dtype == np.int64
                assert degs.tolist() == [
                    [sum(mask[s, u] for u in g.neighbors(v)) for v in range(g.n)]
                    for s in range(num_seeds)
                ]
                assert (ctx.neighbor_any(mask) == (degs > 0)).all()
            values = rng.integers(0, 1 << 40, size=(num_seeds, g.n))
            for m in (None, rng.random((num_seeds, g.n)) < 0.4):
                got = ctx.neighbor_max(values, mask=m)
                assert got.dtype == values.dtype
                for s in range(num_seeds):
                    for v in range(g.n):
                        vals = [
                            values[s, u] for u in g.neighbors(v)
                            if m is None or m[s, u]
                        ]
                        assert got[s, v] == max(vals, default=0), (s, v)

    def test_sorted_csr_ascends_within_segments(self, gname):
        g = SHAPES[gname]
        indptr, indices, _ = g.adjacency_arrays()
        sidx, s_nbr = sorted_csr(indptr, indices)
        assert s_nbr.dtype == np.int64
        assert s_nbr.tolist() == indices[sidx].tolist()
        for v in range(g.n):
            lo, hi = int(indptr[v]), int(indptr[v + 1])
            assert s_nbr[lo:hi].tolist() == sorted(g.neighbors(v))
            assert sorted(sidx[lo:hi].tolist()) == list(range(lo, hi))

    def test_choose_targets_brute_force(self, gname):
        # Three lanes; a candidate must pass a per-lane vertex mask (read
        # through the proposer row) and a per-half-edge mask (read
        # through the original CSR slot).
        g = SHAPES[gname]
        indptr, indices, _ = g.adjacency_arrays()
        sidx, s_nbr = sorted_csr(indptr, indices)
        rng = np.random.default_rng(4)
        active = rng.random((3, g.n)) < 0.6
        slot_ok = rng.random(indices.size) < 0.8
        rows, pv, idx, want = [], [], [], []
        for s in range(3):
            for v in range(g.n):
                cand = sorted(
                    int(indices[p]) for p in range(indptr[v], indptr[v + 1])
                    if slot_ok[p] and active[s, indices[p]]
                )
                if cand:
                    k = int(rng.integers(len(cand)))
                    rows.append(s)
                    pv.append(v)
                    idx.append(k)
                    want.append(cand[k])
        rows = np.array(rows, dtype=np.int64)
        got = choose_targets(
            indptr, s_nbr, sidx,
            np.array(pv, dtype=np.int64), np.array(idx, dtype=np.int64),
            lambda seg, pos, nbr: slot_ok[pos] & active[rows[seg], nbr],
        )
        assert got.tolist() == want

    def test_replay_acceptor_choices_brute_force(self, gname):
        # Each lane's proposers, in vertex order, propose to a random
        # neighbor; every non-skipped target picks one proposer with its
        # own node RNG, as choice(sorted(proposals)) does.
        g = SHAPES[gname]
        n = g.n
        rng = np.random.default_rng(5)
        keys, srcs = [], []
        for s in range(3):
            for v in range(n):
                nbrs = g.neighbors(v)
                if nbrs and rng.random() < 0.7:
                    keys.append(s * n + nbrs[int(rng.integers(len(nbrs)))])
                    srcs.append(v)
        skip = rng.random(3 * n) < 0.2
        acceptors, chosen = replay_acceptor_choices(
            _bctx(g, 3).lanes,
            np.array(keys, dtype=np.int64),
            np.array(srcs, dtype=np.int64),
            skip,
        )
        nets = [Network(g, israeli_itai_program, seed=s) for s in range(3)]
        want = {}
        for key in sorted(set(keys)):
            if not skip[key]:
                proposals = [u for k, u in zip(keys, srcs) if k == key]
                s, t = divmod(key, n)
                want[key] = int(nets[s].nodes[t].rng.choice(sorted(proposals)))
        assert acceptors.tolist() == list(want)
        assert chosen.tolist() == list(want.values())


class TestOneLaneAccounting:
    """The lockstep accounting of a one-lane context (single-seed runs)."""

    def test_account_groups_totals(self):
        ctx = _ctx(path_graph(4))
        ctx.account_groups([5, 8], [2, 3], [0, 0])
        (res,) = ctx.finalize(None)
        assert res.total_messages == 5
        assert res.total_bits == 5 * 2 + 8 * 3
        assert res.max_message_bits == 8

    def test_empty_groups_dropped(self):
        # A send_many to zero recipients neither counts nor peaks.
        ctx = _ctx(path_graph(4))
        ctx.account_groups([999], [0], [0])
        (res,) = ctx.finalize(None)
        assert res.total_messages == 0
        assert res.max_message_bits == 0

    def test_congest_violation(self):
        ctx = _ctx(path_graph(4), model=congest_with_bound(6))
        with pytest.raises(CongestViolation, match="exceeds"):
            ctx.account_groups([7], [1], [0])

    def test_round_counted_only_on_yield(self):
        ctx = _ctx(path_graph(2))
        ctx.end_step([False])
        assert ctx.rounds.tolist() == [0]
        ctx.end_step([True])
        assert ctx.rounds.tolist() == [1]

    def test_begin_step_budget(self):
        ctx = _ctx(path_graph(2), max_rounds=0)
        with pytest.raises(RuntimeError, match="still running"):
            ctx.begin_step([2])
        ctx.begin_step([0])  # no live nodes: drained, never raises

    def test_rngs_match_network_spawn(self):
        g = path_graph(3)
        ctx = BatchedArrayContext(g, [42], LOCAL, None, 1_000_000)
        net = Network(g, israeli_itai_program, seed=42)
        for v in range(g.n):
            assert (
                ctx.lanes.integers(0, 2**32, np.array([v]))[0]
                == net.nodes[v].rng.integers(0, 2**32)
            )

    def test_batched_account_groups_per_seed(self):
        # One lane takes the scatter-free fast path; three lanes scatter.
        for num_seeds, want in (
            (1, [(5, 34, 8)]),
            (3, [(2, 10, 5), (0, 0, 0), (3, 24, 8)]),
        ):
            ctx = _bctx(path_graph(4), num_seeds)
            ctx.account_groups([5, 8, 999], [2, 3, 0], [0, num_seeds - 1, 0])
            got = [
                (r.total_messages, r.total_bits, r.max_message_bits)
                for r in ctx.finalize(None)
            ]
            assert got == want


class TestArrayBackendContract:
    def test_budget_error_parity(self):
        g = gnp_random(20, 0.3, seed=1)
        for backend in ("generator", "array"):
            with pytest.raises(RuntimeError, match="still running"):
                _run_luby(g, backend, max_rounds=1)

    def test_congest_violation_parity(self):
        # Luby numbers on a 40-node star need ~22 bits; a 10-bit budget
        # must trip both engines.
        g = star_graph(40)
        for backend in ("generator", "array"):
            with pytest.raises(CongestViolation):
                _run_luby(g, backend, model=congest_with_bound(10))

    def test_run_idempotent(self):
        g = gnp_random(15, 0.3, seed=2)
        net = BatchedArrayBackend(
            g, luby_mis_array_batched, params={"n": g.n}, seeds=[3]
        )
        first = net.run()
        again = net.run()
        assert again is first
        assert first[0].rounds > 0

    def test_outputs_cover_all_nodes(self):
        g = Graph(5, [(0, 1)])
        _, res = israeli_itai_matching(g, seed=0, backend="array")
        assert sorted(res.outputs) == [0, 1, 2, 3, 4]

    def test_deterministic_programs_take_one_lane(self):
        # The flood and Cole-Vishkin draw nothing: a wider batch would
        # only repeat them, so it is refused instead of mis-accounted.
        ring = cycle_graph(6)
        for program, params in (
            (flood_views_array, {"depth": 2, "mates": [-1] * 6}),
            (ring_color_array, {"n": 6, "steps": cv_steps_needed(6)}),
            (ring_matching_array, {"n": 6, "steps": cv_steps_needed(6)}),
        ):
            net = BatchedArrayBackend(
                ring, program, params=params, seeds=[0, 1]
            )
            with pytest.raises(ValueError, match="one lane"):
                net.run()

    def test_program_without_outputs_fills_none(self):
        (lane,) = BatchedArrayBackend(path_graph(3), _silent).run()
        assert lane.outputs == {0: None, 1: None, 2: None}
        assert lane.rounds == 0
