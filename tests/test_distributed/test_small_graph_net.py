"""Luby, Israeli–Itai and interleaved-LPS array runs == generator runs
on every tiny graph.

Luby's array program works on a compacted list of live edges, and
Israeli–Itai's and the interleaved LPS's on a compacted list of
``(owner, neighbor)`` candidate pairs; each must reproduce its
generator program field for field.  Tiny graphs are where that breaks
first: isolated vertices, edges whose ends both die in one phase, and —
because Luby draws from [1, n⁴] — two ends of a live edge drawing the
same number, which must make both of them lose.  The interleaved LPS
runs on integer weights from [1, 4], so edges tie within a class and a
node's current class changes as its heavier edges die.

Every labelled graph on up to 4 vertices runs, plus 64 sampled 5-vertex
graphs whose edges are inserted in a shuffled order (so port orders are
not ascending by neighbor).  Each graph runs as one 16-seed array batch
against 16 generator runs; for Luby and Israeli–Itai four of the seeds
(a different four on consecutive graphs) also run as one-lane array
runs.
"""

import math
from itertools import combinations

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
from repro.baselines.luby_mis import luby_mis, luby_mis_batched
from repro.distributed.backends import run_program_batched
from repro.graphs import Graph

from tests.test_exhaustive import all_graphs

SEEDS = list(range(16))


def graphs_on(n: int) -> list[Graph]:
    """Every labelled graph on ``n <= 4`` vertices; 64 samples at n=5."""
    if n <= 4:
        return list(all_graphs(n))
    rng = np.random.default_rng(5)
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in rng.choice(1 << len(pairs), size=64, replace=False).tolist():
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        out.append(Graph(n, [edges[i] for i in rng.permutation(len(edges))]))
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_luby_matches_generator(n):
    for i, g in enumerate(graphs_on(n)):
        want = [luby_mis(g, seed=s) for s in SEEDS]
        assert luby_mis_batched(g, SEEDS) == want, g.edges()
        for s in SEEDS[i % 4::4]:
            one = luby_mis(g, seed=s, backend="array")
            assert one == want[s], (g.edges(), s)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_israeli_itai_matches_generator(n):
    def fields(run):
        m, res = run
        return sorted(m.edges()), res

    for i, g in enumerate(graphs_on(n)):
        want = [fields(israeli_itai_matching(g, seed=s)) for s in SEEDS]
        got = [fields(r) for r in israeli_itai_matching_batched(g, SEEDS)]
        assert got == want, g.edges()
        for s in SEEDS[i % 4::4]:
            one = fields(israeli_itai_matching(g, seed=s, backend="array"))
            assert one == want[s], (g.edges(), s)


def _lps_interleaved_runs(g: Graph, params: dict, backend: str) -> list:
    return run_program_batched(
        g, backend=backend, generator_program=lps_interleaved_program,
        batched_array_program=lps_interleaved_array, params=params,
        seeds=SEEDS,
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lps_interleaved_matches_generator(n):
    # Integer weights from [1, 4] fall in three classes; num_classes
    # rotates through 1 (only weights 3 and 4 usable), 3 and the default.
    rng = np.random.default_rng(n)
    for i, g in enumerate(g for g in graphs_on(n) if g.m):
        g = g.with_weights(rng.integers(1, 5, g.m).astype(float))
        default = 2 * max(1, math.ceil(math.log2(max(2, g.n)))) + 4
        params = {
            "wmax": float(g.weights_array().max()),
            "num_classes": (1, 3, default)[i % 3],
        }
        want = _lps_interleaved_runs(g, params, "generator")
        got = _lps_interleaved_runs(g, params, "array")
        assert got == want, (g.edges(), g.weights_array().tolist(), params)
