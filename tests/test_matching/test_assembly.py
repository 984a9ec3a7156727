"""The array result path pinned to the per-edge semantics it replaced.

Mate outputs become a mate vector in one pass (``mate_vector``) and a
matching through ``Matching.from_mate_array``; ``Matching.weight``
sums ``weights_array`` entries.  Each property compares the array form
with the scalar loop it stands for, kept here as the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import israeli_itai_matching, lps_mwm, luby_mis
from repro.baselines.luby_mis import verify_mis
from repro.core import weighted_mwm
from repro.graphs import Graph, assign_uniform_weights, gnp_random
from repro.matching import Matching, greedy_mwm
from repro.matching.certify import degraded_matching
from repro.matching.matching import mate_vector

from tests.conftest import matchable

#: The scalar-access caches an array run and its certificate must not build.
SCALAR_CACHES = ("_eid_map", "_edges_list", "_nbr_tuples", "_inc_tuples")


def _edge_by_edge_degraded_matching(g, outputs):
    """The per-node loop ``degraded_matching`` ran before the mate vector."""
    m = Matching(g)
    widows = []
    for v, mate in outputs.items():
        if mate is None or mate == -1:
            continue
        if outputs.get(mate) == v:
            if mate > v:
                m.add(v, mate)
        else:
            widows.append((v, mate))
    return m, widows


@st.composite
def weighted_matchings(draw):
    """A matching on a graph with float64 or no weights."""
    g, edges = draw(matchable(max_n=12))
    if draw(st.booleans()):
        # Full-mantissa weights, so that adding them in another order
        # rounds differently.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        ws = rng.uniform(0.5, 100.0, g.m)
        g = Graph(g.n, g.edges(), ws)
    return g, edges


@st.composite
def claim_dicts(draw):
    """Faulted-run outputs: a matching's claims, then per-node damage.

    Nodes may crash (``None``), forget (-1), drop out of the dict, or
    claim an out-of-range, negative or arbitrary other node — never
    themselves.
    """
    g, edges = draw(matchable(max_n=10))
    claims: dict = {v: -1 for v in range(g.n)}
    for u, v in edges:
        claims[u], claims[v] = v, u
    for v in range(g.n):
        others = [u for u in range(g.n) if u != v]
        kind = draw(st.sampled_from(
            ["keep", "keep", "none", "free", "drop", "out", "neg", "other"]
        ))
        if kind == "none":
            claims[v] = None
        elif kind == "free":
            claims[v] = -1
        elif kind == "drop":
            del claims[v]
        elif kind == "out":
            claims[v] = draw(st.integers(g.n, g.n + 3))
        elif kind == "neg":
            claims[v] = draw(st.integers(-5, -2))
        elif kind == "other" and others:
            claims[v] = draw(st.sampled_from(others))
    return g, claims


class TestMateVector:
    def test_one_sided_claims(self):
        # 0<->1 symmetric; 2 claims 1 (taken), 3 out of range, 4
        # negative, 5 claims a node missing from the dict.
        outputs = {0: 1, 1: 0, 2: 1, 3: 9, 4: -3, 5: 6, 7: None}
        mate, one_sided = mate_vector(8, outputs)
        assert mate.tolist() == [1, 0, 1, 9, -3, 6, -1, -1]
        assert one_sided.tolist() == [2, 3, 4, 5]


class TestWeight:
    @given(weighted_matchings())
    @settings(max_examples=150, deadline=None)
    def test_equals_edge_by_edge_sum(self, gm):
        g, edges = gm
        for m in (Matching(g, edges), Matching(g)):
            want = sum(g.weight(u, v) for u, v in m.edges())
            got = m.weight()
            # Bit for bit and the same type: the empty matching is int 0.
            assert type(got) is type(want)
            assert repr(got) == repr(want)

    def test_sums_in_lower_endpoint_order(self):
        # Edge ids run against the lower endpoints, and adding these
        # weights in edge-id order rounds differently.
        edges = [(2 * i, 2 * i + 1) for i in reversed(range(100))]
        ws = np.random.default_rng(1).uniform(0.5, 100.0, len(edges))
        g = Graph(200, edges, ws)
        m = Matching.from_mate_array(g, np.arange(200) ^ 1)
        want = sum(g.weight(u, v) for u, v in m.edges())
        assert sum(ws.tolist()) != want
        assert repr(m.weight()) == repr(want)


class TestDegradedMatching:
    @given(claim_dicts())
    @settings(max_examples=200, deadline=None)
    def test_equals_edge_by_edge_loop(self, gc):
        g, claims = gc
        try:
            want = _edge_by_edge_degraded_matching(g, claims)
        except ValueError:
            # A symmetric pair that is not an edge.
            with pytest.raises(ValueError):
                degraded_matching(g, claims)
            return
        m, widows = degraded_matching(g, claims)
        assert m == want[0] and len(m) == len(want[0])
        assert widows == want[1]


class TestArrayRunsBuildNoScalarCaches:
    """An array run plus its certificate stays on the CSR arrays."""

    @pytest.mark.parametrize("algo", ["ii", "luby", "lps", "mwm"])
    def test_run_and_certificate(self, algo):
        g = gnp_random(400, 0.02, seed=3)
        if algo in ("lps", "mwm"):
            g = assign_uniform_weights(g, seed=3)
        if algo == "ii":
            m, _ = israeli_itai_matching(g, seed=1, backend="array")
            assert m.is_maximal() and m.weight() == len(m)
        elif algo == "luby":
            mis, _ = luby_mis(g, seed=1, backend="array")
            assert verify_mis(g, mis)
        elif algo == "lps":
            m, _ = lps_mwm(g, seed=1, backend="array")
            assert m.weight() >= 0.2 * greedy_mwm(g).weight()
        else:
            m, _, _ = weighted_mwm(g, eps=0.1, seed=1, backend="array")
            assert m.weight() >= 0.4 * greedy_mwm(g).weight()
        built = [c for c in SCALAR_CACHES if getattr(g, c) is not None]
        assert not built, f"{algo} built {built}"
