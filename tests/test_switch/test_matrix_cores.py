"""The paper and max-size schedulers' request-matrix cores.

``schedule_matrix`` feeds each input's ascending backlogged outputs to
Hopcroft–Karp's phase loop.  It must return the pairs the ``Graph``
wrappers return on the demand graph, and neither switch loop, both of
which consult it, may build a ``Graph`` or a ``Matching``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph
from repro.matching import Matching, hopcroft_karp, hopcroft_karp_truncated
from repro.switch import (
    PaperScheduler,
    bernoulli_uniform,
    run_switch,
    run_switch_vectorized,
)
from repro.switch.schedulers import MaxSizeScheduler, _demand_graph


@st.composite
def occupancies(draw):
    """A square ``(ports, ports)`` occupancy matrix, 1–12 ports."""
    ports = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(1, 4, size=(ports, ports), dtype=np.int32)
    return np.where(rng.random((ports, ports)) < density, counts, 0)


def _graph_pairs(occ, k):
    """The pairs the ``Graph`` wrappers return on the demand graph."""
    ports = occ.shape[0]
    g, xs = _demand_graph(occ), list(range(ports))
    m = hopcroft_karp(g, xs) if k is None else hopcroft_karp_truncated(g, k, xs)
    return sorted((u, v - ports) for u, v in m.edges())


class TestMatrixCoreEqualsGraphPath:
    @given(occupancies(), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_paper(self, occ, k):
        mi, mj = PaperScheduler(occ.shape[0], k=k).schedule_matrix(occ, 0)
        assert sorted(zip(mi.tolist(), mj.tolist())) == _graph_pairs(occ, k)

    @given(occupancies())
    @settings(max_examples=300, deadline=None)
    def test_maxsize(self, occ):
        mi, mj = MaxSizeScheduler(occ.shape[0]).schedule_matrix(occ, 0)
        assert sorted(zip(mi.tolist(), mj.tolist())) == _graph_pairs(occ, None)

    def test_empty_matrix(self):
        occ = np.zeros((5, 5), dtype=np.int32)
        for sched in (PaperScheduler(5), MaxSizeScheduler(5)):
            mi, mj = sched.schedule_matrix(occ, 0)
            assert mi.size == mj.size == 0


@pytest.fixture
def constructions(monkeypatch):
    """Class names of every ``Graph`` / ``Matching`` built from now on."""
    built = []
    for cls in (Graph, Matching):
        def spy(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
            built.append(_name)
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", spy)
    return built


@pytest.mark.parametrize(
    "make",
    [lambda: PaperScheduler(8, k=3, seed=1), lambda: MaxSizeScheduler(8)],
    ids=["paper", "maxsize"],
)
class TestEngineBuildsNoGraph:
    def test_engine(self, make, constructions):
        stats = run_switch_vectorized(
            8, bernoulli_uniform(8, 0.9, seed=2), make(), slots=200, warmup=20
        )
        assert stats.departures > 0
        assert constructions == []

    def test_scalar_loop(self, make, constructions):
        """The reference loop consults the same matrix core."""
        stats = run_switch(
            8, bernoulli_uniform(8, 0.9, seed=2), make(), slots=200, warmup=20
        )
        assert stats.departures > 0
        assert constructions == []


def test_spy_sees_the_distributed_protocol(constructions):
    """``distributed=True`` runs the protocol on a demand Graph per slot."""
    run_switch_vectorized(
        8,
        bernoulli_uniform(8, 0.9, seed=2),
        PaperScheduler(8, k=3, seed=1, distributed=True),
        slots=5,
    )
    assert "Graph" in constructions and "Matching" in constructions


class TestPaperSchedulerK:
    @pytest.mark.parametrize("k", [0, -1, 2.5, "3", True, None])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ValueError, match="k must be an int >= 1"):
            PaperScheduler(4, k=k)

    def test_accepts_numpy_int(self):
        assert PaperScheduler(4, k=np.int64(2)).k == 2
