"""Both switch loops check every schedule the same way.

A scheduler, built-in or user-supplied, answers ``schedule_matrix`` with
``(inputs, outputs)`` index arrays.  A pair outside the switch, a
schedule that is not a matching and a scheduled empty VOQ each raise a
:class:`ValueError` from the scalar loop and from the engine alike;
every other schedule gives both loops equal ``SwitchStats``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.switch import (
    bernoulli_uniform,
    run_switch,
    run_switch_batched,
    run_switch_vectorized,
)
from repro.switch import engine


def _greedy(occupancy, seed):
    """A maximal matching over the backlogged VOQs, in a seeded order."""
    cand = np.argwhere(occupancy > 0)
    np.random.default_rng(seed).shuffle(cand)
    used_i, used_j = set(), set()
    pairs = []
    for i, j in cand.tolist():
        if i not in used_i and j not in used_j:
            used_i.add(i)
            used_j.add(j)
            pairs.append((i, j))
    return pairs


class Scripted:
    """Plays one scripted step per slot, then schedules nothing.

    Steps: ``("valid", seed)`` a greedy maximal matching;
    ``("repeat", seed)`` that matching with its first pair's input
    paired again; ``("empty", seed)`` that matching plus the first empty
    VOQ; ``("pairs", pairs)`` the given pairs, whatever the occupancy.
    """

    def __init__(self, ports, script):
        self.ports = ports
        self.script = script

    def schedule_matrix(self, occupancy, slot):
        kind, arg = self.script[slot] if slot < len(self.script) else (
            "pairs", []
        )
        if kind == "pairs":
            pairs = list(arg)
        else:
            pairs = _greedy(occupancy, arg)
            if kind == "repeat" and pairs:
                i, j = pairs[0]
                pairs.append((i, (j + 1) % self.ports))
            elif kind == "empty":
                idle = np.argwhere(occupancy == 0).tolist()
                pairs.extend(idle[:1])
        arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return arr[:, 0], arr[:, 1]


@st.composite
def lanes(draw, ports, horizon):
    """One lane's traffic seed and load plus its scheduler script."""
    pair = st.tuples(st.integers(-1, ports), st.integers(-1, ports))
    seeded = st.integers(0, 2**16)
    step = st.one_of(
        seeded.map(lambda s: ("valid", s)),
        seeded.map(lambda s: ("valid", s)),
        seeded.map(lambda s: ("valid", s)),
        seeded.map(lambda s: ("repeat", s)),
        seeded.map(lambda s: ("empty", s)),
        st.lists(pair, max_size=ports + 1).map(lambda p: ("pairs", p)),
    )
    # Mostly valid scripts, so equal stats are exercised as well as errors.
    n_bad = draw(st.integers(0, 2))
    script = draw(st.lists(
        seeded.map(lambda s: ("valid", s)), min_size=horizon, max_size=horizon
    ))
    for _ in range(n_bad if horizon else 0):
        script[draw(st.integers(0, horizon - 1))] = draw(step)
    load = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    return draw(st.integers(0, 2**16)), load, script


@st.composite
def runs(draw, num_lanes):
    ports = draw(st.integers(1, 6))
    slots = draw(st.integers(0, 30))
    warmup = draw(st.integers(0, 8))
    chunk = draw(st.sampled_from([1, 3, 7, 2048]))
    horizon = slots + warmup
    return ports, slots, warmup, chunk, [
        draw(lanes(ports, horizon)) for _ in range(num_lanes)
    ]


def _scalar(ports, slots, warmup, lane):
    seed, load, script = lane
    try:
        return run_switch(
            ports, bernoulli_uniform(ports, load, seed=seed),
            Scripted(ports, script), slots=slots, warmup=warmup,
        )
    except ValueError as e:
        return e


class TestLoopsAgreeOnUserSchedules:
    @given(runs(1))
    @settings(max_examples=120, deadline=None)
    def test_scalar_and_engine(self, run):
        ports, slots, warmup, chunk, (lane,) = run
        want = _scalar(ports, slots, warmup, lane)
        seed, load, script = lane
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "CHUNK_SLOTS", chunk)
                got = run_switch_vectorized(
                    ports, bernoulli_uniform(ports, load, seed=seed),
                    Scripted(ports, script), slots=slots, warmup=warmup,
                )
        except ValueError as e:
            got = e
        if isinstance(want, ValueError):
            assert isinstance(got, ValueError), (want, got)
        else:
            assert got == want

    @given(runs(2))
    @settings(max_examples=100, deadline=None)
    def test_two_lane_batch(self, run):
        """The batch raises exactly when some lane's scalar run raises."""
        ports, slots, warmup, chunk, lane_specs = run
        want = [_scalar(ports, slots, warmup, lane) for lane in lane_specs]
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "CHUNK_SLOTS", chunk)
                got = run_switch_batched(
                    ports,
                    [bernoulli_uniform(ports, load, seed=seed)
                     for seed, load, _ in lane_specs],
                    [Scripted(ports, script) for _, _, script in lane_specs],
                    slots=slots, warmup=warmup,
                )
        except ValueError as e:
            assert any(isinstance(w, ValueError) for w in want), e
        else:
            assert got == want


class Constant:
    """Schedules the same pairs every slot."""

    def __init__(self, ports, pairs):
        self.ports = ports
        self.pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)

    def schedule_matrix(self, occupancy, slot):
        return self.pairs[:, 0], self.pairs[:, 1]


class FirstTwice:
    """Schedules the first backlogged VOQ twice: not a matching."""

    def __init__(self, ports):
        self.ports = ports

    def schedule_matrix(self, occupancy, slot):
        i, j = np.argwhere(occupancy > 0)[0]
        return np.array([i, i]), np.array([j, j])


class EmptyOnce:
    """Serves the first empty VOQ in slot 0, then a valid matching."""

    def __init__(self, ports):
        self.ports = ports

    def schedule_matrix(self, occupancy, slot):
        pairs = _greedy(occupancy, slot) if slot else [
            np.argwhere(occupancy == 0)[0].tolist()
        ]
        arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return arr[:, 0], arr[:, 1]


LOOPS = {
    "scalar": lambda t, s: run_switch(4, t, s, slots=50),
    "engine": lambda t, s: run_switch_vectorized(4, t, s, slots=50),
    "batch": lambda t, s: run_switch_batched(
        4, [t, bernoulli_uniform(4, 0.0, seed=1)],
        [s, Constant(4, [])], slots=50,
    ),
}


@pytest.mark.parametrize("loop", sorted(LOOPS))
class TestNamedErrors:
    @pytest.mark.parametrize("pair", [(0, 5), (-1, 0), (4, 0), (0, -2)])
    def test_out_of_range_pair(self, loop, pair):
        """Once an IndexError, a silent wrap to port 3, or a silently
        served VOQ (1,1); now every loop names the pair and the ports."""
        with pytest.raises(
            ValueError,
            match=rf"schedule pair \({pair[0]},{pair[1]}\) out of range "
            "for 4 ports",
        ):
            LOOPS[loop](bernoulli_uniform(4, 1.0, seed=0), Constant(4, [pair]))

    def test_repeated_pair(self, loop):
        with pytest.raises(ValueError, match=r"not a matching at \(\d,\d\)"):
            LOOPS[loop](bernoulli_uniform(4, 1.0, seed=0), FirstTwice(4))

    def test_empty_voq_refilled_later(self, loop):
        """Later arrivals bring the VOQ's count back up; the bad slot
        still raises."""
        with pytest.raises(ValueError, match=r"scheduled empty VOQ \(0,\d\)"):
            LOOPS[loop](bernoulli_uniform(4, 1.0, seed=0), EmptyOnce(4))

    def test_empty_voq(self, loop):
        with pytest.raises(ValueError, match=r"scheduled empty VOQ \(2,3\)"):
            LOOPS[loop](bernoulli_uniform(4, 0.0, seed=0), Constant(4, [(2, 3)]))
