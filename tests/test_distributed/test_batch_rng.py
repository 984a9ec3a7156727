"""LaneRngs must replicate numpy's per-node Generator streams exactly.

Every assertion compares a :class:`~repro.distributed.batch_rng.LaneRngs`
draw against real ``numpy.random.Generator`` objects spawned the way
:class:`~repro.distributed.network.Network` spawns node RNGs
(``SeedSequence(seed).spawn(n)``).  Any divergence here would silently
break the batched backend's byte-identity guarantee, so the coverage
leans exhaustive: every bounded-draw tier, the 32-bit half-word buffer,
per-lane bounds, interleaved widths, and multi-word seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.batch_rng import LaneRngs, verify_replication


def _reference(seeds, n):
    return [
        np.random.default_rng(c)
        for s in seeds
        for c in np.random.SeedSequence(s).spawn(n)
    ]


def _assert_draw(lanes, rngs, low, high, idx):
    got = lanes.integers(low, np.asarray(high), np.asarray(idx, dtype=np.int64))
    if np.ndim(high) == 0:
        want = [int(rngs[i].integers(low, high)) for i in idx]
    else:
        want = [int(rngs[i].integers(low, int(h))) for i, h in zip(idx, high)]
    assert got.tolist() == want


#: One bounded draw per tier of ``Generator.integers``.
TIERS = [
    (0, 2),                 # coin flip: 32-bit Lemire, buffered halves
    (0, 3),                 # odd range: 32-bit Lemire with rejection
    (1, 17),
    (0, 2**32 - 1),         # largest 32-bit Lemire range
    (0, 2**32),             # raw 32-bit word tier
    (0, 2**32 + 1),         # smallest 64-bit Lemire range
    (1, 2000**4 + 1),       # Luby's number draw at n=2000
    (1, 255**4 + 1),        # Luby's number draw below the 32-bit cut
    (0, 1),                 # zero range: no words consumed
]


class TestLaneIdentity:
    def test_self_check_passes(self):
        verify_replication()

    @pytest.mark.parametrize("low,high", TIERS)
    def test_every_tier_matches(self, low, high):
        seeds, n = [0, 5], 9
        lanes = LaneRngs(seeds, n)
        rngs = _reference(seeds, n)
        idx = np.arange(len(rngs))
        for _ in range(4):  # repeated draws advance streams identically
            _assert_draw(lanes, rngs, low, high, idx)

    def test_interleaved_widths_share_the_half_word_buffer(self):
        # A 32-bit draw leaves the word's high half buffered; the next
        # 32-bit draw must consume it even across intervening 64-bit
        # draws, exactly as PCG64's internal buffer behaves.
        seeds, n = [3], 6
        lanes = LaneRngs(seeds, n)
        rngs = _reference(seeds, n)
        idx = np.arange(n)
        script = [(0, 2), (1, 2000**4 + 1), (0, 2), (0, 1), (0, 2), (0, 7)]
        for low, high in script:
            _assert_draw(lanes, rngs, low, high, idx)

    def test_per_lane_bounds_and_subsets(self):
        seeds, n = [11, 12, 13], 8
        lanes = LaneRngs(seeds, n)
        rngs = _reference(seeds, n)
        rs = np.random.default_rng(0)
        for _ in range(12):
            k = int(rs.integers(1, len(rngs) + 1))
            idx = np.sort(rs.choice(len(rngs), size=k, replace=False))
            highs = rs.integers(1, 30, size=k)
            _assert_draw(lanes, rngs, 0, highs, idx)

    def test_multi_word_and_zero_seeds(self):
        seeds, n = [0, 2**33 + 7, 2**65 + 1], 4
        lanes = LaneRngs(seeds, n)
        rngs = _reference(seeds, n)
        idx = np.arange(len(rngs))
        for low, high in [(0, 2), (5, 1000), (1, 10**14)]:
            _assert_draw(lanes, rngs, low, high, idx)

    def test_choice_equivalence(self):
        # Generator.choice(seq) draws integers(0, len(seq)) — the
        # contract batched ports rely on when replaying choice calls.
        seeds, n = [4], 5
        lanes = LaneRngs(seeds, n)
        rngs = _reference(seeds, n)
        for cands in ([3], [5, 9], [2, 4, 8, 16], list(range(37))):
            idx = np.arange(n)
            got = lanes.integers(0, len(cands), idx)
            want = [int(r.choice(cands)) for r in rngs]
            assert [cands[i] for i in got.tolist()] == want

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            LaneRngs([-1], 3)

    def test_empty_bounds_rejected(self):
        lanes = LaneRngs([0], 3)
        with pytest.raises(ValueError):
            lanes.integers(5, 5, np.array([0]))


class TestKeyedLanes:
    """Lanes spawned from node ids replay those nodes' streams."""

    IDS = [0, 3, 7, 1000]

    @pytest.mark.parametrize("low,high", TIERS)
    def test_lane_replays_its_node_id(self, low, high):
        seeds = [0, 5]
        lanes = LaneRngs(seeds, len(self.IDS), node_ids=np.array(self.IDS))
        rngs = [
            np.random.default_rng(np.random.SeedSequence(s).spawn(1001)[v])
            for s in seeds
            for v in self.IDS
        ]
        idx = np.arange(len(rngs))
        for _ in range(4):
            _assert_draw(lanes, rngs, low, high, idx)

    def test_one_id_per_lane_vertex(self):
        with pytest.raises(ValueError, match="one id per lane vertex"):
            LaneRngs([0], 3, node_ids=np.array([0, 1]))


#: Exclusive range widths ``high - low`` across every tier: 1 draws
#: nothing (a one-candidate ``choice``), 2 is a coin flip, 2³²−1 is the
#: last 32-bit Lemire width, 2³² the raw 32-bit word, and above it
#: 64-bit Lemire.
WIDTHS = st.one_of(
    st.just(1),
    st.just(2),
    st.integers(3, 1000),
    st.sampled_from([2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]),
    st.integers(2**32 + 2, 2**62),
)


class TestDrawNet:
    """Random draw scripts against real ``Generator`` objects.

    Each step draws once on a random subset of lanes, with int32 or
    int64 lane ids, one shared ``high`` or one per lane, and widths from
    every tier, so 32-bit and 64-bit draws interleave on the same lanes
    (the half-word buffer carries across them) and a call's ranges may
    span tiers.
    """

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_scripts_match_generators(self, data):
        seeds = data.draw(
            st.lists(st.integers(0, 2**40), min_size=1, max_size=3), label="seeds"
        )
        n = data.draw(st.integers(1, 5), label="n")
        lanes = LaneRngs(seeds, n)
        rngs = _reference(seeds, n)
        for _ in range(data.draw(st.integers(1, 8), label="steps")):
            idx = sorted(data.draw(
                st.lists(st.integers(0, len(rngs) - 1), unique=True), label="lanes"
            ))
            dtype = data.draw(st.sampled_from([np.int32, np.int64]), label="dtype")
            low = data.draw(st.integers(-3, 3), label="low")
            if data.draw(st.booleans(), label="per_lane"):
                widths = data.draw(
                    st.lists(WIDTHS, min_size=len(idx), max_size=len(idx)),
                    label="widths",
                )
                high = low + np.array(widths, dtype=np.int64)
                want = [int(rngs[i].integers(low, low + w)) for i, w in zip(idx, widths)]
            else:
                width = data.draw(WIDTHS, label="width")
                high = low + width
                want = [int(rngs[i].integers(low, high)) for i in idx]
            got = lanes.integers(low, high, np.array(idx, dtype=dtype))
            assert got.dtype == np.int64
            assert got.tolist() == want

    def test_one_call_spans_every_tier(self):
        seeds, n = [7, 8], 4
        lanes = LaneRngs(seeds, n)
        rngs = _reference(seeds, n)
        widths = [1, 2, 7, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 3]
        idx = np.arange(len(rngs), dtype=np.int32)
        for _ in range(3):
            got = lanes.integers(0, np.array(widths), idx)
            assert got.tolist() == [
                int(r.integers(0, w)) for r, w in zip(rngs, widths)
            ]
