"""Unit tests for weight assignment helpers."""

import numpy as np
import pytest

from repro.graphs import (
    assign_exponential_weights,
    assign_integer_weights,
    assign_uniform_weights,
    gnp_random,
)


@pytest.fixture
def base():
    return gnp_random(30, 0.2, seed=1)


class TestUniform:
    def test_range(self, base):
        g = assign_uniform_weights(base, lo=2.0, hi=5.0, seed=2)
        for _, _, w in g.iter_weighted_edges():
            assert 2.0 <= w <= 5.0

    def test_positive_required(self, base):
        with pytest.raises(ValueError):
            assign_uniform_weights(base, lo=0.0)

    def test_determinism(self, base):
        a = assign_uniform_weights(base, seed=3)
        b = assign_uniform_weights(base, seed=3)
        assert [w for *_, w in a.iter_weighted_edges()] == [
            w for *_, w in b.iter_weighted_edges()
        ]

    def test_topology_preserved(self, base):
        g = assign_uniform_weights(base, seed=4)
        assert g.edges() == base.edges()


class TestExponential:
    def test_all_above_one(self, base):
        g = assign_exponential_weights(base, scale=5.0, seed=5)
        assert all(w >= 1.0 for *_, w in g.iter_weighted_edges())

    def test_heavy_tail_present(self, base):
        g = assign_exponential_weights(base, scale=10.0, seed=6)
        ws = [w for *_, w in g.iter_weighted_edges()]
        assert max(ws) > 3 * (sum(ws) / len(ws)) / 2  # spread sanity


class TestInteger:
    def test_integral_values(self, base):
        g = assign_integer_weights(base, max_weight=10, seed=7)
        for *_, w in g.iter_weighted_edges():
            assert w == int(w) and 1 <= w <= 10

    def test_invalid_max(self, base):
        with pytest.raises(ValueError):
            assign_integer_weights(base, max_weight=0)


@pytest.mark.parametrize("assign,draw", [
    (assign_uniform_weights, lambda rng, m: rng.uniform(1.0, 100.0, size=m)),
    (assign_exponential_weights,
     lambda rng, m: 1.0 + rng.exponential(10.0, size=m)),
    (assign_integer_weights, lambda rng, m: rng.integers(1, 101, size=m)),
])
def test_weights_are_the_draws_bit_for_bit(base, assign, draw):
    """Arrays pass through unconverted: each weight is its float64 draw."""
    g = assign(base, seed=5)
    want = np.asarray(draw(np.random.default_rng(5), base.m), dtype=np.float64)
    assert g.weights_array().dtype == np.float64
    assert g.weights_array().tobytes() == want.tobytes()
    assert g.adjacency_arrays()[1] is base.adjacency_arrays()[1]
