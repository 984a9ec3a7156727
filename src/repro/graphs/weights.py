"""Weight assignment helpers for weighted-matching experiments.

The paper assumes ``w : E -> R+`` (strictly positive).  The weighted
experiments (E4, E10) use three distributions:

* uniform continuous on [1, W] — the generic case;
* exponential — heavy tails stress the weight-class decomposition of
  the LPS black box;
* uniform integers in {1..W} — matches the switch setting where weights
  are packet counts/priorities.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def assign_uniform_weights(
    g: Graph,
    lo: float = 1.0,
    hi: float = 100.0,
    seed: int | np.random.Generator | None = 0,
) -> Graph:
    """Weights uniform in [lo, hi], lo > 0."""
    if lo <= 0:
        raise ValueError("weights must be positive")
    rng = _rng(seed)
    w = rng.uniform(lo, hi, size=g.m)
    return g.with_weights(w)


def assign_exponential_weights(
    g: Graph,
    scale: float = 10.0,
    seed: int | np.random.Generator | None = 0,
) -> Graph:
    """Weights ~ 1 + Exp(scale): positive with a heavy tail."""
    rng = _rng(seed)
    w = 1.0 + rng.exponential(scale, size=g.m)
    return g.with_weights(w)


def assign_integer_weights(
    g: Graph,
    max_weight: int = 100,
    seed: int | np.random.Generator | None = 0,
) -> Graph:
    """Weights uniform in {1, .., max_weight}."""
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    rng = _rng(seed)
    w = rng.integers(1, max_weight + 1, size=g.m)
    return g.with_weights(w)
