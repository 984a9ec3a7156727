"""Shared seeded per-edge ranks — the randomness both sides read.

The random-greedy LCA (Alon–Rubinfeld–Vardi / Nguyen–Onak style)
hinges on one object: a random total order on the edges that a point
query can evaluate *locally* (one edge at a time) and a global run can
evaluate *in bulk* (one vectorized pass), with bit-identical results.
We realize it as a counter-based hash: edge ``eid`` under ``seed``
gets the 64-bit value

    ``rank(eid) = splitmix64_finalizer(seed_state(seed) + (eid+1)·φ)``

(φ = the splitmix64 golden-gamma increment), i.e. the ``eid``-th draw
of a splitmix64 stream keyed by the seed.  Two implementations of the
same arithmetic live here:

* :func:`edge_rank` — scalar, plain Python ints masked to 64 bits
  (the test oracle for the vectorized path);
* :func:`edge_ranks` — vectorized, ``uint64`` NumPy wraparound
  arithmetic (what the global oracle and the LCA read).

``tests/test_lca/test_lca_properties.py`` pins them equal element for
element.

The *order* the algorithms agree on is lexicographic ``(rank, eid)``:
64-bit collisions are astronomically unlikely but the tie-break makes
the order total by construction, so consistency never rests on a
probabilistic no-collision assumption.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
#: splitmix64 golden-gamma increment (2^64 / φ, odd).
_PHI = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: xor'd into the raw seed before mixing so seed=0 is not a weak key.
_SEED_SALT = 0xA0761D6478BD642F


def _mix64(z: int) -> int:
    """The splitmix64 finalizer on a Python int (mod 2^64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def seed_state(seed: int) -> int:
    """The 64-bit stream key derived from a user seed (any Python int)."""
    return _mix64((int(seed) ^ _SEED_SALT) & _MASK64)


def edge_rank(eid: int, seed: int) -> int:
    """Rank of one edge — scalar twin of :func:`edge_ranks`."""
    return _mix64((seed_state(seed) + (eid + 1) * _PHI) & _MASK64)


def edge_ranks(m: int, seed: int) -> np.ndarray:
    """Ranks of edges ``0..m-1`` as a ``uint64[m]`` array.

    uint64 array arithmetic wraps mod 2^64 exactly like the masked
    scalar path, so ``edge_ranks(m, s)[e] == edge_rank(e, s)`` for
    every edge — the identity the whole subsystem rests on.
    """
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got {m}")
    ids = np.arange(1, m + 1, dtype=np.uint64)
    z = np.uint64(seed_state(seed)) + ids * np.uint64(_PHI)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))
