"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.graphs import Graph, gnp_random


@pytest.fixture
def parallel_workers() -> int:
    """Worker count for ParallelRunner tests: capped at 2 under CI.

    CI runners typically expose 1-2 cores; oversubscribing them makes
    the determinism tests slow without testing anything extra.
    """
    return 2 if os.environ.get("CI") else 4


@pytest.fixture
def triangle() -> Graph:
    """K3 — smallest odd cycle."""
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def p4() -> Graph:
    """Path on 4 vertices — the smallest graph with a 3-augmenting path."""
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def small_random() -> Graph:
    """A fixed small sparse random graph used across modules."""
    return gnp_random(30, 0.12, seed=42)


@pytest.fixture
def weighted_square() -> Graph:
    """4-cycle with distinct weights — canonical weighted toy."""
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [4.0, 1.0, 3.0, 2.0])


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


@st.composite
def graphs(draw, max_n: int = 12, weighted: bool = False):
    """Random small :class:`Graph` instances for property tests."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))) if possible else []
    weights = None
    if weighted and edges:
        weights = draw(
            st.lists(
                st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
                min_size=len(edges),
                max_size=len(edges),
            )
        )
    return Graph(n, edges, weights)


@st.composite
def bipartite_graphs(draw, max_side: int = 7):
    """Random small bipartite graphs; returns (graph, xs, ys)."""
    nx = draw(st.integers(min_value=1, max_value=max_side))
    ny = draw(st.integers(min_value=1, max_value=max_side))
    possible = [(x, nx + y) for x in range(nx) for y in range(ny)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    return Graph(nx + ny, edges), list(range(nx)), list(range(nx, nx + ny))


@st.composite
def matchable(draw, max_n: int = 12):
    """A (graph, matching-edge-list) pair where the edges form a matching."""
    g = draw(graphs(max_n=max_n))
    chosen = []
    used: set[int] = set()
    for u, v in g.edges():
        if u not in used and v not in used and draw(st.booleans()):
            chosen.append((u, v))
            used.update((u, v))
    return g, chosen


def make_rng(seed: int = 0) -> np.random.Generator:
    """Deterministic RNG helper for non-hypothesis tests."""
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# CSR oracle: the stable-argsort build of the port-numbering order
# ---------------------------------------------------------------------------


def stable_argsort_csr(n: int, edges, index_dtype) -> tuple[np.ndarray, ...]:
    """``(indptr, indices, eids)`` by a stable argsort of the half-edges.

    The reference for the port-numbering order: interleave each edge's
    two half-edges as ``[u0, v0, u1, v1, ...]`` and stably sort them by
    source, so every vertex's ports ascend by edge id.
    """
    earr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    idt = np.dtype(index_dtype)
    src = earr.reshape(-1)
    dst = earr[:, ::-1].reshape(-1)
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=idt)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    eids = np.repeat(np.arange(len(earr), dtype=idt), 2)[order]
    return indptr, dst[order].astype(idt), eids


def assert_same_csr(g: Graph, edges=None) -> None:
    """``g``'s CSR triple is byte-identical to the stable-argsort build.

    ``edges`` defaults to ``g``'s own ``(lo, hi)`` list: orientation
    does not change the CSR, since an edge's two half-edges sit at
    different vertices.
    """
    if edges is None:
        edges = np.stack(g.endpoints_array(), axis=1)
    want = stable_argsort_csr(g.n, edges, g.index_dtype)
    for name, got, ref in zip(("indptr", "indices", "eids"),
                              g.adjacency_arrays(), want):
        assert got.dtype == ref.dtype, name
        assert got.tobytes() == ref.tobytes(), name
