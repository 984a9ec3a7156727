"""Undirected graph data structure used throughout the reproduction.

The paper (Section 2) works with an undirected graph ``G = (V, E)``,
optionally weighted by ``w : E -> R+``.  Vertices are integers
``0 .. n-1`` and edges carry stable integer ids ``0 .. m-1`` so that
algorithms can index per-edge state with plain lists (this matters for
Algorithm 3, whose per-node counters ``c_v[i]`` are indexed by incident
edge).

Storage is an immutable CSR (compressed sparse row) core built once at
construction with vectorized NumPy passes and two in-place sorts (the
duplicate check's edge keys, then the half-edges' packed keys):

* ``indptr`` — ``index_dtype[n+1]``; vertex ``v``'s incident half-edges
  live at positions ``indptr[v]:indptr[v+1]``;
* ``indices`` — ``index_dtype[2m]``; the neighbor at each half-edge slot;
* ``eids`` — ``index_dtype[2m]``; the edge id at each half-edge slot;
* ``weights`` — ``float64[m]`` or ``None`` (unweighted).

**Compact index dtype (the scale tier).**  ``index_dtype`` is selected
automatically: ``int32`` whenever both ``n`` and ``2m`` fit (i.e.
``n <= INT32_INDEX_LIMIT`` and ``2m <= INT32_INDEX_LIMIT``), ``int64``
otherwise — halving CSR memory for every graph this repo can actually
hold in RAM.  An explicit ``index_dtype=`` request that cannot address
the graph raises ``ValueError`` (the overflow guard) rather than
silently wrapping.  All index *math* that could overflow int32 (the
``u*n+v`` edge keys behind ``edge_id``, ``has_edge``,
``edge_key_index`` and ``edge_ids_array``) is performed in int64
regardless of the storage dtype.  Those keys are exact while ``n*n``
fits in int64, i.e. ``n <= 3037000499`` (``_EDGE_KEY_MAX_N``); the
duplicate-edge check uses them up to that bound and sorts on the
endpoint pair above it, so any vertex count int64 holds is validated
correctly.  Algorithm results are
byte-identical under either tier — consumers treat the CSR arrays as
dtype-agnostic indexers — which the golden suite asserts under the
:func:`forced_index_dtype` test hook.  Weights are always ``float64``:
weight arithmetic feeds byte-identical RunResults.

**Port-numbering invariant.**  Within vertex ``v``'s CSR slice, half-
edges appear in *edge-insertion order* — the position of a half-edge in
the slice is the "port number" of that edge at ``v``, exactly as in the
distributed model of Section 2 (Algorithm 3 indexes its counter array
by port).  The build orders the interleaved endpoint array
``[u0, v0, u1, v1, ...]`` by source with one sort of packed
``(source << 32) | position`` uint64 keys: the position breaks every
tie, so NumPy's unstable in-place sort returns the stable order, and
every vertex's ports ascend by edge id.  Graphs past
``PACKED_KEY_LIMIT`` take a stable argsort to the same order.  The
keys and their uint32 positions are the build's largest temporaries,
so a streamed build's peak stays under twice the finished arrays.
:meth:`Graph.support_subgraph` keeps that order when it cuts a kept
edge set out, so a cut-out support is the graph a fresh build of its
edges gives.  The array programs read "what my neighbors sent"
straight off each vertex's contiguous slice (the proposal programs'
pair lists, expanded from the per-vertex slices, and the LPS programs'
per-half-edge classes).

Topology is immutable after construction; weights may be replaced
wholesale via :meth:`Graph.with_weights` (used by Algorithm 5, which
re-weights the same topology each iteration with the derived weight
function ``w_M``).  The re-weighted graph shares the CSR and endpoint
arrays, so only the new weights are checked.

Scalar accessors (``neighbors``, ``incident``, ``edge_id``, …) are
backed by lazily built caches so repeated queries stay cheap; bulk
accessors (``degrees``, ``endpoints_array``, ``weights_array``,
``incident_view``, ``adjacency_arrays``) expose the arrays directly for
vectorized algorithm code.  All returned array views are read-only.
"""

from __future__ import annotations

import contextlib
import math
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

_EMPTY_EDGES = np.empty((0, 2), dtype=np.int64)

#: Largest value an int32 index can address.  ``Graph`` stores its CSR
#: arrays as int32 whenever ``n <= INT32_INDEX_LIMIT`` and
#: ``2m <= INT32_INDEX_LIMIT``.  Module-level (not baked into any
#: closure) so boundary tests can monkeypatch it down to a small value
#: and exercise the promotion threshold without allocating 2^31 slots.
INT32_INDEX_LIMIT = int(np.iinfo(np.int32).max)
_INT64_MAX = int(np.iinfo(np.int64).max)
#: Largest ``n`` whose flat edge keys ``u*n + v`` (below ``n*n``) fit
#: in int64.
_EDGE_KEY_MAX_N = math.isqrt(_INT64_MAX)

#: Largest ``n`` and half-edge count ``2m`` whose CSR is ordered by one
#: sort of packed ``(source << 32) | position`` uint64 keys (both words
#: must fit 32 bits); larger graphs fall back to a stable argsort.
#: Module-level so tests can monkeypatch it down to reach the fallback.
PACKED_KEY_LIMIT = 1 << 32
#: Which uint32 word of a uint64 key holds its high half.
_HIGH_WORD = 1 if sys.byteorder == "little" else 0

_INDEX_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))

#: When set (via :func:`forced_index_dtype`), overrides the automatic
#: index-dtype selection for constructions that do not pass an explicit
#: ``index_dtype=``.  Test hook for the dtype-identity suite.
_FORCED_INDEX_DTYPE: np.dtype | None = None


@contextlib.contextmanager
def forced_index_dtype(dtype: object) -> Iterator[None]:
    """Force every ``Graph`` built in this context onto one index dtype.

    Behaves exactly like passing ``index_dtype=dtype`` to each
    construction (including the overflow guard), so the golden suite
    can be replayed under both tiers to assert byte-identity.  Explicit
    ``index_dtype=`` arguments still win over the forced value.
    """
    global _FORCED_INDEX_DTYPE
    prev = _FORCED_INDEX_DTYPE
    _FORCED_INDEX_DTYPE = None if dtype is None else np.dtype(dtype)
    try:
        yield
    finally:
        _FORCED_INDEX_DTYPE = prev


def _fits_int32(n: int, m: int) -> bool:
    return n <= INT32_INDEX_LIMIT and 2 * m <= INT32_INDEX_LIMIT


def select_index_dtype(n: int, m: int) -> np.dtype:
    """The index dtype the compact tier picks for an ``(n, m)`` graph."""
    return _INDEX_DTYPES[0] if _fits_int32(n, m) else _INDEX_DTYPES[1]


def _resolve_index_dtype(n: int, m: int, requested: object) -> np.dtype:
    if requested is None:
        requested = _FORCED_INDEX_DTYPE
    if requested is None:
        return select_index_dtype(n, m)
    dt = np.dtype(requested)
    if dt not in _INDEX_DTYPES:
        raise ValueError(
            f"index_dtype must be int32 or int64, got {dt}"
        )
    if dt == np.dtype(np.int32) and not _fits_int32(n, m):
        raise ValueError(
            f"index_dtype=int32 cannot address a graph with n={n}, "
            f"2m={2 * m} (limit {INT32_INDEX_LIMIT}); use int64 or let "
            "Graph promote automatically"
        )
    return dt


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values — sort + run-length mask.

    ``np.unique`` on this NumPy switches to a hash table for large
    int64 inputs, which profiles ~10x slower than a plain sort on the
    tens-of-millions-element key arrays the scale tier produces (flood
    candidate keys, conflict-pair keys) — and those callers need the
    sorted order anyway.
    """
    a = np.sort(a)
    if a.size:
        keep = np.empty(a.size, dtype=bool)
        keep[0] = True
        np.not_equal(a[1:], a[:-1], out=keep[1:])
        a = a[keep]
    return a


def _check_endpoints(
    arr: np.ndarray, n: int, values: Iterable | None = None
) -> None:
    """Reject endpoints that no int64 vertex id can hold.

    ``values`` are the endpoints as given, when NumPy chose ``arr``'s
    dtype from Python objects (default: ``arr``'s own entries).  An
    integer outside int64 is an out-of-range endpoint,
    :class:`ValueError`; any other non-integer is a
    :class:`TypeError`.
    """
    if np.issubdtype(arr.dtype, np.integer):
        if arr.dtype != np.uint64 or not (arr > _INT64_MAX).any():
            return
        values = arr[arr > _INT64_MAX].tolist()
    elif values is None:
        values = arr.ravel().tolist()
    for x in values:
        if isinstance(x, (int, np.integer)) and not (
            -_INT64_MAX - 1 <= x <= _INT64_MAX
        ):
            raise ValueError(f"edge endpoint {x} out of range for n={n}")
    raise TypeError(f"edge endpoints must be integers, got dtype {arr.dtype}")


def _as_edge_array(edges: object, n: int) -> np.ndarray:
    """Normalize an edge iterable / array to an ``(m, 2)`` integer array.

    int32 and int64 arrays pass through without a widening copy (the
    streamed generators hand over compact chunks); everything else is
    normalized to int64.
    """
    if isinstance(edges, np.ndarray):
        arr = edges
        if arr.size == 0:
            return _EMPTY_EDGES
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"edge array must have shape (m, 2), got {arr.shape}")
        _check_endpoints(arr, n)
    else:
        edges = list(edges)
        if not edges:
            return _EMPTY_EDGES
        arr = np.asarray(edges)
        if arr.ndim != 2 or arr.shape[-1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        _check_endpoints(arr, n, (x for pair in edges for x in pair))
    if arr.dtype in (np.dtype(np.int32), np.dtype(np.int64)):
        return arr
    return arr.astype(np.int64, copy=False)


def _csr_arrays(
    n: int, earr: np.ndarray, idt: np.dtype
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR triple ``(indptr, indices, eids)`` of a validated edge array.

    Position ``p`` of the interleaved half-edge array ``[u0, v0, u1, v1,
    ...]`` belongs to edge ``p >> 1`` and points at endpoint ``p ^ 1``.
    Ordering the positions stably by source groups each vertex's
    half-edges in edge-insertion order — the port-numbering invariant
    (module docstring).
    """
    src = earr.reshape(-1)
    indptr = np.zeros(n + 1, dtype=idt)
    if src.size:
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    if n <= PACKED_KEY_LIMIT and src.size <= PACKED_KEY_LIMIT:
        # The position makes every key distinct, so the unstable
        # in-place sort returns the stable order.  Both words are
        # written in place: no int64 temporaries.
        key = np.arange(src.size, dtype=np.uint64)
        words = key.view(np.uint32)
        words[_HIGH_WORD::2] = src
        key.sort()
        pos = words[1 - _HIGH_WORD::2].copy()
        del key, words
    else:
        pos = np.argsort(src, kind="stable")
    pos ^= 1
    indices = src[pos].astype(idt, copy=False)
    pos >>= 1  # (p ^ 1) >> 1 == p >> 1: the edge id
    if pos.dtype == np.uint32:
        pos = pos.view(np.int32)  # 2m <= 2^32, so every edge id fits
    return indptr, indices, pos.astype(idt, copy=False)


class Graph:
    """An undirected graph with integer vertices and stable edge ids.

    Parameters
    ----------
    n:
        Number of vertices; vertices are ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs, or an ``(m, 2)`` integer array.
        Self-loops and duplicate edges are rejected.
    weights:
        Optional sequence (or array) of positive, finite edge weights,
        aligned with ``edges``.  ``None`` means the graph is unweighted
        (all queries through :meth:`weight` return 1.0).
    index_dtype:
        Storage dtype for the CSR index arrays (``int32`` / ``int64``).
        ``None`` (the default) auto-selects the compact tier (module
        docstring); an explicit dtype that cannot address the graph
        raises ``ValueError``.
    """

    __slots__ = (
        "n",
        "m",
        "_indptr",
        "_indices",
        "_eids",
        "_weights",
        "_lo",
        "_hi",
        "_edges_list",
        "_eid_map",
        "_nbr_tuples",
        "_inc_tuples",
        "_nbr_sets",
        "_max_degree",
        "_unit_weights",
        "_edge_key_sorted",
        "_edge_key_order",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray = (),
        weights: Sequence[float] | np.ndarray | None = None,
        *,
        index_dtype: object = None,
    ) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if n > _INT64_MAX:
            raise ValueError(f"vertex count {n} exceeds the int64 index range")
        self.n = n
        earr = _as_edge_array(edges, n)
        m = self.m = len(earr)
        idt = _resolve_index_dtype(n, m, index_dtype)
        u = earr[:, 0]
        v = earr[:, 1]
        # An out-of-range endpoint may wrap in the narrower lo/hi, but
        # the range check reads u and v and raises before lo/hi are used.
        lo = np.minimum(u, v).astype(idt, copy=False)
        hi = np.maximum(u, v).astype(idt, copy=False)
        if m:
            self._validate_topology(earr, u, v, lo, hi)
        self._lo, self._hi = lo, hi
        warr = None if weights is None else self._checked_weights(weights)
        self._set_arrays(*_csr_arrays(n, earr, idt), warr)

    def _checked_weights(
        self, weights: Sequence[float] | np.ndarray
    ) -> np.ndarray:
        """A private float64 copy of ``weights`` for this graph's ``m`` edges.

        Rejects a wrong shape or count and any weight that is not
        positive and finite, naming the edge by this graph's endpoints.
        """
        warr = np.array(weights, dtype=np.float64)
        if warr.ndim != 1:
            raise ValueError(f"weights must be 1-D, got shape {warr.shape}")
        if len(warr) != self.m:
            raise ValueError(f"{warr.size} weights for {self.m} edges")
        # NaN fails every comparison, so test for the good case.
        bad = ~((warr > 0.0) & (warr < np.inf))
        if bad.any():
            eid = int(np.argmax(bad))
            raise ValueError(
                f"edge ({self._lo[eid]},{self._hi[eid]}) has non-positive "
                f"or non-finite weight {warr[eid]}; the paper assumes "
                "w : E -> R+"
            )
        return warr

    def _set_arrays(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        eids: np.ndarray,
        weights: np.ndarray | None,
    ) -> None:
        """Freeze the CSR triple and weights; reset the lazy caches.

        ``n``, ``m``, ``_lo`` and ``_hi`` are set by the caller, which
        also owns every validity check.
        """
        self._indptr, self._indices, self._eids = indptr, indices, eids
        self._weights: np.ndarray | None = weights
        for arr in (indptr, indices, eids, self._lo, self._hi, weights):
            if arr is not None:
                arr.setflags(write=False)
        # Lazy caches (scalar-access tuples, eid map, edge keys).
        self._edges_list: list[tuple[int, int]] | None = None
        self._eid_map: dict[int, int] | None = None
        self._nbr_tuples: list[tuple[int, ...]] | None = None
        self._inc_tuples: list[tuple[tuple[int, int], ...] | None] | None = None
        self._nbr_sets: list[frozenset[int]] | None = None
        self._max_degree: int | None = None
        self._unit_weights: np.ndarray | None = None
        self._edge_key_sorted: np.ndarray | None = None
        self._edge_key_order: np.ndarray | None = None

    def _validate_topology(
        self,
        earr: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> None:
        """Vectorized checks; error paths scan for faithful messages."""
        n = self.n
        oob = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if oob.any():
            i = int(np.argmax(oob))
            raise ValueError(
                f"edge ({earr[i, 0]},{earr[i, 1]}) out of range for n={n}"
            )
        loops = u == v
        if loops.any():
            raise ValueError(f"self-loop at vertex {u[int(np.argmax(loops))]}")
        if n <= _EDGE_KEY_MAX_N:
            # Built and sorted in place; only a graph that has a
            # duplicate pays for the stable sort that names it.
            key = lo.astype(np.int64)
            key *= n
            key += hi
            key.sort()
            if not (key[1:] == key[:-1]).any():
                return
            key = lo * np.int64(n) + hi
            order = np.argsort(key, kind="stable")
            dup = key[order][1:] == key[order][:-1]
        else:
            # lo*n+hi would wrap in int64: sort on the pair itself.
            order = np.lexsort((hi, lo))
            lo, hi = lo[order], hi[order]
            dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if dup.any():
            # Stable sort keeps equal keys in insertion order, so the
            # first duplicate *encountered* is the smallest original
            # index among second-and-later occurrences.
            i = int(order[1:][dup].min())
            raise ValueError(f"duplicate edge ({earr[i, 0]},{earr[i, 1]})")

    @classmethod
    def from_edge_chunks(
        cls,
        n: int,
        chunks: Iterable[np.ndarray],
        weight_chunks: Iterable[np.ndarray] | None = None,
        *,
        index_dtype: object = None,
    ) -> "Graph":
        """Build a graph from a stream of ``(k, 2)`` edge-array chunks.

        The chunked-construction protocol of the streamed generators:
        each chunk is an integer NumPy array of edges; chunks are
        compacted to the vertex-id dtype (int32 while ``n`` fits) as
        they arrive, so a generator that yields its blocks lazily holds
        one wide block at a time.  The compact parts are concatenated
        once and dropped before the CSR build — no Python edge list
        (~100 bytes/edge) ever exists.  An optional parallel stream of
        1-D weight chunks must align with the edge chunks
        element-for-element.
        """
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        edge_dt = np.dtype(np.int32) if n <= INT32_INDEX_LIMIT else np.dtype(np.int64)
        parts: list[np.ndarray] = []
        for chunk in chunks:
            arr = np.asarray(chunk)
            if arr.size == 0:
                continue
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError(
                    f"edge chunk must have shape (k, 2), got {arr.shape}"
                )
            _check_endpoints(arr, n)
            if arr.dtype.itemsize > edge_dt.itemsize:
                # Guard the narrowing cast: an out-of-range endpoint
                # must surface as the usual validation error, not wrap.
                lo = int(arr.min())
                hi = int(arr.max())
                if lo < 0 or hi >= n:
                    bad = lo if lo < 0 else hi
                    raise ValueError(
                        f"edge endpoint {bad} out of range for n={n}"
                    )
            parts.append(arr.astype(edge_dt, copy=False))
        if parts:
            earr = parts[0] if len(parts) == 1 else np.concatenate(parts)
        else:
            earr = np.empty((0, 2), dtype=edge_dt)
        del parts  # the build's peak must not hold the edges twice
        weights: np.ndarray | None = None
        if weight_chunks is not None:
            wparts = [np.asarray(w, dtype=np.float64) for w in weight_chunks]
            wparts = [w for w in wparts if w.size]
            weights = np.concatenate(wparts) if wparts else np.empty(0)
        return cls(n, earr, weights, index_dtype=index_dtype)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def weighted(self) -> bool:
        """Whether explicit weights were supplied."""
        return self._weights is not None

    @property
    def index_dtype(self) -> np.dtype:
        """Storage dtype of the CSR index arrays (int32 or int64)."""
        return self._indptr.dtype

    def vertices(self) -> range:
        """All vertices as a range."""
        return range(self.n)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(u, v)`` with ``u < v``, indexed by edge id."""
        return list(self._edge_tuples())

    def _edge_tuples(self) -> list[tuple[int, int]]:
        if self._edges_list is None:
            self._edges_list = list(zip(self._lo.tolist(), self._hi.tolist()))
        return self._edges_list

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        """Endpoints ``(u, v)`` with ``u < v`` of edge ``eid``."""
        return self._edge_tuples()[eid]

    def _eid_lookup(self) -> dict[int, int]:
        if self._eid_map is None:
            keys = (self._lo * np.int64(self.n) + self._hi).tolist()
            self._eid_map = dict(zip(keys, range(self.m)))
        return self._eid_map

    def edge_id(self, u: int, v: int) -> int:
        """Edge id of ``(u, v)``; raises ``KeyError`` if absent."""
        if u > v:
            u, v = v, u
        # Bounds guard: the flat key u*n+v is only collision-free for
        # in-range vertices.
        if u < 0 or v >= self.n:
            raise KeyError((u, v))
        try:
            return self._eid_lookup()[u * self.n + v]
        except KeyError:
            raise KeyError((u, v)) from None

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is an edge."""
        if u > v:
            u, v = v, u
        if u < 0 or v >= self.n:
            return False
        return (u * self.n + v) in self._eid_lookup()

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of ``v`` in port order (immutable; do not mutate)."""
        if self._nbr_tuples is None:
            flat = self._indices.tolist()
            ptr = self._indptr.tolist()
            self._nbr_tuples = [
                tuple(flat[ptr[i]: ptr[i + 1]]) for i in range(self.n)
            ]
        return self._nbr_tuples[v]

    def incident(self, v: int) -> tuple[tuple[int, int], ...]:
        """``(neighbor, edge_id)`` pairs of ``v`` in port order (immutable)."""
        if self._inc_tuples is None:
            self._inc_tuples = [None] * self.n
        cached = self._inc_tuples[v]
        if cached is None:
            a, b = self._indptr[v], self._indptr[v + 1]
            cached = self._inc_tuples[v] = tuple(
                zip(self._indices[a:b].tolist(), self._eids[a:b].tolist())
            )
        return cached

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def max_degree(self) -> int:
        """Maximum degree Δ (0 on the empty graph)."""
        if self._max_degree is None:
            self._max_degree = (
                int(np.diff(self._indptr).max()) if self.n else 0
            )
        return self._max_degree

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)`` (1.0 in unweighted graphs)."""
        eid = self.edge_id(u, v)
        return 1.0 if self._weights is None else float(self._weights[eid])

    def edge_weight(self, eid: int) -> float:
        """Weight of edge ``eid`` (1.0 in unweighted graphs)."""
        return 1.0 if self._weights is None else float(self._weights[eid])

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        if self._weights is None:
            return float(self.m)
        # Summed in edge-id order with scalar adds, matching the result
        # of summing the per-edge floats one by one.
        return float(sum(self._weights.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = "weighted " if self.weighted else ""
        return f"Graph({tag}n={self.n}, m={self.m})"

    # ------------------------------------------------------------------
    # Bulk (array) accessors — the CSR core for vectorized algorithms
    # ------------------------------------------------------------------

    def degrees(self) -> np.ndarray:
        """All vertex degrees as an ``int64[n]`` array."""
        return np.diff(self._indptr)

    def endpoints_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints ``(lo, hi)`` as ``int64[m]`` read-only arrays.

        ``lo[eid] < hi[eid]`` for every edge, matching :meth:`edges`.
        """
        return self._lo, self._hi

    def weights_array(self) -> np.ndarray:
        """Edge weights as ``float64[m]`` (ones when unweighted), read-only."""
        if self._weights is None:
            if self._unit_weights is None:
                ones = np.ones(self.m)
                ones.setflags(write=False)
                self._unit_weights = ones
            return self._unit_weights
        return self._weights

    def incident_view(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbors, edge_ids)`` of ``v`` as read-only array views.

        Both arrays are in port order; no copies are made.
        """
        a, b = self._indptr[v], self._indptr[v + 1]
        return self._indices[a:b], self._eids[a:b]

    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw CSR triple ``(indptr, indices, eids)`` (read-only).

        The substrate the array programs' scatter/gather rides on:
        ``BatchedArrayContext`` holds exactly these views, and the
        programs rely on the port-numbering invariant (module
        docstring) to read a vertex's neighbors off its slice.
        """
        return self._indptr, self._indices, self._eids

    def edge_key_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted flat edge keys + the eid permutation, built once.

        Returns ``(keys, order)`` where ``keys`` is the sorted int64
        array of ``lo * n + hi`` edge keys and ``order[k]`` the edge id
        owning ``keys[k]`` — the substrate for vectorized edge-id
        lookups (:meth:`edge_ids_array`), shared by the augmentation
        surgery and the k-opt pricing kernel.  The array alternative to
        the m-entry Python dict behind :meth:`edge_id`, which is the
        memory wall at n=10^6.
        """
        if self._edge_key_sorted is None:
            keys = self._lo.astype(np.int64) * self.n + self._hi
            order = np.argsort(keys, kind="stable")
            self._edge_key_sorted = keys[order]
            self._edge_key_order = order
            self._edge_key_sorted.setflags(write=False)
            self._edge_key_order.setflags(write=False)
        return self._edge_key_sorted, self._edge_key_order

    def edge_ids_array(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Edge ids for vertex-pair arrays; ``-1`` where no edge exists.

        Endpoints must be in range (the flat key is only collision-free
        for in-range vertices); order within each pair is free.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        key = np.minimum(u, v) * np.int64(self.n) + np.maximum(u, v)
        skeys, order = self.edge_key_index()
        if skeys.size == 0:
            return np.full(key.shape, -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(skeys, key), skeys.size - 1)
        return np.where(skeys[pos] == key, order[pos], np.int64(-1))

    def neighbor_sets(self) -> list[frozenset[int]]:
        """Per-vertex frozen neighbor sets, built once and cached.

        The round engine uses these for O(1) neighbor-membership checks
        on message validation; they are shared across all ``Network``
        instances over the same graph.
        """
        if self._nbr_sets is None:
            flat = self._indices.tolist()
            ptr = self._indptr.tolist()
            self._nbr_sets = [
                frozenset(flat[ptr[i]: ptr[i + 1]]) for i in range(self.n)
            ]
        return self._nbr_sets

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def bipartition(self) -> tuple[list[int], list[int]] | None:
        """2-color the graph if bipartite.

        Returns ``(X, Y)`` with every edge crossing the sides, or
        ``None`` when the graph contains an odd cycle.  Isolated
        vertices are placed on the X side.
        """
        if self.n and self._nbr_tuples is None:
            self.neighbors(0)  # build the adjacency tuple cache once
        adj = self._nbr_tuples or []
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] != -1:
                continue
            color[s] = 0
            stack = [s]
            while stack:
                v = stack.pop()
                cu = 1 - color[v]
                for u in adj[v]:
                    if color[u] == -1:
                        color[u] = cu
                        stack.append(u)
                    elif color[u] != cu:
                        return None
        xs = [v for v in range(self.n) if color[v] == 0]
        ys = [v for v in range(self.n) if color[v] == 1]
        return xs, ys

    def is_bipartite(self) -> bool:
        """Whether the graph is bipartite."""
        return self.bipartition() is not None

    def connected_components(self) -> list[list[int]]:
        """Connected components, each a sorted vertex list."""
        if self.n and self._nbr_tuples is None:
            self.neighbors(0)
        adj = self._nbr_tuples or []
        seen = [False] * self.n
        comps: list[list[int]] = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            stack = [s]
            while stack:
                v = stack.pop()
                for u in adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        comp.append(u)
                        stack.append(u)
            comp.sort()
            comps.append(comp)
        return comps

    def subgraph(self, keep_edges: Iterable[int]) -> "Graph":
        """Spanning subgraph with the given edge ids (all vertices kept).

        Edge ids are *renumbered* in the subgraph; weights follow their
        edges.
        """
        if isinstance(keep_edges, np.ndarray):
            eids = np.unique(keep_edges.astype(np.int64, copy=False))
        else:
            eids = np.unique(np.asarray(list(keep_edges), dtype=np.int64))
        if eids.size and (eids[0] < 0 or eids[-1] >= self.m):
            raise IndexError(f"edge id out of range for m={self.m}")
        edges = np.stack([self._lo[eids], self._hi[eids]], axis=1) if eids.size else _EMPTY_EDGES
        weights = None
        if self._weights is not None:
            weights = self._weights[eids]
        return Graph(self.n, edges, weights, index_dtype=self.index_dtype)

    def support_subgraph(self, eids: np.ndarray) -> tuple["Graph", np.ndarray]:
        """The edges ``eids`` on just their endpoints, relabeled in order.

        ``eids`` must be ascending, distinct, in-range edge ids (e.g. a
        ``flatnonzero`` over an edge mask); anything else raises
        ``ValueError``.  Returns ``(sub, vertices)``: ``vertices`` lists
        the edges' endpoints ascending, ``sub`` has vertex ``i`` for
        ``vertices[i]`` and edge ``j`` for ``eids[j]``, and weights
        follow their edges.  The relabeling is monotone, so every
        ascending-id order (sorted neighbor lists, proposals by source)
        is the same in ``sub`` as here.

        Unlike :meth:`subgraph`, vertices without a kept edge are
        dropped, and ``sub``'s CSR is cut out of the kept vertices' own
        rows of this graph's validated CSR — no sort, no re-validation,
        and no pass over the rest of the graph beyond one bit per
        vertex and per edge: the cost follows the kept vertices'
        degrees.  Each vertex keeps its port order, which is the
        edge-id order a fresh ``Graph`` build of the same edges would
        produce.
        """
        eids = np.asarray(eids, dtype=np.int64)
        k = eids.size
        if eids.ndim != 1 or k and (
            eids[0] < 0 or eids[-1] >= self.m or (np.diff(eids) <= 0).any()
        ):
            raise ValueError(
                "support_subgraph needs ascending, distinct edge ids in "
                f"[0, {self.m}), got {eids.reshape(-1)[:8].tolist()}"
                f"{' ...' if k > 8 else ''}"
            )
        lo, hi = self._lo[eids], self._hi[eids]
        used = np.zeros(self.n, dtype=bool)
        used[lo] = True
        used[hi] = True
        vertices = np.flatnonzero(used)
        size = vertices.size
        idt = self.index_dtype
        relabel = np.empty(self.n, dtype=idt)
        relabel[vertices] = np.arange(size, dtype=idt)
        renumber = np.empty(self.m, dtype=idt)
        renumber[eids] = np.arange(k, dtype=idt)
        on = np.zeros(self.m, dtype=bool)
        on[eids] = True
        # The kept vertices' CSR rows end to end (every row is nonempty),
        # then the slots whose edge is kept, counted per row.
        start = self._indptr[vertices].astype(np.int64)
        deg = self._indptr[vertices + 1] - start
        first = np.cumsum(deg) - deg  # each row's offset in the expansion
        slot = np.arange(int(deg.sum()), dtype=np.int64)
        slot += np.repeat(start - first, deg)
        keep = on[self._eids[slot]]
        indptr = np.zeros(size + 1, dtype=idt)
        np.cumsum(np.add.reduceat(keep, first, dtype=np.intp), out=indptr[1:])
        slot = slot[keep]
        sub = Graph.__new__(Graph)
        sub.n, sub.m = int(size), int(k)
        sub._lo = relabel[lo]
        sub._hi = relabel[hi]
        sub._set_arrays(
            indptr,
            relabel[self._indices[slot]],
            renumber[self._eids[slot]],
            None if self._weights is None else self._weights[eids],
        )
        return sub, vertices

    def with_weights(self, weights: Sequence[float] | np.ndarray) -> "Graph":
        """Same topology, new weights (used for the derived w_M graph).

        The new graph shares this graph's read-only CSR and endpoint
        arrays (so the index tier carries over across Algorithm 5's
        re-weighting iterations); only the weights are checked.
        """
        return self._reweighted(self._checked_weights(weights))

    def unweighted(self) -> "Graph":
        """Same topology without weights (shares the CSR arrays)."""
        return self._reweighted(None)

    def _reweighted(self, weights: np.ndarray | None) -> "Graph":
        g = Graph.__new__(Graph)
        g.n, g.m, g._lo, g._hi = self.n, self.m, self._lo, self._hi
        g._set_arrays(self._indptr, self._indices, self._eids, weights)
        return g

    # ------------------------------------------------------------------
    # Iteration helpers
    # ------------------------------------------------------------------

    def edge_ids(self) -> range:
        """All edge ids as a range."""
        return range(self.m)

    def iter_weighted_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(u, v, w)`` for every edge."""
        ws = self.weights_array().tolist()
        for (u, v), w in zip(self._edge_tuples(), ws):
            yield u, v, w
