"""Graph generators for the experiment suite.

All generators take an explicit ``seed`` (or an ``rng``) so every
experiment is reproducible.  Families:

* classical random graphs — G(n, p), G(n, m), random d-regular,
  uniform random trees;
* structured graphs — paths, cycles, grids, stars, complete and
  complete-bipartite graphs;
* *crown graphs* — the standard family on which a maximal matching can
  be ~half the maximum one, separating the ½-approximation baselines
  from the paper's (1−1/k) algorithms;
* bipartite demand graphs modelling the switch-scheduling workload the
  paper's introduction motivates (input ports × output ports, an edge
  per non-empty virtual output queue);
* scenario families for the "for all graphs" claims (Thms 3.1, 3.8,
  3.11, 4.5): scale-free preferential attachment (``barabasi_albert``),
  small-world rings (``watts_strogatz``), heavy-tailed configuration
  graphs (``powerlaw_configuration``), stochastic Kronecker graphs
  (``kronecker``), adversarial planted-matching instances
  (``planted_matching``) and high-Δ ``lollipop_graph`` stress cases.

The random families are sampled with NumPy batch operations (stub
shuffles, Bernoulli masks, vectorized unranking) rather than per-edge
Python loops, so million-edge instances stay cheap.

Streamed construction (the scale tier, ISSUE 7): the unbounded-size
families — ``gnp_random``, ``gnm_random``, ``barabasi_albert``,
``watts_strogatz``, ``powerlaw_configuration`` — emit their edges as
chunked NumPy arrays into :meth:`Graph.from_edge_chunks`; no Python
edge list (~100 bytes/edge) is ever materialized.  ``gnp_random`` /
``gnm_random`` / ``powerlaw_configuration`` produce bit-identical
graphs to their pre-stream scalar forms for integer seeds (the
underlying draws are unchanged; only the unranking/dedup is
vectorized).  ``barabasi_albert`` and ``watts_strogatz`` define new
seeded streams (their old forms were inherently one-edge-at-a-time);
the affected goldens were recaptured, per the PR 6 precedent.  When a
shared ``np.random.Generator`` instance is passed instead of an int
seed, block drawing may consume more raw draws than the scalar loops
did, as many more as the last block's unused tail — the produced graph
is unaffected, but the generator's subsequent state can differ.
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.graphs.graph import _INT64_MAX, Graph, select_index_dtype, sorted_unique

#: Edge-chunk granularity for the streamed generators.
_CHUNK = 1 << 18


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _unrank_edges(n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized unranking: lexicographic pair rank -> (u, v), u < v.

    Rank 0 is (0, 1); row ``u`` starts at ``u*(2n-u-1)//2``.  The row
    is located with one float ``sqrt`` and repaired with the same
    integer guards the scalar loop used (float rounding can be off by
    one; each guard moves monotonically, so the repair loop runs at
    most a couple of passes over the whole array).
    """
    idx = np.asarray(idx, dtype=np.int64)
    s = 2 * n - 1
    u = ((s - np.sqrt(s * s - 8.0 * idx.astype(np.float64))) // 2).astype(
        np.int64
    )
    np.clip(u, 0, max(n - 2, 0), out=u)
    while True:
        base = u * (2 * n - u - 1) // 2
        over = base > idx
        if over.any():
            u[over] -= 1
            continue
        under = base + (n - u - 1) <= idx
        if under.any():
            u[under] += 1
            continue
        break
    return u, u + 1 + (idx - base)


def physical_memory_bytes() -> int | None:
    """This host's physical memory in bytes, or ``None`` where unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _check_fits(what: str, need: int) -> None:
    """Raise :class:`MemoryError` before drawing what cannot be held.

    ``need`` is the estimated bytes of ``what``; it must be addressable
    by an int64 index and, where the host reports it, fit in physical
    memory.
    """
    if need > _INT64_MAX:
        raise MemoryError(
            f"{what} needs about {need:.3g} bytes, past the "
            f"{_INT64_MAX:.3g} bytes an int64 index addresses"
        )
    have = physical_memory_bytes()
    if have is not None and need > have:
        raise MemoryError(
            f"{what} needs about {need:.3g} bytes, more than this host's "
            f"{have:.3g} bytes of physical memory"
        )


def gnp_random(n: int, p: float, seed: int | np.random.Generator | None = 0) -> Graph:
    """Erdős–Rényi G(n, p).

    Sampled via geometric edge skipping, O(n + m) expected time, so
    large sparse instances are cheap.  Streamed: the Geometric(p) gaps
    are drawn in blocks (``rng.random`` fills arrays from the same
    uniform stream the scalar loop consumed, so the produced graph is
    bit-identical for integer seeds, whatever the block sizes),
    cumulative-summed into edge ranks, and unranked block by block by a
    generator that :meth:`Graph.from_edge_chunks` drains, so each int64
    block is compacted and dropped before the next one is drawn.  The
    first block covers the expected edge count plus six standard
    deviations, so a small graph draws about as many uniforms as it
    has edges; later blocks are ``_CHUNK`` long.  A graph whose expected
    size cannot be held raises :class:`MemoryError` before anything is
    drawn.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    rng = _rng(seed)
    if p == 0.0 or n < 2:
        return Graph(n)
    total = n * (n - 1) // 2
    m = int(p * total)  # expected edges
    _check_fits(
        f"gnp_random(n={n}, p={p}) with ~{m:.3g} expected edges",
        # indptr, indices, eids, lo and hi in the tier m would select
        select_index_dtype(n, m).itemsize * (n + 1 + 6 * m),
    )
    if p == 1.0:
        return complete_graph(n)
    # Iterate over the n*(n-1)/2 potential edges in lexicographic order,
    # jumping ahead by Geometric(p) each time (gap >= 1).
    lp = np.log1p(-p)

    def _chunks():
        last = -1  # rank of the previously emitted edge
        block = min(_CHUNK, m + 6 * math.isqrt(m + 1) + 64)
        while True:
            # A gap past the last rank ends the stream whatever its size,
            # so clip it before the int64 cast, which would wrap it (tiny
            # p gives float gaps past 2^63, or inf).  Every gap is then at
            # most total + 1, so the cumulative sum reaches total before
            # it could wrap (total < 2^62 here), and the stream ends at
            # the first rank past the last one, not at the block's end.
            with np.errstate(over="ignore"):
                skip = np.floor(np.log(1.0 - rng.random(block)) / lp)
            np.minimum(skip, total, out=skip)
            block = _CHUNK
            ranks = last + np.cumsum(1 + skip.astype(np.int64))
            past = ranks >= total
            done = bool(past.any())
            if done:
                ranks = ranks[: int(np.argmax(past))]
            else:
                last = int(ranks[-1])
            if ranks.size:
                u, v = _unrank_edges(n, ranks)
                yield np.stack([u, v], axis=1)
            if done:
                return

    return Graph.from_edge_chunks(n, _chunks())


def gnm_random(n: int, m: int, seed: int | np.random.Generator | None = 0) -> Graph:
    """Uniform random graph with exactly ``m`` edges.

    The draw (``rng.choice`` without replacement over the pair ranks)
    never materializes the rank population, so it works at any n; the
    chosen ranks are unranked vectorized, chunk by chunk, in draw order
    — bit-identical to the retired per-edge scalar loop, which was
    O(m·n) worst case.
    """
    total = n * (n - 1) // 2
    if m > total:
        raise ValueError(f"m={m} exceeds the {total} possible edges")
    rng = _rng(seed)
    chosen = rng.choice(total, size=m, replace=False)

    def _chunks():
        for s in range(0, m, _CHUNK):
            u, v = _unrank_edges(n, chosen[s: s + _CHUNK])
            yield np.stack([u, v], axis=1)

    return Graph.from_edge_chunks(n, _chunks())


def bipartite_random(
    nx: int,
    ny: int,
    p: float,
    seed: int | np.random.Generator | None = 0,
) -> tuple[Graph, list[int], list[int]]:
    """Random bipartite graph: X = 0..nx-1, Y = nx..nx+ny-1, edge prob p.

    Returns ``(graph, X, Y)``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    _check_fits(
        f"the dense draw of bipartite_random(nx={nx}, ny={ny})", 8 * nx * ny
    )
    rng = _rng(seed)
    mask = rng.random((nx, ny)) < p
    xs, ys = np.nonzero(mask)
    g = Graph(nx + ny, np.column_stack([xs, ys + nx]))
    return g, list(range(nx)), list(range(nx, nx + ny))


def complete_graph(n: int) -> Graph:
    """K_n (edge array built with one ``triu_indices`` call)."""
    us, vs = np.triu_indices(n, k=1)
    return Graph(n, np.column_stack([us, vs]))


def complete_bipartite(nx: int, ny: int) -> tuple[Graph, list[int], list[int]]:
    """K_{nx,ny}; returns ``(graph, X, Y)``."""
    xs = np.repeat(np.arange(nx), ny)
    ys = nx + np.tile(np.arange(ny), nx)
    g = Graph(nx + ny, np.column_stack([xs, ys]))
    return g, list(range(nx)), list(range(nx, nx + ny))


def path_graph(n: int) -> Graph:
    """Path on n vertices (n-1 edges)."""
    base = np.arange(max(n - 1, 0))
    return Graph(n, np.column_stack([base, base + 1]))


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    base = np.arange(n)
    return Graph(n, np.column_stack([base, (base + 1) % n]))


def star_graph(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    leaves = np.arange(1, max(n, 1))
    return Graph(n, np.column_stack([np.zeros_like(leaves), leaves]))


def grid_graph(rows: int, cols: int) -> Graph:
    """rows × cols grid; vertex (r, c) is r*cols + c."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def crown_graph(k: int) -> tuple[Graph, list[int], list[int]]:
    """Crown graph S_k^0: K_{k,k} minus a perfect matching.

    The classical hard case for ½-approximations: a maximal matching can
    have size ⌈k/2⌉-ish while the maximum is k... more precisely the
    crown has a perfect matching of size k, yet greedy/maximal schemes
    can get stuck at much smaller matchings on its *augmenting*
    structure.  Used in the baseline-separation experiment E5.
    """
    if k < 3:
        raise ValueError("crown graph needs k >= 3")
    xs = np.repeat(np.arange(k), k)
    ys = np.tile(np.arange(k), k)
    off = xs != ys  # K_{k,k} minus the identity matching
    g = Graph(2 * k, np.column_stack([xs[off], ys[off] + k]))
    return g, list(range(k)), list(range(k, 2 * k))


def random_tree(n: int, seed: int | np.random.Generator | None = 0) -> Graph:
    """Uniform random labelled tree via a random Prüfer sequence."""
    if n <= 1:
        return Graph(n)
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = _rng(seed)
    prufer = [int(rng.integers(0, n)) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    edges = []
    # Min-leaf scan (O(n log n) with a sorted structure is unnecessary
    # at our scales; a pointer scan is O(n^2) worst case but fine).
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def random_regular(n: int, d: int, seed: int | np.random.Generator | None = 0) -> Graph:
    """Random d-regular graph via the pairing model with retries.

    Raises ``ValueError`` when ``n*d`` is odd or ``d >= n``.
    """
    if d >= n:
        raise ValueError(f"degree d={d} must be < n={n}")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even")
    rng = _rng(seed)
    for _attempt in range(200):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        seen: set[tuple[int, int]] = set()
        ok = True
        edges = []
        for a, b in pairs:
            a, b = int(a), int(b)
            if a == b:
                ok = False
                break
            key = (a, b) if a < b else (b, a)
            if key in seen:
                ok = False
                break
            seen.add(key)
            edges.append(key)
        if ok:
            return Graph(n, edges)
    raise RuntimeError(
        f"pairing model failed to produce a simple {d}-regular graph "
        f"on {n} vertices after 200 attempts"
    )


def hypercube_graph(dim: int) -> Graph:
    """The ``dim``-dimensional hypercube Q_dim (2^dim vertices)."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    n = 1 << dim
    edges = [
        (v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)
    ]
    return Graph(n, edges)


def barbell_graph(k: int, bridge: int = 1) -> Graph:
    """Two K_k cliques joined by a path of ``bridge`` edges.

    Low-conductance structure: stresses algorithms whose progress
    arguments assume expansion.
    """
    if k < 2:
        raise ValueError("cliques need k >= 2")
    if bridge < 1:
        raise ValueError("bridge needs at least one edge")
    n = 2 * k + (bridge - 1)
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    right = list(range(k + bridge - 1, n))
    edges += [(u, v) for i, u in enumerate(right) for v in right[i + 1:]]
    chain = [k - 1] + list(range(k, k + bridge - 1)) + [right[0]]
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return Graph(n, edges)


def caterpillar_graph(spine: int, legs: int = 1, seed: int | np.random.Generator | None = 0) -> Graph:
    """A path of ``spine`` vertices with ``legs`` leaves per spine node."""
    if spine < 1:
        raise ValueError("spine must have at least one vertex")
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for s in range(spine):
        for _ in range(legs):
            edges.append((s, nxt))
            nxt += 1
    return Graph(nxt, edges)


def comb_graph(teeth: int) -> Graph:
    """A comb: a path spine with one pendant leaf per spine vertex.

    The classical ½-separation instance: the spine-leaf edges form a
    perfect matching of size ``teeth``, yet the spine edges alone are a
    maximal matching of size ~teeth/2 — the worst case any maximal-
    matching baseline (Israeli–Itai, greedy, PIM-style) can fall into,
    while phase-based (1−1/k) algorithms escape via 3-augmentations.
    """
    if teeth < 2:
        raise ValueError("comb needs at least 2 teeth")
    edges = [(i, i + 1) for i in range(teeth - 1)]  # spine
    edges += [(i, teeth + i) for i in range(teeth)]  # leaves
    return Graph(2 * teeth, edges)


def barabasi_albert(
    n: int, m_attach: int = 2, seed: int | np.random.Generator | None = 0
) -> Graph:
    """Barabási–Albert preferential attachment (scale-free degrees).

    Starts from K_{m_attach+1}; every later vertex attaches to
    ``m_attach`` distinct existing vertices chosen proportionally to
    degree, via the repeated-endpoints pool (each vertex appears in the
    pool once per incident edge, so a uniform pool draw *is* a
    degree-proportional draw).  Every vertex ends with degree ≥
    ``m_attach``; hub degrees follow the familiar power law, the
    high-skew regime the matching algorithms' Δ-dependent round bounds
    care about.

    Streamed implementation (ISSUE 7): the pool is arithmetic, never
    materialized — a drawn slot decodes to a core vertex, an edge's
    source, or a *pointer* to an earlier edge's target, and all draws
    are batched with pointer chasing plus duplicate-redraw rounds
    instead of the old per-vertex Python loop.  Same model, new seeded
    stream (bit-compatibility with the scalar loop is impractical);
    the BA goldens were recaptured, per the PR 6 precedent.
    """
    if m_attach < 1:
        raise ValueError(f"m_attach must be >= 1, got {m_attach}")
    if n <= m_attach + 1:
        raise ValueError(f"need n > m_attach+1 = {m_attach + 1}, got n={n}")
    rng = _rng(seed)
    m0 = m_attach + 1
    ma = m_attach
    # K_{m0} core; its pool slots are vertex 0 repeated deg=m_attach
    # times, then vertex 1, ... (slot // m_attach decodes the vertex).
    cu, cv = np.triu_indices(m0, k=1)
    core = np.stack([cu, cv], axis=1).astype(np.int64)
    f0 = m0 * (m0 - 1)  # pool slots owned by the core
    nv = n - m0  # attaching vertices; vertex of row r is m0 + r
    # The pool is never materialized: slot s of attachment edge e is
    # decoded arithmetically — s < f0 is a core slot, odd offsets are
    # the edge's source vertex m0 + e//ma, even offsets *point at* the
    # target of edge e (a pointer chase into earlier rows).  A draw for
    # row r sees exactly the pool of the first m0 + r vertices:
    fills = f0 + 2 * ma * np.arange(nv, dtype=np.int64)
    targets = np.full((nv, ma), -1, dtype=np.int64)
    need_draw = np.ones((nv, ma), dtype=bool)  # slots needing fresh rng
    pending = np.zeros((nv, ma), dtype=bool)  # drawn, awaiting referee
    accepted = np.zeros(nv, dtype=bool)  # rows final (referenceable)
    idx = np.empty((nv, ma), dtype=np.int64)
    while not accepted.all():
        rows, cols = np.nonzero(need_draw)
        if rows.size:
            # One batched draw for every slot that needs one, row-major
            # — a kept draw is never redrawn while its referee is still
            # unaccepted (that would bias against recent edges); it
            # simply resolves in a later round.
            idx[rows, cols] = rng.integers(0, fills[rows])
            pending[rows, cols] = True
            need_draw[rows, cols] = False
        rows, cols = np.nonzero(pending)
        ii = idx[rows, cols]
        val = np.full(rows.size, -1, dtype=np.int64)
        init = ii < f0
        val[init] = ii[init] // ma
        j = ii - f0
        odd = ~init & (j % 2 == 1)
        val[odd] = m0 + (j[odd] // 2) // ma
        ev = np.flatnonzero(~init & ~odd)
        ref = j[ev] // 2
        rrow, rcol = ref // ma, ref % ma
        ok = accepted[rrow]  # unaccepted referees resolve next round
        val[ev[ok]] = targets[rrow[ok], rcol[ok]]
        res = val >= 0
        targets[rows[res], cols[res]] = val[res]
        pending[rows[res], cols[res]] = False
        # Rows with every slot resolved: accept if the targets are
        # distinct (sorted, as the scalar version emitted them), else
        # keep each value's first slot and redraw the later duplicates.
        full = np.flatnonzero(
            ~accepted & ~(pending | need_draw).any(axis=1)
        )
        if full.size == 0:
            continue
        t = np.sort(targets[full], axis=1)
        dup_row = (t[:, 1:] == t[:, :-1]).any(axis=1)
        good = full[~dup_row]
        targets[good] = t[~dup_row]
        accepted[good] = True
        bad = full[dup_row]
        if bad.size:
            tb = targets[bad]
            rr = np.repeat(np.arange(bad.size), ma)
            cc = np.tile(np.arange(ma), bad.size)
            order = np.lexsort((cc, tb.ravel(), rr))
            tv, rv, cold = tb.ravel()[order], rr[order], cc[order]
            dup = np.zeros(tv.size, dtype=bool)
            dup[1:] = (tv[1:] == tv[:-1]) & (rv[1:] == rv[:-1])
            need_draw[bad[rv[dup]], cold[dup]] = True
    src = np.repeat(m0 + np.arange(nv, dtype=np.int64), ma)
    attach = np.stack([targets.ravel(), src], axis=1)
    return Graph.from_edge_chunks(n, [core, attach])


def watts_strogatz(
    n: int,
    k: int = 4,
    beta: float = 0.1,
    seed: int | np.random.Generator | None = 0,
) -> Graph:
    """Watts–Strogatz small-world graph.

    A ring lattice (each vertex joined to its ``k//2`` nearest
    neighbours on each side, built with vectorized offset arithmetic)
    whose far endpoints are rewired independently with probability
    ``beta``.  Interpolates between the high-girth structured regime
    (β=0) and G(n, k/n)-like randomness (β=1).

    Streamed implementation (ISSUE 7): the rewire mask is one draw (as
    before), then all rewired edges choose their new far endpoints
    *simultaneously*, with batched rejection rounds against self-loops,
    existing edges, and intra-batch collisions (earliest lattice edge
    keeps a contested pair) — instead of the old one-edge-at-a-time
    adjacency-set walk.  Same model, new seeded stream; edge count is
    still exactly ``n * k / 2``.
    """
    if k % 2 != 0:
        raise ValueError(f"k must be even, got {k}")
    if not 2 <= k < n:
        raise ValueError(f"need 2 <= k < n, got k={k}, n={n}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0,1], got {beta}")
    rng = _rng(seed)
    base = np.arange(n, dtype=np.int64)
    us = np.tile(base, k // 2)
    offs = np.repeat(np.arange(1, k // 2 + 1, dtype=np.int64), n)
    vs = (us + offs) % n
    rewire = rng.random(us.size) < beta
    pending = np.flatnonzero(rewire)
    # Rewired edges leave the key set before their targets are drawn.
    existing = np.sort(
        np.minimum(us[~rewire], vs[~rewire]) * n + np.maximum(us[~rewire], vs[~rewire])
    )
    stuck_rounds = 0
    while pending.size:
        w = rng.integers(0, n, size=pending.size)
        cu = us[pending]
        ck = np.minimum(cu, w) * n + np.maximum(cu, w)
        bad = w == cu
        if existing.size:
            pos = np.minimum(np.searchsorted(existing, ck), existing.size - 1)
            bad |= existing[pos] == ck
        # Intra-batch collisions: the earliest lattice edge keeps the
        # pair, later ones redraw.
        order = np.lexsort((pending, ck))
        sk = ck[order]
        later = np.zeros(sk.size, dtype=bool)
        later[1:] = sk[1:] == sk[:-1]
        bad[order[later]] = True
        good = ~bad
        vs[pending[good]] = w[good]
        existing = np.sort(np.concatenate([existing, ck[good]]))
        pending = pending[bad]
        stuck_rounds = stuck_rounds + 1 if not good.any() else 0
        if stuck_rounds > 200:
            # Only reachable when some u is adjacent to every other
            # vertex (no valid target) — the regime the scalar version
            # guarded with its degree check.  Give the survivors their
            # original lattice partners back.
            orig = np.minimum(us[pending], vs[pending]) * n + np.maximum(
                us[pending], vs[pending]
            )
            pos = np.minimum(np.searchsorted(existing, orig), existing.size - 1)
            if existing.size and (existing[pos] == orig).any():
                raise RuntimeError(
                    "watts_strogatz could not complete rewiring: a "
                    "saturated vertex's original edge was already taken"
                )
            break
    return Graph.from_edge_chunks(n, [np.stack([us, vs], axis=1)])


def powerlaw_configuration(
    n: int,
    gamma: float = 2.5,
    min_deg: int = 1,
    seed: int | np.random.Generator | None = 0,
) -> Graph:
    """Erased configuration model with power-law degrees P(d) ∝ d^−γ.

    Degrees are drawn by vectorized inverse-transform sampling from a
    discrete Pareto tail (clipped to n−1), the stub multiset is paired
    by one NumPy shuffle, and self-loops / parallel edges are *erased*
    (the standard simple-graph variant, so the realized degrees are a
    lower bound on the drawn ones).  Heavy-tailed degree sequences are
    the classic stress case for Δ-dependent distributed algorithms.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if gamma <= 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    if min_deg < 1:
        raise ValueError(f"min_deg must be >= 1, got {min_deg}")
    rng = _rng(seed)
    u = rng.random(n)
    degrees = np.minimum(
        np.floor(min_deg * (1.0 - u) ** (-1.0 / (gamma - 1.0))).astype(np.int64),
        n - 1,
    )
    if int(degrees.sum()) % 2 != 0:
        degrees[0] += 1 if degrees[0] < n - 1 else -1
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    # Erase self-loops and parallel edges on flat keys (bit-identical
    # to the old row-wise ``np.unique(..., axis=0)``, which sorts the
    # same lexicographic order but much slower), then stream the
    # surviving edges out in chunks.
    keys = sorted_unique(lo[lo != hi] * n + hi[lo != hi])

    def _chunks():
        for s in range(0, keys.size, _CHUNK):
            kk = keys[s: s + _CHUNK]
            yield np.stack([kk // n, kk % n], axis=1)

    return Graph.from_edge_chunks(n, _chunks())


def kronecker(
    power: int,
    initiator: list[list[float]] | np.ndarray | None = None,
    seed: int | np.random.Generator | None = 0,
) -> Graph:
    """Stochastic Kronecker graph on ``k^power`` vertices.

    The edge-probability matrix is the ``power``-fold Kronecker power
    of the ``k × k`` ``initiator`` (default the standard core-periphery
    seed [[0.9, 0.6], [0.6, 0.3]]); the upper triangle is sampled with
    one vectorized Bernoulli draw.  Produces self-similar,
    core-periphery community structure at every scale.
    """
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    if initiator is None:
        initiator = [[0.9, 0.6], [0.6, 0.3]]
    p0 = np.asarray(initiator, dtype=float)
    if p0.ndim != 2 or p0.shape[0] != p0.shape[1] or p0.shape[0] < 2:
        raise ValueError("initiator must be a square matrix of size >= 2")
    if np.any(p0 < 0.0) or np.any(p0 > 1.0):
        raise ValueError("initiator entries must be probabilities in [0,1]")
    if p0.shape[0] ** power > 1 << 13:
        raise ValueError(
            f"{p0.shape[0]}^{power} vertices is too large for the dense sampler"
        )
    prob = p0
    for _ in range(power - 1):
        prob = np.kron(prob, p0)
    n = prob.shape[0]
    rng = _rng(seed)
    mask = np.triu(rng.random((n, n)) < prob, k=1)
    us, vs = np.nonzero(mask)
    return Graph(n, np.column_stack([us, vs]))


def planted_matching(
    n: int,
    noise: float = 0.1,
    seed: int | np.random.Generator | None = 0,
) -> tuple[Graph, list[tuple[int, int]]]:
    """Adversarial instance: a hidden perfect matching inside noise.

    A uniformly random perfect matching on the (even) ``n`` vertices is
    planted, then every other pair becomes a noise edge independently
    with probability ``noise`` (one vectorized Bernoulli mask).  The
    planted pairs are edges 0..n/2−1, so greedy/maximal baselines that
    commit to noise edges strand planted partners — exactly the
    (1−1/k) vs ½ separation the paper is about.

    Returns ``(graph, planted_pairs)`` with the pairs as ``(u, v)``,
    ``u < v``; they always form a perfect matching of the graph.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"planted matching needs even n >= 2, got {n}")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must be in [0,1], got {noise}")
    rng = _rng(seed)
    perm = rng.permutation(n).reshape(-1, 2)
    pairs = sorted(
        (int(min(a, b)), int(max(a, b))) for a, b in perm
    )
    earr = np.asarray(pairs, dtype=np.int64)
    if noise > 0.0:
        mask = np.triu(rng.random((n, n)) < noise, k=1)
        mask[earr[:, 0], earr[:, 1]] = False
        us, vs = np.nonzero(mask)
        earr = np.concatenate([earr, np.column_stack([us, vs])])
    return Graph(n, earr), pairs


def lollipop_graph(clique: int, tail: int) -> Graph:
    """Lollipop: K_clique with a path of ``tail`` vertices attached.

    The classic high-Δ / low-conductance stress instance — a dense head
    (Δ = clique−1 inside) dragging a long sparse tail, so round bounds
    parameterized by Δ and by diameter pull in opposite directions.
    Vertices 0..clique−1 form the clique; the tail hangs off vertex
    ``clique−1``.
    """
    if clique < 3:
        raise ValueError(f"clique needs >= 3 vertices, got {clique}")
    if tail < 1:
        raise ValueError(f"tail needs >= 1 vertex, got {tail}")
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    prev = clique - 1
    for v in range(clique, clique + tail):
        edges.append((prev, v))
        prev = v
    return Graph(clique + tail, edges)


def switch_demand_graph(
    ports: int,
    load: float,
    pattern: str = "uniform",
    seed: int | np.random.Generator | None = 0,
) -> tuple[Graph, list[int], list[int]]:
    """Bipartite demand graph of an input-queued switch.

    One X vertex per input port, one Y vertex per output port; an edge
    means the corresponding virtual output queue is non-empty this
    cell slot.  ``load`` is the probability a given VOQ has traffic.

    Patterns
    --------
    ``uniform``
        each (input, output) pair independently backlogged with
        probability ``load``;
    ``diagonal``
        port i mostly talks to outputs i and i+1 (mod ports);
    ``hotspot``
        all inputs additionally contend for output 0.
    """
    rng = _rng(seed)
    edges = []
    for i in range(ports):
        for j in range(ports):
            if pattern == "uniform":
                p = load
            elif pattern == "diagonal":
                p = load if j in (i, (i + 1) % ports) else load / (2 * ports)
            elif pattern == "hotspot":
                p = min(1.0, load * 2) if j == 0 else load / 2
            else:
                raise ValueError(f"unknown pattern {pattern!r}")
            if rng.random() < p:
                edges.append((i, ports + j))
    g = Graph(2 * ports, edges)
    return g, list(range(ports)), list(range(ports, 2 * ports))
