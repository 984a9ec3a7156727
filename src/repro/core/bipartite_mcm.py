"""Section 3.2 — bipartite (1−1/k)-MCM with small messages (Theorem 3.8).

The phase subroutine ``Aug(G, M, ℓ)`` finds a maximal set of
vertex-disjoint augmenting paths of length ≤ ℓ and applies it.  One
*iteration* of the subroutine is a fixed window of 3ℓ+3 lockstep
rounds in three stages:

**Stage A — Algorithm 3, counting (rounds 0..ℓ).**  Free X nodes
broadcast 1; a node that receives numbers for the first time at round
d(v) records per-edge contributions ``c_v[i]`` and their sum ``n_v``
(the number of shortest half-augmenting paths ending at v, Lemma 3.6);
matched Y nodes forward the sum to their mate, matched X nodes to
their non-mate neighbors; free Y nodes that receive become *leaders* —
``n_y`` counts the augmenting paths of length d(y) ≤ ℓ ending at y
(the paper's "minor modifications" for mixed lengths ≤ ℓ).

**Stage B — token selection (rounds ℓ+1..2ℓ+1).**  Each leader draws
the *maximum of n_y uniform numbers from [1, N⁴]* (N bounds the
conflict-graph size, Section 3.2) — computed in one shot by inverse
transform — and launches a token that walks backward along the counted
DAG: at a Y node the next edge is a contributing non-matching edge
chosen with probability ``c_y[i]/n_y``; at a matched X node the token
follows the matching edge.  A leader at distance d launches after a
delay of ℓ−d rounds, so *every* node v sees all tokens that will ever
cross it in the single round 2ℓ+1−d(v) (the paper's "tokens may arrive
at a node only at a single round"); collisions are resolved in favour
of the largest (number, leader-id) and losing tokens die.  This is the
distributed emulation of one Luby iteration on the conflict graph: a
path whose number beats all intersecting paths always survives.

**Stage C — augmentation (rounds 2ℓ+2..3ℓ+2).**  A token that reached
a free X node traces its recorded path back to the leader, flipping
matched and unmatched edges (M ← M ⊕ P); both endpoints of every
flipped edge update their mate pointers as the confirmation passes.

Iterations repeat until no free Y node receives anything in Stage A —
then no augmenting path of length ≤ ℓ remains, i.e. the applied set
was maximal.  ``adaptive=True`` stops there (one extra empty iteration
serves as the certificate); fidelity mode runs the O(log N) budget of
Lemma 3.7 unconditionally.

Theorem 3.8 = running phases ℓ = 1, 3, …, 2k−1 (Lemmas 3.4/3.5 give
the (1−1/k) bound; see :func:`bipartite_mcm`).
"""

from __future__ import annotations

import math
from typing import Generator

import numpy as np

from repro.distributed.network import Network, RunResult
from repro.distributed.node import Node
from repro.graphs.graph import Graph
from repro.matching.matching import Matching

_COUNT = "c"
_TOKEN = "t"
_CONFIRM = "f"


def _choose_contributor(
    rng: np.random.Generator, contrib: dict[int, int], n_v: int
) -> int:
    """Sample a contributing edge with probability c_v[i]/n_v."""
    srcs = sorted(contrib)
    if len(srcs) == 1:
        return srcs[0]
    weights = np.array([contrib[s] for s in srcs], dtype=float)
    return int(rng.choice(srcs, p=weights / weights.sum()))


def _draw_winner_number(
    rng: np.random.Generator, n_v: int, hi: int
) -> int:
    """Maximum of ``n_v`` iid uniforms on [1, hi], by inverse transform.

    ``P(max <= x) = (x/hi)^{n_v}``, so ``ceil(hi * U^{1/n_v})`` has the
    right distribution (up to float precision for astronomically large
    n_v — ties are broken by leader id anyway).
    """
    u = float(rng.random())
    if u <= 0.0:
        return 1
    w = math.ceil(float(hi) * (u ** (1.0 / float(n_v))))
    return max(1, min(int(w), hi))


def aug_iteration_program(
    node: Node,
    xside: list[bool],
    mates: list[int],
    ell: int,
    hi: int,
    count_only: bool = False,
) -> Generator[None, None, tuple]:
    """One Aug iteration (3ℓ+3 rounds; ℓ+1 rounds if ``count_only``).

    Returns ``(mate, was_leader)`` — or, with ``count_only``,
    ``(d, n_v, contributions, was_leader)`` after Stage A, the raw
    Algorithm 3 output used by the Figure 1 reproduction.
    """
    is_x = xside[node.id]
    mate = mates[node.id]

    visited = False
    d = -1
    contrib: dict[int, int] = {}
    n_v = 0
    is_leader = False
    tok: tuple[int, int] | None = None  # (number, leader) passing through
    token_in: int | None = None  # neighbor that handed us the token
    token_out: int | None = None  # neighbor we handed the token to
    completed = False  # this free X node terminated a token

    total_segments = (ell + 1) if count_only else (3 * ell + 3)
    for seg in range(total_segments):
        inbox = node.inbox
        # ------------------------------------------------------ Stage A
        if seg == 0:
            if is_x and mate == -1:
                node.broadcast((_COUNT, 1))
        elif seg <= ell:
            counts = [(src, p[1]) for src, p in inbox if p[0] == _COUNT]
            if counts and not visited:
                visited = True
                d = seg
                contrib = dict(counts)
                n_v = sum(contrib.values())
                if is_x:
                    # Matched X (free X never receives): forward the sum
                    # over the non-matching edges.
                    if seg < ell:
                        for u in node.neighbors:
                            if u != mate:
                                node.send(u, (_COUNT, n_v))
                elif mate == -1:
                    is_leader = True  # n_v augmenting paths of length d end here
                elif seg < ell:
                    node.send(mate, (_COUNT, n_v))
        # ------------------------------------------------------ Stage B
        if not count_only and ell + 1 <= seg <= 2 * ell + 1:
            if is_leader and tok is None and seg == 2 * ell + 1 - d:
                number = _draw_winner_number(node.rng, n_v, hi)
                tok = (number, node.id)
                token_out = _choose_contributor(node.rng, contrib, n_v)
                node.send(token_out, (_TOKEN, number, node.id))
            arrivals = [
                (p[1], p[2], src) for src, p in inbox if p[0] == _TOKEN
            ]
            if arrivals and tok is None and token_in is None:
                number, leader, src = max(arrivals)
                tok = (number, leader)
                token_in = src
                if is_x and mate == -1:
                    completed = True  # the path reached a free X endpoint
                elif is_x:
                    token_out = mate
                    node.send(mate, (_TOKEN, number, leader))
                else:
                    token_out = _choose_contributor(node.rng, contrib, n_v)
                    node.send(token_out, (_TOKEN, number, leader))
        # ------------------------------------------------------ Stage C
        if not count_only and seg >= 2 * ell + 2:
            if seg == 2 * ell + 2 and completed:
                # Free X endpoint: the unmatched edge to token_in joins M.
                mate = token_in
                node.send(token_in, (_CONFIRM,))
            if any(p[0] == _CONFIRM for _, p in inbox):
                # The confirmation arrives from token_out's side; flip
                # this node's two path edges.
                if token_in is None:
                    mate = token_out  # leader: its chosen edge joins M
                elif token_in == mate:
                    # Y interior: matched edge (to token_in) leaves M,
                    # chosen edge (to token_out) joins it.
                    mate = token_out
                    node.send(token_in, (_CONFIRM,))
                else:
                    # X interior: unmatched edge (from token_in) joins M,
                    # the old matching edge (token_out) leaves it.
                    mate = token_in
                    node.send(token_in, (_CONFIRM,))
        yield
    if count_only:
        out = (d, n_v, tuple(sorted(contrib.items())), is_leader)
    else:
        out = (mate, is_leader)
    node.finish(out)
    return out


def default_phase_iterations(n: int, max_degree: int, ell: int) -> int:
    """Fidelity iteration budget: Θ(log N), N = n·Δ^{(ℓ+1)/2} (Lemma 3.7)."""
    log_n = math.log2(max(2, n))
    log_d = math.log2(max(2, max_degree + 1))
    return max(8, math.ceil(3 * (log_n + (ell + 1) / 2 * log_d)))


def _conflict_bound(n: int, max_degree: int, ell: int) -> int:
    """N: the Section 3.2 bound n·Δ^{(ℓ+1)/2} on conflict-graph size."""
    return max(2, n) * max(2, max_degree) ** ((ell + 1) // 2)


def aug_bipartite(
    g: Graph,
    xside: list[bool],
    mates: list[int],
    ell: int,
    seed: int = 0,
    iters: int | None = None,
    adaptive: bool = True,
    max_rounds: int = 1_000_000,
) -> tuple[list[int], RunResult, int]:
    """Aug(G, M, ℓ): maximal set of length-≤ℓ augmentations, applied.

    Parameters
    ----------
    xside:
        ``xside[v]`` — True when v lies on the X side.  Only each
        node's own entry is read (it's the node's input assignment).
    mates:
        Current matching as a mate array (−1 = free).
    iters:
        Fixed iteration budget (fidelity mode).  ``None`` with
        ``adaptive=True`` repeats until an iteration finds no leader.
    adaptive:
        Stop as soon as an iteration's Stage A reaches no free Y node —
        the certificate that no augmenting path of length ≤ ℓ remains.

    Returns ``(new_mates, merged_metrics, iterations_executed)``.
    """
    if ell % 2 != 1:
        raise ValueError("augmenting-path lengths are odd")
    if iters is None and not adaptive:
        iters = default_phase_iterations(g.n, g.max_degree(), ell)
    hi = _conflict_bound(g.n, g.max_degree(), ell) ** 4
    seq = np.random.SeedSequence(seed)
    total = RunResult()
    it = 0
    while iters is None or it < iters:
        net = Network(
            g,
            aug_iteration_program,
            params={"xside": xside, "mates": mates, "ell": ell, "hi": hi},
            seed=int(seq.spawn(1)[0].generate_state(1)[0]),
        )
        res = net.run(max_rounds=max_rounds)
        total = total.merge(res)
        mates = [res.outputs[v][0] for v in range(g.n)]
        it += 1
        if adaptive and not any(res.outputs[v][1] for v in range(g.n)):
            break
    return mates, total, it


def count_augmenting_paths(
    g: Graph,
    xside: list[bool],
    mates: list[int],
    ell: int,
    max_rounds: int = 100_000,
) -> tuple[dict[int, tuple], RunResult]:
    """Stage A alone (Algorithm 3): per-node ``(d, n_v, c_v, leader)``.

    The raw counting output — what Figure 1 tabulates layer by layer.
    ``c_v`` is a tuple of ``(neighbor, contribution)`` pairs.
    """
    hi = _conflict_bound(g.n, g.max_degree(), ell) ** 4
    net = Network(
        g,
        aug_iteration_program,
        params={
            "xside": xside,
            "mates": mates,
            "ell": ell,
            "hi": hi,
            "count_only": True,
        },
    )
    res = net.run(max_rounds=max_rounds)
    return dict(res.outputs), res


def bipartite_mcm(
    g: Graph,
    k: int,
    xs: list[int] | None = None,
    seed: int = 0,
    adaptive: bool = True,
    max_rounds: int = 1_000_000,
) -> tuple[Matching, RunResult]:
    """Theorem 3.8: (1−1/k)-MCM of a bipartite graph.

    Runs Aug phases ℓ = 1, 3, …, 2k−1.  After phase ℓ no augmenting
    path of length ≤ ℓ remains (maximality + Lemma 3.4), so by Lemma
    3.5 the final matching is a (1−1/(k+1))-MCM ≥ (1−1/k)-MCM.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if xs is None:
        part = g.bipartition()
        if part is None:
            raise ValueError("graph is not bipartite")
        xs = part[0]
    xside = [False] * g.n
    for x in xs:
        xside[x] = True
    mates = [-1] * g.n
    total = RunResult()
    seq = np.random.SeedSequence(seed)
    for ell in range(1, 2 * k, 2):
        mates, res, _ = aug_bipartite(
            g,
            xside,
            mates,
            ell,
            seed=int(seq.spawn(1)[0].generate_state(1)[0]),
            adaptive=adaptive,
            iters=None if adaptive else default_phase_iterations(
                g.n, g.max_degree(), ell
            ),
            max_rounds=max_rounds,
        )
        total = total.merge(res)
    m = Matching.from_mate_array(g, mates)
    total.outputs = {v: mates[v] for v in range(g.n)}
    return m, total
