"""Scheduler adapters: one call per cell slot, returning a matching.

Schedulers under comparison in experiment E8:

* :class:`PimScheduler` — PIM [3];
* :class:`IslipAdapter` — iSLIP [23];
* :class:`GreedyMaximalScheduler` — a random maximal matching per slot
  (the quality Israeli–Itai converges to; ½-MCM worst case);
* :class:`PaperScheduler` — the paper's bipartite (1−1/k)-MCM.  By
  default it uses the truncated-Hopcroft–Karp *reference* (identical
  guarantee and output quality as Theorem 3.8, Lemmas 3.4/3.5) so that
  thousand-slot simulations stay fast; ``distributed=True`` runs the
  actual Section 3.2 protocol per slot (small port counts);
* :class:`MaxSizeScheduler` — exact maximum matching per slot (the
  upper bound on per-slot quality).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.baselines.islip import IslipScheduler
from repro.baselines.pim import _request_matrix, pim_schedule, pim_schedule_matrix
from repro.core.bipartite_mcm import bipartite_mcm
from repro.graphs.graph import Graph
from repro.matching.hopcroft_karp import hopcroft_karp, hopcroft_karp_truncated


class Scheduler(Protocol):
    """Per-slot scheduling interface."""

    def schedule(self, demand: list[set[int]], slot: int) -> list[tuple[int, int]]:
        """Return matched (input, output) pairs for this slot."""
        ...


def _pairs(mi: np.ndarray, mj: np.ndarray) -> list[tuple[int, int]]:
    """Index arrays -> the list-of-pairs scalar scheduling interface."""
    return [(int(i), int(j)) for i, j in zip(mi, mj)]


#: Below this many backlogged pairs, sequential greedy in plain Python
#: beats the vectorized rounds (numpy call overhead dominates).  Both
#: branches compute the *same* matching — greedy in increasing
#: priority-key order — so the cutoff is purely a speed knob.
_GREEDY_PY_CUTOFF = 512

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_U32 = np.empty(0, dtype=np.uint32)

#: Composite priority keys pack the uint32 priority above the pair's
#: position: ``(u << 31) | pos``.  Keys are unique (positions are) and
#: ordering by key is exactly "priority, then position", so any sort —
#: or a scatter-min — resolves ties identically everywhere.  31
#: position bits keep the key inside int64 for any feasible pair count.
_PRIORITY_POS_BITS = 31


class PriorityTape:
    """Buffered stream of uint32 priorities for random-order greedy.

    Values are drawn from the owning generator in fixed blocks of
    ``BLOCK`` and handed out in order, so the stream is a pure function
    of the seed and of how many values each call consumed — never of
    *who* consumed them.  That is the property the seed-axis batched
    core (:class:`repro.switch.batched.BatchedGreedyCore`) relies on:
    it adopts each scheduler's tape and takes the same per-slot counts
    the single-seed core would, leaving identical generator state.
    """

    BLOCK = 2048

    __slots__ = ("_rng", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._buf = _EMPTY_U32
        self._pos = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` priorities (a read-only view, consumed)."""
        avail = self._buf.size - self._pos
        if count > avail:
            parts = [self._buf[self._pos :]]
            while avail < count:
                parts.append(self._rng.integers(
                    0, 1 << 32, size=self.BLOCK, dtype=np.uint32
                ))
                avail += self.BLOCK
            self._buf = np.concatenate(parts)
            self._pos = 0
        out = self._buf[self._pos : self._pos + count]
        self._pos += count
        return out


#: Survivor count below which :func:`_priority_rounds` finishes with a
#: sequential Python tail instead of further vector rounds.
_ROUNDS_PY_TAIL = 128


def _priority_rounds(
    si: np.ndarray,
    sjo: np.ndarray,
    key: np.ndarray,
    aux: np.ndarray,
    num_ids: int,
) -> np.ndarray:
    """Greedy maximal matching in increasing-priority-key order.

    ``si``/``sjo`` index one shared id space of size ``num_ids`` (rows,
    and columns offset past them); ``key`` holds each pair's unique
    int64 composite priority; ``aux`` is an arbitrary per-pair payload.
    A pair wins a round when it carries the minimum key among surviving
    pairs touching its row or column — the standard equivalence between
    priority-greedy and local-minima rounds — resolved with two
    ``np.minimum.at`` scatter passes, no sort.  Once few pairs survive,
    a sequential Python tail is cheaper than further vector rounds;
    survivors only touch ids that are still unmatched (round
    elimination removed every pair adjacent to a winner), so the tail's
    fresh used-table is sound.  Returns the winners' ``aux`` values
    (unordered — a matching is a set).
    """
    parts: list[np.ndarray] = []
    best = np.empty(num_ids, dtype=np.int64)
    used = np.empty(num_ids, dtype=bool)
    big = np.iinfo(np.int64).max
    while si.size > _ROUNDS_PY_TAIL:
        best.fill(big)
        np.minimum.at(best, si, key)
        np.minimum.at(best, sjo, key)
        win = (best.take(si) == key) & (best.take(sjo) == key)
        wi = si[win]
        wjo = sjo[win]
        parts.append(aux[win])
        used.fill(False)
        used[wi] = True
        used[wjo] = True
        keep = ~(used.take(si) | used.take(sjo))
        si = si[keep]
        sjo = sjo[keep]
        key = key[keep]
        aux = aux[keep]
    if si.size:
        order = np.argsort(key)  # unique keys: any sort kind agrees
        ti = si.take(order).tolist()
        tjo = sjo.take(order).tolist()
        ta = aux.take(order).tolist()
        tail_used = bytearray(num_ids)
        tw: list[int] = []
        for a, b, v in zip(ti, tjo, ta):
            if not tail_used[a] and not tail_used[b]:
                tail_used[a] = 1
                tail_used[b] = 1
                tw.append(v)
        parts.append(np.asarray(tw, dtype=aux.dtype))
    if not parts:
        return _EMPTY_I64
    return np.concatenate(parts)


def greedy_maximal_matrix(
    requests: np.ndarray, tape: PriorityTape
) -> tuple[np.ndarray, np.ndarray]:
    """Random-order greedy maximal matching on a boolean request matrix.

    Draws one uint32 priority per backlogged pair from ``tape`` and
    reproduces sequential greedy in increasing (priority, position)
    order.  Small instances run the sequential loop directly; large
    ones run priority-local-minima rounds (:func:`_priority_rounds`) —
    both branches compute the same matching.  Priorities come from a
    buffered :class:`PriorityTape` rather than a per-call
    ``rng.permutation`` so the draw cost amortizes across slots and the
    seed-axis batched core can consume the identical stream per lane.
    """
    num_inputs, num_outputs = requests.shape
    flat = requests.reshape(-1).nonzero()[0]  # row-major (input, output)
    n = flat.size
    u = tape.take(n)
    key = (u.astype(np.int64) << _PRIORITY_POS_BITS) | np.arange(n)
    if n <= _GREEDY_PY_CUTOFF:
        si, sj = np.divmod(flat[np.argsort(key)], num_outputs)
        in_used = bytearray(num_inputs)
        out_used = bytearray(num_outputs)
        mi_l: list[int] = []
        mj_l: list[int] = []
        for i, j in zip(si.tolist(), sj.tolist()):
            if not in_used[i] and not out_used[j]:
                in_used[i] = 1
                out_used[j] = 1
                mi_l.append(i)
                mj_l.append(j)
        return (
            np.asarray(mi_l, dtype=np.int64),
            np.asarray(mj_l, dtype=np.int64),
        )
    si, sj = np.divmod(flat, num_outputs)
    won = _priority_rounds(
        si, sj + num_inputs, key, flat, num_inputs + num_outputs
    )
    return np.divmod(won, num_outputs)


def _demand_graph(demand: list[set[int]], ports: int) -> tuple[Graph, list[int]]:
    """Bipartite demand graph: inputs 0..N-1, outputs N..2N-1."""
    cols = [sorted(outs) for outs in demand]
    rows = np.repeat(np.arange(len(cols)), [len(c) for c in cols])
    flat = np.fromiter(
        (j for c in cols for j in c), dtype=np.int64, count=len(rows)
    )
    edges = np.column_stack([rows, flat + ports])
    return Graph(2 * ports, edges), list(range(ports))


class PimScheduler:
    """PIM with its customary ⌈log₂N⌉+2 iterations."""

    def __init__(self, ports: int, seed: int = 0, iterations: int | None = None):
        self.ports = ports
        self.rng = np.random.default_rng(seed)
        self.iterations = iterations

    def schedule_matrix(
        self, occupancy: np.ndarray, slot: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Schedule directly on a ``(ports, ports)`` occupancy matrix."""
        return pim_schedule_matrix(occupancy > 0, self.rng, self.iterations)

    def schedule(self, demand: list[set[int]], slot: int) -> list[tuple[int, int]]:
        return pim_schedule(demand, self.ports, self.rng, self.iterations)


class IslipAdapter:
    """iSLIP with persistent round-robin pointers."""

    def __init__(self, ports: int, iterations: int = 4):
        self.inner = IslipScheduler(ports, ports, iterations)

    def schedule_matrix(
        self, occupancy: np.ndarray, slot: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Schedule directly on a ``(ports, ports)`` occupancy matrix."""
        return self.inner.schedule_matrix(occupancy > 0)

    def schedule(self, demand: list[set[int]], slot: int) -> list[tuple[int, int]]:
        return self.inner.schedule(demand)


class GreedyMaximalScheduler:
    """Random-order maximal matching per slot (½-MCM worst case)."""

    def __init__(self, ports: int, seed: int = 0):
        self.ports = ports
        self.rng = np.random.default_rng(seed)
        self.tape = PriorityTape(self.rng)
        self._req = np.empty((ports, ports), dtype=bool)

    def schedule_matrix(
        self, occupancy: np.ndarray, slot: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Schedule directly on a ``(ports, ports)`` occupancy matrix."""
        np.greater(occupancy, 0, out=self._req)
        return greedy_maximal_matrix(self._req, self.tape)

    def schedule(self, demand: list[set[int]], slot: int) -> list[tuple[int, int]]:
        return _pairs(*greedy_maximal_matrix(
            _request_matrix(demand, self.ports), self.tape
        ))


class PaperScheduler:
    """The paper's (1−1/k)-MCM as a switch scheduler.

    ``distributed=True`` runs the real Section 3.2 message-passing
    protocol every slot; the default uses the truncated-HK reference,
    which has the identical (1−1/k) guarantee and keeps thousand-slot
    simulations fast.
    """

    def __init__(self, ports: int, k: int = 3, seed: int = 0, distributed: bool = False):
        self.ports = ports
        self.k = k
        self.seed = seed
        self.distributed = distributed
        self._slot_seq = np.random.SeedSequence(seed)

    def schedule(self, demand: list[set[int]], slot: int) -> list[tuple[int, int]]:
        g, xs = _demand_graph(demand, self.ports)
        if self.distributed:
            m, _res = bipartite_mcm(
                g,
                self.k,
                xs=xs,
                seed=int(self._slot_seq.spawn(1)[0].generate_state(1)[0]),
            )
        else:
            m = hopcroft_karp_truncated(g, self.k, xs=xs)
        return [(u, v - self.ports) for u, v in m.edges()]


class MaxSizeScheduler:
    """Exact maximum matching per slot (quality upper bound)."""

    def __init__(self, ports: int):
        self.ports = ports

    def schedule(self, demand: list[set[int]], slot: int) -> list[tuple[int, int]]:
        g, xs = _demand_graph(demand, self.ports)
        m = hopcroft_karp(g, xs=xs)
        return [(u, v - self.ports) for u, v in m.edges()]


def _weighted_demand_graph(
    weights: list[dict[int, float]], ports: int
) -> Graph:
    """Bipartite demand graph weighted by queue occupancy."""
    edges, ws = [], []
    for i, row in enumerate(weights):
        for j in sorted(row):
            if row[j] > 0:
                edges.append((i, ports + j))
                ws.append(float(row[j]))
    return Graph(2 * ports, np.asarray(edges, dtype=np.int64).reshape(-1, 2), ws)


class WeightedScheduler(Protocol):
    """Schedulers that consume per-VOQ weights (queue lengths)."""

    def schedule_weighted(
        self, weights: list[dict[int, float]], slot: int
    ) -> list[tuple[int, int]]:
        """Return matched pairs given ``weights[i][j]`` = occupancy."""
        ...


class MaxWeightScheduler:
    """Exact max-*weight* matching on queue lengths per slot.

    The classical 100%-throughput scheduler (MWM on occupancies) — the
    weighted side of the paper's story: Section 4's algorithms are the
    distributed approximations of exactly this schedule.
    """

    def __init__(self, ports: int):
        self.ports = ports

    def schedule_weighted(
        self, weights: list[dict[int, float]], slot: int
    ) -> list[tuple[int, int]]:
        from repro.matching.exact_mwm import max_weight_matching

        g = _weighted_demand_graph(weights, self.ports)
        if g.m == 0:
            return []
        m = max_weight_matching(g)
        return [(u, v - self.ports) for u, v in m.edges()]

    def schedule(self, demand: list[set[int]], slot: int) -> list[tuple[int, int]]:
        """Unweighted adapter: treat every backlogged VOQ as weight 1."""
        return self.schedule_weighted(
            [{j: 1.0 for j in outs} for outs in demand], slot
        )


class WeightedPaperScheduler:
    """Algorithm 5's (½−ε)-MWM on queue lengths, as a switch scheduler.

    Uses the sequential reference (greedy black box) for speed; the
    guarantee transfers: the scheduled matching always carries at
    least (½−ε) of the maximum total queue weight, the property the
    stability literature needs from approximate MWM schedulers.
    """

    def __init__(self, ports: int, eps: float = 0.1):
        self.ports = ports
        self.eps = eps

    def schedule_weighted(
        self, weights: list[dict[int, float]], slot: int
    ) -> list[tuple[int, int]]:
        from repro.core.weighted_mwm import weighted_mwm_reference

        g = _weighted_demand_graph(weights, self.ports)
        if g.m == 0:
            return []
        m, _ = weighted_mwm_reference(g, eps=self.eps)
        return [(u, v - self.ports) for u, v in m.edges()]

    def schedule(self, demand: list[set[int]], slot: int) -> list[tuple[int, int]]:
        """Unweighted adapter: weight-1 VOQs."""
        return self.schedule_weighted(
            [{j: 1.0 for j in outs} for outs in demand], slot
        )
