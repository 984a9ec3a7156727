"""Seed-axis batched scheduler cores for the switch engine.

Each core consults the whole lane stack per cell slot — the engine
passes the ``(num_seeds, ports, ports)`` occupancy stack ``q`` plus an
incrementally maintained boolean request stack ``req`` (``q > 0``,
updated in place on arrivals/departures so no core rescans occupancy) —
and returns one combined partial permutation as ``(lanes, mflat)``
index arrays — winner lanes plus flat indices into the stacked VOQ
state, ready for the engine's fancy-index departure update.  Every
lane's matching sequence is byte-identical to what that lane's own
scheduler instance would have produced in a single-seed run
(:func:`repro.switch.simulator.run_switch`):

* randomness stays **per lane** — each lane keeps its own stream
  (adopted from the scheduler instances: greedy's
  :class:`~repro.switch.schedulers.PriorityTape` buffers, stacked into
  one tape matrix; PIM's generator), and the cores consume it in
  exactly the single-engine order and counts, so generator state after
  a batched run matches N sequential runs;
* the **matrix work** is lifted to the lane stack: greedy resolves its
  priority-local-minima rounds once over the block-diagonal union of
  all lanes' request pairs (lane ``s``'s inputs/outputs live in
  rows/cols ``[s·P, (s+1)·P)``, so lanes cannot interact, and the
  composite ``(priority, position)`` keys restricted to one lane order
  its pairs exactly as the single core does); iSLIP stacks its pointer
  and cyclic-key state along the lane axis and resolves grant/accept
  with one ``argmin`` / scatter-min over the stack; PIM evaluates its
  rank-pick grant/accept over the stack with per-lane uniform draws
  gated on that lane still having live requests (matching the single
  core's early ``break``).

:func:`batch_schedulers` decides whether a scheduler list has a batched
core; :func:`repro.switch.engine.run_switch_batched` falls back to
consulting lanes one at a time through their single-seed cores (still
one batched traffic/arrival/replay pass) when it returns ``None`` —
always the case for a one-lane batch.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.islip import IslipScheduler
from repro.baselines.pim import pim_iterations_default
from repro.switch.schedulers import (
    _PRIORITY_POS_BITS,
    GreedyMaximalScheduler,
    IslipAdapter,
    PimScheduler,
    PriorityTape,
    _priority_rounds,
)

_EMPTY = np.empty(0, dtype=np.int64)


class BatchedGreedyCore:
    """Lane-stacked random-order greedy maximal matching.

    Per slot: each lane consumes one priority per backlogged pair from
    its own :class:`~repro.switch.schedulers.PriorityTape` stream (the
    single core's exact values and counts), then one
    priority-local-minima rounds computation
    (:func:`~repro.switch.schedulers._priority_rounds`) resolves the
    block-diagonal union of all lanes' pairs.  Composite keys order by
    (priority, position); positions within a lane are ascending in the
    lane's own pair order, so the union restricted to one lane is
    ordered exactly as the single core orders that lane — and
    block-diagonal ids keep lanes from ever competing.

    The per-lane tape buffers are adopted into one ``(num_seeds, cap)``
    matrix with per-lane cursors, so the per-slot draw is a single flat
    gather instead of ``num_seeds`` Python-level ``take()`` calls.
    Refills pull 2048-value blocks from each lane's own generator
    exactly when that lane's remaining buffer can't cover its current
    need — the same block-draw schedule a sequential
    :meth:`PriorityTape.take` sequence produces, so generator state
    after a batched run matches N sequential runs.  ``finalize()``
    writes the unconsumed remainders back to the tape objects.
    """

    def __init__(self, schedulers: list[GreedyMaximalScheduler]) -> None:
        self._tapes = [s.tape for s in schedulers]
        self._rngs = [t._rng for t in self._tapes]
        self._mat: np.ndarray | None = None

    def _ensure(self, cell: int) -> None:
        """Lazily build the tape matrix once the port count is known."""
        num_seeds = len(self._tapes)
        # worst case after a refill: need-1 leftover plus a full block
        cap = cell + PriorityTape.BLOCK
        self._cap = cap
        self._mat = np.empty((num_seeds, cap), dtype=np.uint32)
        self._matf = self._mat.reshape(-1)
        self._pos = np.zeros(num_seeds, dtype=np.int64)
        self._used = np.zeros(num_seeds, dtype=np.int64)
        self._rowbase = np.arange(num_seeds, dtype=np.int64) * cap
        self._edges = np.arange(num_seeds + 1, dtype=np.int64) * cell
        self._arange = np.arange(num_seeds * cell, dtype=np.int64)
        for s, t in enumerate(self._tapes):
            rem = t._buf[t._pos :]  # always < BLOCK <= cap
            self._mat[s, : rem.size] = rem
            self._used[s] = rem.size

    def _refill(self, s: int, need: int) -> None:
        """Compact lane ``s``'s row and draw blocks until ``need`` fits."""
        row = self._mat[s]
        pos = int(self._pos[s])
        avail = int(self._used[s]) - pos
        if avail and pos:
            row[:avail] = row[pos : pos + avail].copy()
        self._pos[s] = 0
        rng = self._rngs[s]
        block = PriorityTape.BLOCK
        while avail < need:
            row[avail : avail + block] = rng.integers(
                0, 1 << 32, size=block, dtype=np.uint32
            )
            avail += block
        self._used[s] = avail

    #: the engine maintains the sorted active-pair list incrementally
    #: and passes it as ``ids`` instead of a request matrix
    uses_ids = True

    def schedule(
        self,
        q: np.ndarray,
        req: np.ndarray | None,
        slot: int,
        ids: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        num_seeds, ports, _ = q.shape
        if self._mat is None:
            self._ensure(ports * ports)
        if ids is None:  # lane-major, row-major per lane
            ids = req.reshape(-1).nonzero()[0]
        n = ids.size
        if n == 0:
            return _EMPTY, _EMPTY
        bounds = np.searchsorted(ids, self._edges)
        counts = bounds[1:] - bounds[:-1]
        short = np.flatnonzero(counts > self._used - self._pos)
        if short.size:
            for s in short:
                self._refill(int(s), int(counts[s]))
        ar = self._arange[:n]
        u = self._matf.take(
            np.repeat(self._rowbase + self._pos - bounds[:-1], counts) + ar
        )
        self._pos += counts
        key = (u.astype(np.int64) << _PRIORITY_POS_BITS) | ar
        # block-diagonal ids: rows = lane*P + i, cols = lane*P + j; the
        # pair's flat VOQ id rides along as the rounds payload, so the
        # winners *are* the departure indices the engine needs
        if ports & (ports - 1) == 0:
            lp = ports.bit_length() - 1
            si = ids >> lp  # already lane*P + i
            pm = ports - 1
            sjo = (si & ~pm) + (ids & pm)
        else:
            si = ids // ports
            sjo = si - si % ports + (ids - si * ports)
        num_rows = num_seeds * ports
        sjo += num_rows
        mflat = _priority_rounds(si, sjo, key, ids, 2 * num_rows)
        return mflat // (ports * ports), mflat

    def finalize(self) -> None:
        """Write unconsumed tape remainders back to the lane tapes."""
        if self._mat is None:
            return
        for s, t in enumerate(self._tapes):
            t._buf = self._mat[s, self._pos[s] : self._used[s]].copy()
            t._pos = 0


class BatchedIslipCore:
    """Lane-stacked iSLIP: pointer/key state along axis 0.

    Deterministic given pointer state, so lifting is pure array work:
    grant is an ``argmin`` over the stacked cyclic-key matrices, accept
    a scatter-min over ``(lane, input)``-encoded keys.  A lane whose
    live requests are exhausted simply stops producing grants while the
    other lanes keep iterating — the single core's early ``break`` has
    no observable effect beyond that.  ``finalize()`` writes the
    advanced pointers back to the adapters, matching the state a
    sequential run would leave behind.
    """

    def __init__(self, adapters: list[IslipAdapter]) -> None:
        inners = [a.inner for a in adapters]
        self._inners = inners
        first = inners[0]
        self.num_inputs = first.num_inputs
        self.num_outputs = first.num_outputs
        self.iterations = first.iterations
        self.grant_ptr = np.stack([i.grant_ptr for i in inners])
        self.accept_ptr = np.stack([i.accept_ptr for i in inners])
        self._in_ids = np.arange(self.num_inputs, dtype=np.int64)
        self._out_ids = np.arange(self.num_outputs, dtype=np.int64)
        self._gkey = (
            self._in_ids[None, :, None] - self.grant_ptr[:, None, :]
        ) % self.num_inputs
        self._akey = (
            self._out_ids[None, None, :] - self.accept_ptr[:, :, None]
        ) % self.num_outputs

    def schedule(
        self, q: np.ndarray, req: np.ndarray, slot: int
    ) -> tuple[np.ndarray, np.ndarray]:
        num_seeds, ni, no = req.shape
        in_free = np.ones((num_seeds, ni), dtype=bool)
        out_free = np.ones((num_seeds, no), dtype=bool)
        lf: list[np.ndarray] = []
        mi: list[np.ndarray] = []
        mj: list[np.ndarray] = []
        best = np.empty(num_seeds * ni, dtype=np.int64)
        for it in range(self.iterations):
            live = req & in_free[:, :, None] & out_free[:, None, :]
            if not live.any():
                break
            # grant: per (lane, output), requesting input closest to ptr
            gi = np.argmin(np.where(live, self._gkey, ni), axis=1)
            granted = np.take_along_axis(live, gi[:, None, :], axis=1)[:, 0, :]
            ls, jv = np.nonzero(granted)
            iv = gi[ls, jv]
            # accept: scatter-min over (lane, input)-encoded keys; akey
            # values within one input's grants are distinct, so
            # min(enc) <=> min(akey), exactly the single core's rule
            enc = self._akey[ls, iv, jv] * no + jv
            best.fill(ni * no + no)
            group = ls * ni + iv
            np.minimum.at(best, group, enc)
            acc = best[group] == enc
            al = ls[acc]
            ai = iv[acc]
            aj = jv[acc]
            in_free[al, ai] = False
            out_free[al, aj] = False
            if it == 0 and al.size:
                # pointers advance only for first-iteration wins
                self.grant_ptr[al, aj] = (ai + 1) % ni
                self.accept_ptr[al, ai] = (aj + 1) % no
                self._gkey[al, :, aj] = (
                    self._in_ids[None, :] - self.grant_ptr[al, aj][:, None]
                ) % ni
                self._akey[al, ai, :] = (
                    self._out_ids[None, :] - self.accept_ptr[al, ai][:, None]
                ) % no
            lf.append(al)
            mi.append(ai)
            mj.append(aj)
        if not lf:
            return _EMPTY, _EMPTY
        lanes = np.concatenate(lf)
        mflat = (lanes * ni + np.concatenate(mi)) * no + np.concatenate(mj)
        return lanes, mflat

    def finalize(self) -> None:
        """Write the advanced pointer state back to the adapters."""
        for s, inner in enumerate(self._inners):
            inner.grant_ptr[:] = self.grant_ptr[s]
            inner.accept_ptr[:] = self.accept_ptr[s]
            inner._gkey[:] = self._gkey[s]
            inner._akey[:] = self._akey[s]


def _rank_pick_lanes(
    candidates: np.ndarray, u: np.ndarray, axis: int
) -> np.ndarray:
    """Lane-stacked :func:`repro.baselines.pim._rank_pick` (axis 1 or 2)."""
    counts = candidates.sum(axis=axis)
    pick = np.minimum((u * counts).astype(np.int64), np.maximum(counts - 1, 0))
    rank = np.cumsum(candidates, axis=axis) - 1
    return candidates & (rank == np.expand_dims(pick, axis))


class BatchedPimCore:
    """Lane-stacked PIM with per-lane uniform draws.

    The single core draws one ``rng.random(ports)`` per grant phase and
    one per accept phase, *only* on iterations where it still has live
    requests (then breaks).  The stacked core replicates that pattern:
    per iteration it draws grant+accept uniforms only for lanes whose
    own live mask is non-empty, so each lane's stream is consumed
    identically.
    """

    def __init__(
        self, schedulers: list[PimScheduler], iterations: int | None
    ) -> None:
        self._rngs = [s.rng for s in schedulers]
        self._iterations = iterations

    def schedule(
        self, q: np.ndarray, req: np.ndarray, slot: int
    ) -> tuple[np.ndarray, np.ndarray]:
        num_seeds, ni, no = req.shape
        iterations = self._iterations
        if iterations is None:
            iterations = pim_iterations_default(max(ni, no))
        in_free = np.ones((num_seeds, ni), dtype=bool)
        out_free = np.ones((num_seeds, no), dtype=bool)
        lf: list[np.ndarray] = []
        mi: list[np.ndarray] = []
        mj: list[np.ndarray] = []
        u_grant = np.zeros((num_seeds, no))
        u_accept = np.zeros((num_seeds, ni))
        for _ in range(iterations):
            live = req & in_free[:, :, None] & out_free[:, None, :]
            act = live.any(axis=(1, 2))
            if not act.any():
                break
            # stale u rows for inactive lanes are harmless: their live
            # masks are all-False, so rank-pick selects nothing
            for s in np.flatnonzero(act):
                rng = self._rngs[s]
                u_grant[s] = rng.random(no)
                u_accept[s] = rng.random(ni)
            grant = _rank_pick_lanes(live, u_grant, axis=1)
            accept = _rank_pick_lanes(grant, u_accept, axis=2)
            ls, ii, jj = np.nonzero(accept)
            in_free[ls, ii] = False
            out_free[ls, jj] = False
            lf.append(ls)
            mi.append(ii)
            mj.append(jj)
        if not lf:
            return _EMPTY, _EMPTY
        lanes = np.concatenate(lf)
        mflat = (lanes * ni + np.concatenate(mi)) * no + np.concatenate(mj)
        return lanes, mflat


def batch_schedulers(schedulers: list):
    """A batched core for ``schedulers``, or ``None`` to consult per lane.

    Batching requires at least two lanes running the *same* scheduler
    class with compatible static configuration (dimensions, iteration
    counts); subclasses fall back, since their overrides could change
    semantics the cores replicate.  A one-lane list always falls back:
    the single-seed ``schedule_matrix`` cores are faster at one lane.
    """
    kind = type(schedulers[0])
    if len(schedulers) == 1 or any(type(s) is not kind for s in schedulers):
        return None
    if kind is GreedyMaximalScheduler:
        return BatchedGreedyCore(schedulers)
    if kind is IslipAdapter:
        inners = [s.inner for s in schedulers]
        first = inners[0]
        if any(
            type(i) is not IslipScheduler
            or i.num_inputs != first.num_inputs
            or i.num_outputs != first.num_outputs
            or i.iterations != first.iterations
            for i in inners
        ):
            return None
        return BatchedIslipCore(schedulers)
    if kind is PimScheduler:
        iterations = schedulers[0].iterations
        if any(s.iterations != iterations for s in schedulers):
            return None
        return BatchedPimCore(schedulers, iterations)
    return None
