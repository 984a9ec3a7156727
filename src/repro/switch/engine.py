"""The production switch engine: one slot loop for any number of lanes.

The scalar cell-slot loop (:func:`repro.switch.simulator.run_switch`)
is the reference semantics.  :func:`run_switch_batched` is the one
production loop, for large port counts, 10^5–10^6 slot horizons and
any number of seed lanes:

* **VOQ state** is one ``(num_seeds, ports, ports)`` int32 occupancy
  stack instead of ``ports²`` Python deques per lane;
* **traffic** is consumed in chunked ``(lanes, slots, ports)``
  destination blocks from a
  :class:`~repro.switch.traffic.BatchedChunkedTraffic` stream;
* **schedulers** are consulted once per slot: a lane-stacked core from
  :func:`repro.switch.batched.batch_schedulers` when every lane runs the
  same built-in scheduler, else each lane's own ``schedule_matrix`` on
  its occupancy matrix — the one face of every scheduler, built-in or
  user-supplied.  A one-lane batch always takes the per-lane path: at
  one lane the single-seed cores are the fastest measured;
* **the scalar fabric's checks** run on every schedule without a NumPy
  call per consult: ``np.ravel_multi_index`` rejects an out-of-range
  pair as it forms the flat VOQ ids, and each chunk's departure flush
  rejects a non-matching schedule and a scheduled empty VOQ;
* **exact FIFO delay accounting without per-cell timestamps**: during
  the main pass only per-VOQ departure *counts* are kept (the
  departure-slot sums reduce from the per-slot match sizes).  One
  replay of the traffic streams (``traffic.clone()``) then walks the
  same arrival sequence and resolves, per VOQ, which arrival indices
  the window's FIFO departures consumed — ``total_delay = Σ departure
  slots − Σ arrival slots`` over exactly those cells.  This is exact
  because every VOQ is FIFO and receives at most one cell per slot:
  the cells departing in the measured window are precisely arrival
  indices ``[dep_count_at_warmup, dep_count_at_end)`` of their VOQ.

:func:`run_switch_vectorized` is the single-seed entry point: a
one-lane :func:`run_switch_batched` run.  Every lane is pinned
byte-identical to the scalar fabric on
:class:`~repro.switch.fabric.SwitchStats` across every scheduler ×
traffic model cell (``tests/test_switch/``); all engines drive the same
scheduler cores, which consume randomness in a fixed per-slot pattern,
so identical seeds yield identical schedules.
"""

from __future__ import annotations

import numpy as np

from repro.switch.fabric import SwitchStats, out_of_range
from repro.switch.simulator import _check_horizon, _check_ports
from repro.switch.traffic import BatchedChunkedTraffic, ChunkedTraffic

#: Slots of traffic drawn, scheduled and checked per chunk: one
#: ``(lanes, CHUNK_SLOTS, ports)`` destination block at a time.  Results
#: do not depend on it; tests lower it to put chunk boundaries inside
#: short runs.
CHUNK_SLOTS = 2048


def _chunk_events(block: np.ndarray, ports: int):
    """Flat slot-major arrival events for one batched traffic chunk.

    Returns ``(er, aflat, bounds)``: per event its slot within the chunk
    and its flat VOQ id ``lane*P² + i*P + j`` (so ``aflat // P²`` is its
    lane), plus per-slot event bounds.  The block is copied once into a
    contiguous slot-major array of the narrowest destination dtype so
    the mask / nonzero / gather steps touch the least memory.
    """
    num_seeds, count, _ = block.shape
    dt = np.int16 if ports < (1 << 15) else np.int64
    tbf = block.transpose(1, 0, 2).astype(dt).reshape(-1)
    fnz = np.flatnonzero(tbf >= 0)
    er, rows = np.divmod(fnz, num_seeds * ports)
    aflat = rows * ports + tbf.take(fnz)
    bounds = np.searchsorted(er, np.arange(count + 1)).tolist()
    return er, aflat, bounds


def _checked_departures(
    pend: list, pend_left: list, pend_slot: list, num_seeds: int, ports: int
) -> np.ndarray:
    """One chunk's buffered departures as flat VOQ ids, once checked.

    Per consult, ``pend`` holds the departed flat VOQ ids, ``pend_left``
    each VOQ's count after its departure and ``pend_slot`` the slot
    within the chunk.  Per slot and lane every input and every output
    may move one cell, and only from a non-empty VOQ: the first
    departure that breaks this raises the scalar fabric's
    :class:`ValueError`.  Memory: one count per (slot, lane, port).
    """
    dep = np.concatenate(pend)
    left = np.concatenate(pend_left)
    base = np.repeat(
        np.asarray(pend_slot) * (num_seeds * ports), [d.size for d in pend]
    )
    # (slot, lane, input) and (slot, lane, output) keys; floor division
    # by a scalar is NumPy's fast path, np.divmod is not
    key_i = dep // ports  # lane * ports + input
    key_j = dep - key_i * ports  # output
    if num_seeds > 1:
        key_j += key_i // ports * ports  # lane * ports + output
    key_i += base
    key_j += base
    if (
        left.min() >= 0
        and np.bincount(key_i).max() < 2
        and np.bincount(key_j).max() < 2
    ):
        return dep
    first = np.zeros((2, dep.size), dtype=bool)
    for seen, key in zip(first, (key_i, key_j)):
        seen[np.unique(key, return_index=True)[1]] = True
    k = int(np.argmax(~first.all(axis=0) | (left < 0)))
    lane, rest = divmod(int(dep[k]), ports * ports)
    pair = "({},{})".format(*divmod(rest, ports))
    if num_seeds > 1:
        pair += f" in seed lane {lane}"
    if not first[:, k].all():
        raise ValueError(f"schedule is not a matching at {pair}")
    raise ValueError(f"scheduled empty VOQ {pair}")


def run_switch_vectorized(
    ports: int,
    traffic: ChunkedTraffic,
    scheduler,
    slots: int,
    warmup: int = 0,
) -> SwitchStats:
    """Simulate ``slots`` cell slots of one seed: a one-lane batch.

    Semantics (and resulting :class:`SwitchStats`) are identical to
    :func:`repro.switch.simulator.run_switch`: ``warmup`` extra slots
    run first without being counted, queue state carries across the
    boundary, and departed cells keep their true arrival slots.

    ``traffic`` must be a fresh :class:`ChunkedTraffic` stream (the
    delay-accounting replay pass clones it back to slot 0).
    """
    if not isinstance(traffic, ChunkedTraffic):
        raise TypeError(
            "run_switch_vectorized needs a ChunkedTraffic stream "
            "(every repro.switch.traffic model returns one)"
        )
    return run_switch_batched(
        ports, [traffic], [scheduler], slots, warmup=warmup
    )[0]


def run_switch_batched(
    ports: int,
    traffic,
    schedulers,
    slots: int,
    warmup: int = 0,
) -> list[SwitchStats]:
    """Simulate every seed lane in one execution.

    One ``(num_seeds, ports, ports)`` occupancy stack replaces N
    sequential runs: arrivals come from a
    :class:`~repro.switch.traffic.BatchedChunkedTraffic` block per
    chunk, the scheduler cores are consulted once per slot (on the
    whole lane stack when :func:`repro.switch.batched.batch_schedulers`
    has a batched core, else lane by lane), and the delay-accounting
    replay pass walks all lanes' cloned streams at once.  Returns one
    :class:`SwitchStats` per lane, byte-identical to what
    ``run_switch(ports, traffic.lanes[s], schedulers[s], ...)`` would
    produce on fresh streams and schedulers.

    ``traffic`` is a :class:`BatchedChunkedTraffic` (or a sequence of
    per-lane :class:`ChunkedTraffic` streams, which is stacked for you
    — lanes may use different models or loads).  ``schedulers`` holds
    one instance per lane; instances must be distinct objects, since a
    shared instance's RNG/pointer state would be consumed in a
    different order than in per-lane sequential runs.  A scheduler
    whose ``ports`` differs from the switch's raises
    :class:`ValueError`.
    """
    if ports < 1:
        raise ValueError("need at least one port")
    _check_horizon(slots, warmup)
    schedulers = list(schedulers)
    num_seeds = len(schedulers)
    if num_seeds < 1:
        raise ValueError("need at least one scheduler lane")
    if len({id(s) for s in schedulers}) != num_seeds:
        raise ValueError(
            "each lane needs its own scheduler instance (a shared "
            "instance's state would diverge from per-lane runs)"
        )
    for sch in schedulers:
        _check_ports(sch, ports)
    if not isinstance(traffic, BatchedChunkedTraffic):
        traffic = BatchedChunkedTraffic(list(traffic))
    if traffic.num_seeds != num_seeds:
        raise ValueError(
            f"{traffic.num_seeds} traffic lanes for {num_seeds} schedulers"
        )
    if traffic.ports != ports:
        raise ValueError(
            f"traffic generates {traffic.ports} ports, switch has {ports}"
        )

    from repro.switch.batched import batch_schedulers

    horizon = warmup + slots
    # The scalar loop only resets stats when it *reaches* slot==warmup,
    # so with slots == 0 the warmup slots themselves are the window.
    window_start = warmup if slots > 0 else 0
    measured = horizon - window_start

    cell = ports * ports
    num_keys = num_seeds * cell
    # int32 state keeps the randomly-gathered working set cache-resident
    q = np.zeros((num_seeds, ports, ports), dtype=np.int32)
    qf = q.reshape(-1)  # flat view: 1-D fancy indexing is the fast path
    dep_cnt = np.zeros(num_keys, dtype=np.int64)
    dep_cnt_window = np.zeros_like(dep_cnt)  # snapshot at window start
    arrivals = np.zeros(num_seeds, dtype=np.int64)
    # per-slot per-lane match sizes, slot-major so each slot's write is
    # one contiguous row; departure totals and the departure-slot sum
    # reduce from it after the loop instead of per slot
    match_t = np.zeros((measured, num_seeds), dtype=np.int64)

    core = batch_schedulers(schedulers)
    # per lane: its scheduler, its occupancy views and its flat-id
    # offset, bound once
    lane_modes = [
        (
            sx,
            sch.schedule_matrix,
            q[sx],
            qf[sx * cell : (sx + 1) * cell],
            sx * cell,
        )
        for sx, sch in enumerate(schedulers)
    ]

    # Backlogged-VOQ state for the batched cores, maintained
    # incrementally from the arrival/departure deltas (never rescanning
    # occupancy): either a sorted flat id list (cores advertising
    # ``uses_ids``) or a ``q > 0`` boolean stack.
    track_ids = core is not None and getattr(core, "uses_ids", False)
    ids_live = np.empty(0, dtype=np.int64)
    req = reqf = None
    if core is not None and not track_ids:
        req = np.zeros((num_seeds, ports, ports), dtype=bool)
        reqf = req.reshape(-1)

    # Departures are buffered per consult (flat VOQ ids, each VOQ's
    # count after its departure, the slot within the chunk), then
    # checked and folded into dep_cnt once per chunk: per-slot checks
    # and scatter-adds would dominate the loop.
    pend: list[np.ndarray] = []
    pend_left: list[np.ndarray] = []
    pend_slot: list[int] = []

    def _flush_departures() -> None:
        if pend:
            dep = _checked_departures(
                pend, pend_left, pend_slot, num_seeds, ports
            )
            dep_cnt[:] += np.bincount(dep, minlength=num_keys)
            for buf in (pend, pend_left, pend_slot):
                buf.clear()

    slot = 0
    while slot < horizon:
        count = min(CHUNK_SLOTS, horizon - slot)
        block = traffic.chunk(count)  # (num_seeds, count, ports)
        _, aflat, bounds = _chunk_events(block, ports)
        # per-lane in-window arrival totals: one bincount per chunk
        # (arrivals are scheduler-independent, unlike departures)
        first_w = max(window_start - slot, 0)
        if first_w < count:
            arrivals += np.bincount(
                aflat[bounds[first_w] :] // cell, minlength=num_seeds
            )
        for r in range(count):
            s = slot + r
            w = s - window_start  # row of the measured window, if >= 0
            if w == 0 and window_start > 0:
                # departures before this point belong to warmup; the
                # replay pass skips each VOQ's first dep_cnt_window cells
                _flush_departures()
                dep_cnt_window[:] = dep_cnt
            lo_r = bounds[r]
            hi_r = bounds[r + 1]
            if hi_r > lo_r:
                # (lane, input) pairs are distinct within a slot, so
                # plain fancy indexing accumulates safely
                arr = aflat[lo_r:hi_r]
                qf[arr] += 1
                if track_ids:
                    # newly backlogged VOQs merge into the sorted list
                    # (``arr`` ascends: one event per global input row)
                    act = arr[qf.take(arr) == 1]
                    if act.size:
                        ids_live = np.insert(
                            ids_live, np.searchsorted(ids_live, act), act
                        )
                elif reqf is not None:
                    reqf[arr] = True
            if core is None:
                for sx, sched, q_lane, qf_lane, base in lane_modes:
                    mi, mj = sched(q_lane, s)
                    if not len(mi):
                        continue
                    try:
                        mfl = np.ravel_multi_index((mi, mj), (ports, ports))
                    except ValueError:
                        _flush_departures()  # an earlier slot's error first
                        raise ValueError(out_of_range(mi, mj, ports)) from None
                    left = qf_lane.take(mfl) - 1
                    qf_lane[mfl] = left
                    pend.append(mfl + base if base else mfl)
                    pend_left.append(left)
                    pend_slot.append(r)
                    if w >= 0:
                        match_t[w, sx] = mfl.size
            else:
                if track_ids:
                    lanes, mflat = core.schedule(q, None, s, ids_live)
                else:
                    lanes, mflat = core.schedule(q, req, s)
                if lanes.size:
                    left = qf.take(mflat) - 1
                    qf[mflat] = left
                    if track_ids:
                        dead = mflat[left == 0]
                        if dead.size:
                            keep = np.ones(ids_live.size, dtype=bool)
                            keep[
                                np.searchsorted(ids_live, np.sort(dead))
                            ] = False
                            ids_live = ids_live[keep]
                    else:
                        reqf[mflat] = left > 0
                    pend.append(mflat)
                    pend_left.append(left)
                    pend_slot.append(r)
                    if w >= 0:
                        match_t[w] = np.bincount(lanes, minlength=num_seeds)
        slot += count
        _flush_departures()
    if core is not None and hasattr(core, "finalize"):
        core.finalize()

    backlog = q.sum(axis=(1, 2), dtype=np.int64)
    departures = match_t.sum(axis=0)
    dep_slot_sum = (
        window_start + np.arange(measured, dtype=np.int64)
    ) @ match_t
    arr_slot_sum = np.zeros(num_seeds, dtype=np.int64)
    if departures.any():
        arr_slot_sum = _replay_arrival_slots(
            traffic.clone(), ports, horizon, dep_cnt_window, dep_cnt
        )

    return [
        SwitchStats(
            slots=measured,
            arrivals=int(arrivals[s]),
            departures=int(departures[s]),
            total_delay=int(dep_slot_sum[s] - arr_slot_sum[s]),
            backlog=int(backlog[s]),
            ports=ports,
            match_sizes=match_t[:, s].tolist(),
        )
        for s in range(num_seeds)
    ]


def _replay_arrival_slots(
    replay: BatchedChunkedTraffic,
    ports: int,
    horizon: int,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Per-lane sum of the arrival slots of the window's departed cells.

    ``replay`` is a fresh clone of the run's traffic; cells departing in
    the window from flat VOQ ``k`` are its arrival indices
    ``[lo[k], hi[k])``.  One pass over the chunks: each chunk's events
    are sorted by (VOQ, slot), so an event's FIFO index is its VOQ's
    count from earlier chunks plus its rank within the VOQ's run.  The
    sums accumulate in int64 (a float64 ``bincount`` would be exact
    only while a lane's total stays below 2^53).
    """
    cell = ports * ports
    num_seeds = lo.size // cell
    seen = np.zeros(lo.size, dtype=np.int64)
    total = np.zeros(num_seeds, dtype=np.int64)
    lane_edges = np.arange(num_seeds + 1, dtype=np.int64) * cell
    slot = 0
    while slot < horizon:
        count = min(CHUNK_SLOTS, horizon - slot)
        er, keys, _ = _chunk_events(replay.chunk(count), ports)
        if keys.size:
            # ordering by (key, slot) via a composite lets the default
            # sort stand in for a slower stable one; each key appears at
            # most once per slot, so ties cannot occur
            order = np.argsort(keys * count + er)
            ks = keys[order]
            starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
            counts = np.diff(np.r_[starts, ks.size])
            fifo = seen[ks] + (
                np.arange(ks.size) - np.repeat(starts, counts)
            )
            hit = (fifo >= lo[ks]) & (fifo < hi[ks])
            if hit.any():
                # hits stay in ascending key order, hence grouped by lane
                csum = np.r_[0, np.cumsum(slot + er[order[hit]])]
                total += np.diff(csum[np.searchsorted(ks[hit], lane_edges)])
            seen[ks[starts]] += counts
        slot += count
    return total
