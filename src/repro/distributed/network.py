"""The synchronous round executor.

``Network`` instantiates one generator per vertex and advances all of
them in lockstep.  Per round:

1. every live node's generator is resumed (it reads ``node.inbox``,
   computes, queues sends, then yields or returns);
2. all queued messages are validated (neighbor-only, size within the
   model bound), counted, and delivered into the recipients' inboxes
   for the next round.

The loop ends when every node's generator has returned.  Determinism:
node RNGs are spawned from a single ``SeedSequence``, and delivery
order into an inbox follows sender id, so results depend only on the
seed — never on Python iteration order.

Engine design (the CSR refactor of ISSUE 2):

* an **active list** tracks which generators are still live, so a round
  costs O(live + messages), not O(n) — protocols whose nodes terminate
  locally (Luby, Israeli–Itai, …) stop paying for finished nodes;
* neighbor validation uses the graph's cached per-vertex frozen
  neighbor sets (one O(m) build per *graph*, shared across networks,
  instead of one per run);
* grouped sends (:meth:`Node.broadcast` / :meth:`Node.send_many`) are
  validated with one ``issuperset`` check and sized once per group;
* messages are pre-bucketed into per-recipient lists during the sender
  scan, and bit accounting is flushed once per round from NumPy
  batches rather than updating counters per message.

``Network`` is the **reference implementation** of the
:class:`~repro.distributed.backends.ExecutionBackend` protocol
(exported as ``GeneratorBackend``): its per-resume semantics — budget
check at the top of every resume, grouped sends sized once and counted
per recipient, a round counted iff some node yielded — define what the
array backend must reproduce byte for byte: the seed-axis
``BatchedArrayBackend`` (a single seed runs as a one-lane batch), whose
RNG lanes (``repro.distributed.batch_rng``) replicate this engine's
``SeedSequence(seed).spawn(n)`` node streams bit for bit.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

import numpy as np

from repro.distributed.faults import NEVER, FaultPlan
from repro.distributed.message import Sized, bit_size
from repro.distributed.metrics import RunResult
from repro.distributed.models import LOCAL, CongestViolation, Model
from repro.distributed.node import Node
from repro.graphs.graph import Graph

NodeProgram = Callable[..., Generator[None, None, Any]]


class Network:
    """A synchronous network executing one node program on every vertex.

    Parameters
    ----------
    graph:
        The communication topology (also consulted for edge weights).
    program:
        Generator function invoked as ``program(node, **params)``.
    params:
        Extra keyword arguments passed to every node program (global
        knowledge such as n, k, ε — the paper's algorithms assume nodes
        know n and the accuracy parameter).
    seed:
        Master seed for all node RNGs; node ``v`` receives
        ``default_rng(SeedSequence(seed).spawn(n)[v])``.  This spawn
        recipe is a compatibility contract: every array/batched port
        replays exactly these per-node streams.
    model:
        ``LOCAL`` (default) or ``CONGEST``; CONGEST enforces the
        per-message bit bound.
    faults:
        Optional :class:`~repro.distributed.faults.FaultPlan`.  When
        active, scheduled crash/link events are applied at the *start*
        of their round (pruning the survivors' ``node.neighbors`` views
        — perfect failure detection), and per-delivery loss/delay is
        applied at the delivery seam after sends are validated and
        accounted: attempted sends always count toward
        ``total_messages``/``total_bits``, with drops and delays
        tallied in the :class:`RunResult` fault counters.
    """

    def __init__(
        self,
        graph: Graph,
        program: NodeProgram,
        params: dict[str, Any] | None = None,
        seed: int = 0,
        model: Model = LOCAL,
        faults: FaultPlan | None = None,
    ) -> None:
        self.graph = graph
        self.model = model
        self._limit = model.limit(graph.n, graph.max_degree())
        seq = np.random.SeedSequence(seed)
        children = seq.spawn(graph.n)
        self._round_cell = [0]
        self.nodes = [
            Node(v, graph, np.random.default_rng(children[v]), self._round_cell)
            for v in range(graph.n)
        ]
        params = params or {}
        self._gens: list[Generator[None, None, Any] | None] = [
            program(self.nodes[v], **params) for v in range(graph.n)
        ]
        self.result = RunResult()
        #: generator resumes performed so far — with active-list
        #: bookkeeping this is Σ_v (rounds node v stayed live), not
        #: rounds × n (regression-tested on staggered-finish graphs).
        self.total_resumes = 0
        # Recipients of the most recent delivery; their inboxes must be
        # cleared before the next one (persists across run() re-entries
        # so single-round stepping, e.g. run_traced, stays equivalent).
        self._inboxed: list[int] = []
        # Fault runtime state (None-guarded so the fault-free hot path
        # stays branch-free beyond one check per round).
        self._fstate = faults.bind(graph, seed) if faults is not None else None
        if self._fstate is not None:
            fs = self._fstate
            # Mutable neighbor views (the survivors' knowledge); pruned
            # as crashes/link failures trigger.
            self._views: list[set[int]] = [
                set(ns) for ns in graph.neighbor_sets()
            ]
            self._crashed: set[int] = set()
            # Delayed deliveries keyed by arrival round.
            self._future: dict[int, dict[int, list[tuple[int, Any]]]] = {}
            cv = np.flatnonzero(fs.crash_round < NEVER)
            self._crash_events = sorted(
                zip(fs.crash_round[cv].tolist(), cv.tolist())
            )
            lo, hi = graph.endpoints_array()
            le = np.flatnonzero(fs.link_fail_round < NEVER)
            self._link_events = sorted(
                zip(fs.link_fail_round[le].tolist(), le.tolist(),
                    lo[le].tolist(), hi[le].tolist())
            )
            self._crash_ptr = 0
            self._link_ptr = 0

    def _apply_fault_events(self, res: RunResult) -> bool:
        """Trigger scheduled crash/link events due at the current round.

        Called at the top of every round, *before* the budget check and
        the resumes: a node crashing at round r never executes round r,
        and survivors see pruned ``node.neighbors`` immediately (the
        perfect-failure-detector contract the fault-adaptive programs
        rely on).  A crash scheduled for a node whose program already
        returned is a silent no-op (not counted) — its output stands.
        Returns whether any node crashed (the active list must then be
        refiltered).
        """
        nodes, gens, views = self.nodes, self._gens, self._views
        r = res.rounds
        le = self._link_events
        while self._link_ptr < len(le) and le[self._link_ptr][0] <= r:
            _, _, u, v = le[self._link_ptr]
            self._link_ptr += 1
            res.links_failed += 1
            if v in views[u]:
                views[u].discard(v)
                views[v].discard(u)
                nodes[u].neighbors = tuple(
                    x for x in nodes[u].neighbors if x != v
                )
                nodes[v].neighbors = tuple(
                    x for x in nodes[v].neighbors if x != u
                )
        ce = self._crash_events
        crashed_now = False
        while self._crash_ptr < len(ce) and ce[self._crash_ptr][0] <= r:
            _, v = ce[self._crash_ptr]
            self._crash_ptr += 1
            if gens[v] is None:
                continue
            gens[v] = None
            res.nodes_crashed += 1
            self._crashed.add(v)
            for u in views[v]:
                views[u].discard(v)
                nodes[u].neighbors = tuple(
                    x for x in nodes[u].neighbors if x != v
                )
            views[v] = set()
            crashed_now = True
        return crashed_now

    def _deliver_faulty(
        self,
        pending: dict[int, list[tuple[int, Any]]],
        res: RunResult,
    ) -> dict[int, list[tuple[int, Any]]]:
        """Apply loss/delay/dead-endpoint filtering at the delivery seam.

        Runs after the sender scan validated and accounted every send
        (transmission cost is paid regardless of delivery).  A message
        is dropped when its recipient has crashed, when the link died
        before the send, or on a loss-hash hit; surviving messages may
        be deferred ``delay_of`` rounds.  Delayed messages are
        re-checked against crashes/link failures at *arrival* (the link
        can die while the message is in flight); stale arrivals are
        delivered ahead of same-round traffic, in send order.
        """
        fs = self._fstate
        r = res.rounds
        crashed = self._crashed
        views = self._views
        has_loss = fs.plan.loss > 0
        has_delay = fs.plan.delay > 0
        # Fast path: no crash/link event has fired yet (views are still
        # the full neighbor sets, so the sender validation already
        # guarantees src is visible) and no delay machinery is in play.
        # The seam is then pure loss filtering: one vectorized hash over
        # the round's deliveries, and the pending dict passes through
        # untouched unless something actually drops.
        if (
            self._crash_ptr == 0
            and self._link_ptr == 0
            and not has_delay
            and not self._future
        ):
            if not has_loss:
                return pending
            srcs_l: list[int] = []
            dsts_l: list[int] = []
            for dst, msgs in pending.items():
                srcs_l.extend([m[0] for m in msgs])
                dsts_l.extend([dst] * len(msgs))
            if not srcs_l:
                return pending
            lost_m = fs.drop_mask(
                np.array(srcs_l, dtype=np.int64),
                np.array(dsts_l, dtype=np.int64),
                r,
            )
            if not lost_m.any():
                return pending
            res.messages_dropped += int(lost_m.sum())
            kept: dict[int, list[tuple[int, Any]]] = {}
            i = 0
            for dst, msgs in pending.items():
                keep = [m for j, m in enumerate(msgs) if not lost_m[i + j]]
                i += len(msgs)
                if keep:
                    kept[dst] = keep
            return kept
        # General path: crash/view filtering first, flattening the
        # survivors so the loss/delay hashes still run as one vectorized
        # batch per round (a scalar hash per message dominated the seam
        # cost otherwise).
        flat: list[tuple[int, tuple[int, Any]]] = []
        for dst, msgs in pending.items():
            if dst in crashed:
                res.messages_dropped += len(msgs)
                continue
            view = views[dst]
            for msg in msgs:
                if msg[0] in view:
                    flat.append((dst, msg))
                else:
                    res.messages_dropped += 1
        out: dict[int, list[tuple[int, Any]]] = {}
        if flat:
            if has_loss or has_delay:
                dsts = np.fromiter(
                    (d for d, _ in flat), dtype=np.int64, count=len(flat)
                )
                srcs = np.fromiter(
                    (m[0] for _, m in flat), dtype=np.int64, count=len(flat)
                )
            lost = fs.drop_mask(srcs, dsts, r) if has_loss else None
            late = fs.delay_mask(srcs, dsts, r) if has_delay else None
            for i, (dst, msg) in enumerate(flat):
                if lost is not None and lost[i]:
                    res.messages_dropped += 1
                    continue
                if late is not None and late[i]:
                    res.messages_delayed += 1
                    self._future.setdefault(
                        r + 1 + int(late[i]), {}
                    ).setdefault(dst, []).append(msg)
                    continue
                out.setdefault(dst, []).append(msg)
        due = self._future.pop(r + 1, None)
        if due:
            for dst, msgs in due.items():
                if dst in crashed:
                    res.messages_dropped += len(msgs)
                    continue
                view = views[dst]
                late: list[tuple[int, Any]] = []
                for msg in msgs:
                    if msg[0] in view:
                        late.append(msg)
                    else:
                        res.messages_dropped += 1
                if late:
                    out[dst] = late + out.get(dst, [])
        return out

    def run(self, max_rounds: int = 1_000_000) -> RunResult:
        """Advance rounds until all programs return (or raise on budget).

        Raises
        ------
        RuntimeError
            If ``max_rounds`` elapse with live nodes — in a correct
            lockstep protocol this signals a deadlock/phase mismatch.
        CongestViolation
            In CONGEST mode, when a message exceeds the bit budget.
        ValueError
            When a node addresses a message to a non-neighbor.
        """
        res = self.result
        nodes = self.nodes
        gens = self._gens
        limit = self._limit
        nbr_sets = self.graph.neighbor_sets()
        # Vertices with live generators, ascending (the sender scan
        # below relies on this order: delivery into an inbox follows
        # sender id because senders are visited in id order).
        active = [v for v in range(self.graph.n) if gens[v] is not None]
        fstate = self._fstate
        while active:
            if fstate is not None and self._apply_fault_events(res):
                active = [v for v in active if gens[v] is not None]
                if not active:
                    break
            if res.rounds >= max_rounds:
                raise RuntimeError(
                    f"{len(active)} node(s) still running after {max_rounds} "
                    "rounds; lockstep protocol bug or budget too small"
                )
            # 1. Resume every live generator for this round.
            survivors: list[int] = []
            self._round_cell[0] = res.rounds
            for v in active:
                try:
                    next(gens[v])
                    survivors.append(v)
                except StopIteration as stop:
                    if stop.value is not None:
                        nodes[v].output = stop.value
                    gens[v] = None
            self.total_resumes += len(active)
            # 2. Validate, account, bucket, and deliver queued messages.
            # Only nodes resumed this round (including ones that just
            # returned) can have queued anything.
            pending: dict[int, list[tuple[int, Any]]] = {}
            bits_batch: list[int] = []
            count_batch: list[int] = []
            for v in active:
                outbox = nodes[v]._outbox
                if not outbox:
                    continue
                nbrs = nbr_sets[v]
                for dst, payload in outbox:
                    grouped = type(dst) is tuple
                    if grouped:  # one validation + size check per group
                        if not dst:
                            continue
                        if not nbrs.issuperset(dst):
                            bad = next(d for d in dst if d not in nbrs)
                            raise ValueError(
                                f"node {v} sent to non-neighbor {bad} "
                                f"(round {res.rounds})"
                            )
                    elif dst not in nbrs:
                        raise ValueError(
                            f"node {v} sent to non-neighbor {dst} "
                            f"(round {res.rounds})"
                        )
                    # Inline fast paths for the dominant scalar payloads
                    # (must agree with message.bit_size exactly).
                    tp = type(payload)
                    if tp is int:
                        if payload >= 0:
                            bits = 1 + (payload.bit_length() or 1)
                        else:
                            bits = 1 + max(1, (-payload).bit_length())
                    elif tp is str:
                        bits = 8 * (len(payload) or 1)
                    elif tp is Sized:
                        bits = payload.bits
                        payload = payload.payload
                    else:
                        bits = bit_size(payload)
                        if isinstance(payload, Sized):
                            payload = payload.payload
                    if limit is not None and bits > limit:
                        raise CongestViolation(
                            f"node {v} -> {dst}: {bits}-bit message exceeds "
                            f"{self.model.name} bound of {limit} bits "
                            f"(round {res.rounds}, payload {payload!r})"
                        )
                    bits_batch.append(bits)
                    if grouped:
                        count_batch.append(len(dst))
                        msg = (v, payload)
                        for d in dst:
                            bucket = pending.get(d)
                            if bucket is None:
                                bucket = pending[d] = []
                            bucket.append(msg)
                    else:
                        count_batch.append(1)
                        bucket = pending.get(dst)
                        if bucket is None:
                            bucket = pending[dst] = []
                        bucket.append((v, payload))
                outbox.clear()
            if bits_batch:
                bits_arr = np.asarray(bits_batch, dtype=np.int64)
                count_arr = np.asarray(count_batch, dtype=np.int64)
                res.total_messages += int(count_arr.sum())
                res.total_bits += int(bits_arr @ count_arr)
                peak = int(bits_arr.max())
                if peak > res.max_message_bits:
                    res.max_message_bits = peak
            if fstate is not None:
                pending = self._deliver_faulty(pending, res)
            # 3. Swap inboxes: fresh messages in, stale inboxes cleared.
            for v in self._inboxed:
                if v not in pending:
                    nodes[v].inbox = []
            for dst, msgs in pending.items():
                nodes[dst].inbox = msgs
            self._inboxed = list(pending)
            # A round is counted only when some node actually crossed a
            # round boundary (yielded); programs that return without
            # ever yielding use zero communication rounds.
            if survivors:
                res.rounds += 1
            active = survivors
        for node in nodes:
            res.outputs[node.id] = node.output
        return res

    def charge_rounds(self, extra: int) -> None:
        """Add analytically charged rounds (see RunResult.charged_rounds)."""
        self.result.charged_rounds += extra
