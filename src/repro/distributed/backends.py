"""Pluggable execution backends for the round engine.

Layer 2 exposes two ways to execute a distributed algorithm, picked
by name through :data:`BACKENDS`:

* :class:`GeneratorBackend` (= :class:`~repro.distributed.network.Network`)
  — the reference semantics.  One Python generator per vertex, resumed
  in lockstep; messages are real objects validated and delivered
  through inboxes.  Every algorithm has a generator program, and the
  generator run *defines* correct output and accounting.
* the **array backend** (:class:`BatchedArrayBackend`) — executes
  **array programs**: the same algorithm expressed as per-round
  vectorized NumPy updates over struct-of-arrays node state
  (``int64``/``float64`` state columns and boolean active masks), with
  message *effects* computed by CSR-indexed scatter/gather instead of
  materialized message objects.

**The seed count is a lane count.**  A ported algorithm has exactly one
array program, written over ``(num_seeds, n)`` state and executed by
:class:`BatchedArrayBackend`:

    ``program(ctx: BatchedArrayContext, **params) -> per-seed outputs``

A single-seed ``backend="array"`` run is a one-lane batch
(``run_program_batched(..., seeds=[seed])[0]``), so there is no second
program to keep byte-identical by hand; the deterministic programs (the
Algorithm 2 flood, the Cole–Vishkin ring pipeline) take exactly one
lane, since every seed would run them identically.  The program owns
its round loop and reports everything observable through the context:

* ``ctx.lanes`` — per-(seed, node) RNG streams
  (:class:`~repro.distributed.batch_rng.LaneRngs`): lane ``s * n + v``
  replicates, bit for bit, the RNG the generator engine hands node
  ``v`` under ``seeds[s]`` — node ``node_ids[v]`` when the batch runs
  on a relabeled subgraph (see :class:`BatchedArrayBackend`).  For
  seed identity a program must make the *same draws on the same
  per-node streams* as its generator program; a resume's draws for
  every lane are one bulk call.
* ``ctx.begin_step(live)`` — top of one lockstep resume: ``live[s]`` is
  seed ``s``'s live-node count, and the generator engine's budget
  ``RuntimeError`` is raised when a seed with live nodes is out of
  rounds.  Seeds whose programs have returned pass 0 and are never
  checked — the masked-termination rule.
* ``ctx.account_groups(bits, counts, seed_of)`` — account one resume's
  grouped sends.  A group is "one payload to ``count`` recipients"
  (what ``Node.send_many``/``broadcast`` queue) sent by a node of seed
  ``seed_of``; totals, the bit-volume dot product, the per-message
  peak, and the CONGEST bound check all match :meth:`Network.run`
  exactly.  Empty groups are dropped, as the generator engine drops
  them.
* ``ctx.end_step(yielded)`` — seed ``s`` gains a round iff some node of
  it yielded in this resume (programs that return without yielding
  cost zero rounds), after the resume's messages are flushed — the
  same order as the generator loop.
* ``ctx.faults`` and ``ctx.add_fault_counts(dropped=, crashed=,
  links=)`` — under a fault plan, one bound
  :class:`~repro.distributed.faults.FaultState` per lane (``None``
  when fault-free), and the per-lane fault counters, each a
  ``(num_seeds,)`` vector.  A program that declares ``supports_faults
  = True`` applies the plan inside its own loop, for every lane at
  once (:func:`repro.baselines.israeli_itai.israeli_itai_array_batched`).

Message *routing* needs no per-message work at all: senders may only
address graph neighbors, so an array program reads "what did my
neighbors send" straight off the CSR arrays.  The port-numbering
invariant (see ``repro.graphs.graph``) makes this exact: vertex ``v``'s
half-edges occupy ``indptr[v]:indptr[v+1]`` in a stable per-vertex
order, so a value scattered to ``values[s, u]`` is gathered by every
neighbor ``v`` via ``values[s, indices[indptr[v]:indptr[v+1]]]``.  A
program's per-phase edge work should follow what is still live, not
the whole CSR (its per-vertex passes stay O(lanes·n)): the proposal
programs (Israeli–Itai and both LPS forms) keep their candidates as
one list of ``(owner, neighbor)`` key pairs (:func:`pair_keys`) that
every phase compacts, with a proposer's choice an offset into its
owner's run, and Luby keeps its live edges as one compacted endpoint
list that it gathers, compares and shrinks every phase.

Divergence note (documented, deliberate): error *messages* carry less
per-node context on the array side (no single offending node mid-scan).
Error-path *accounting* matches: both engines raise a CONGEST violation
before the offending resume's groups reach the counters (the generator
engine batches its per-round flush, so an exception mid-scan drops that
resume's batch too).  Everything on the success path — rounds,
messages, bits, peak, outputs — is byte-identical, pinned by
``tests/test_backend_identity.py`` and
``tests/test_distributed/test_batched_backend.py`` against the
seed-identity goldens.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.distributed.batch_rng import LaneRngs
from repro.distributed.faults import FaultPlan, FaultState, bind_many
from repro.distributed.metrics import RunResult
from repro.distributed.models import LOCAL, CongestViolation, Model
from repro.distributed.network import Network
from repro.graphs.graph import Graph

#: The reference backend: the generator-per-vertex engine.
GeneratorBackend = Network

#: An array program: drives its own round loop through a
#: :class:`BatchedArrayContext`; state carries a leading seed (lane)
#: axis and outputs are returned per seed (per-node lists, or one
#: ``(num_seeds, n)`` array).
LaneProgram = Callable[..., "Sequence[Sequence[Any]] | np.ndarray | None"]


@runtime_checkable
class ExecutionBackend(Protocol):
    """What layers 3/4 may assume about a single-seed engine.

    Structural: :class:`Network` conforms without inheriting.  The
    construction convention (not expressible in a Protocol) is
    ``Backend(graph, program, params=None, seed=0, model=LOCAL)``.
    :class:`BatchedArrayBackend` takes a ``seeds`` list instead and
    returns one :class:`RunResult` per seed; :func:`run_program_batched`
    routes between the two.
    """

    graph: Graph
    result: RunResult

    def run(self, max_rounds: int = 1_000_000) -> RunResult:
        """Execute to completion; raise on budget/model violations."""
        ...  # pragma: no cover - protocol

    def charge_rounds(self, extra: int) -> None:
        """Add analytically charged rounds to the result."""
        ...  # pragma: no cover - protocol


#: ``2**k`` for k = 0..63: a uint64 magnitude's bit length is the number
#: of these it reaches.
_POW2 = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def int_payload_bits(values: np.ndarray | Sequence[int]) -> np.ndarray:
    """Vectorized ``bit_size`` for integer payloads (sign + magnitude).

    Matches :func:`repro.distributed.message.bit_size` on every int64:
    ``1 + max(1, |v|.bit_length())``.  Exact (no floating log) so CONGEST
    checks and golden bit totals cannot drift: the magnitude is read as
    ``uint64`` (so ``|-2**63|`` is ``2**63``) and sized by one
    ``searchsorted`` against the 64 powers of two.
    """
    mag = np.abs(np.asarray(values, dtype=np.int64)).view(np.uint64)
    return 1 + np.maximum(np.searchsorted(_POW2, mag, side="right"), 1)


def segment_bounds(sorted_keys: np.ndarray) -> np.ndarray:
    """Run boundaries of a (stably) sorted key array.

    Returns ``bounds`` such that run ``k`` occupies
    ``sorted_keys[bounds[k]:bounds[k+1]]`` for
    ``k in range(bounds.size - 1)``; an empty input yields ``[0]`` (no
    runs).  The proposal-routing idiom shared by the Israeli–Itai and
    LPS array programs: sort proposals by target, then walk the
    per-target runs.
    """
    if sorted_keys.size == 0:
        return np.zeros(1, dtype=np.int64)
    heads = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    return np.append(heads, sorted_keys.size)


def sorted_csr(
    indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex neighbor order made ascending, as one flat permutation.

    Returns ``(sidx, s_nbr)``: ``sidx`` permutes half-edge slots so that
    each vertex's segment ``indptr[v]:indptr[v+1]`` lists neighbors in
    ascending id order (the generator programs' ``sorted(...)``
    candidate order) and ``s_nbr = indices[sidx]``.  The keys are
    unique, so every sort gives the same permutation; the stable sort
    is near-linear on the common CSR whose segments already ascend
    (graphs built from lexicographically ordered edge lists).
    """
    size = indptr.size - 1
    vhe = np.repeat(np.arange(size, dtype=np.int64), np.diff(indptr))
    sidx = np.argsort(vhe * size + indices, kind="stable")
    return sidx, indices.astype(np.int64)[sidx]


def pair_keys(
    indptr: np.ndarray,
    s_nbr: np.ndarray,
    num_lanes: int,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-CSR half-edges as flat ``(owner, neighbor)`` lane-key pairs.

    Row ``lane * 2m + t`` is half-edge ``t`` of the sorted CSR (``s_nbr``
    from :func:`sorted_csr`) in lane ``lane``; its keys are the flat lane
    ids ``lane * n + owner`` and ``lane * n + s_nbr[t]`` (``int32`` while
    ``lanes · n`` fits).  ``rows`` picks the rows to expand, in order;
    all rows list each owner's pairs as one run in ascending neighbor
    id, the generator programs' ``sorted(...)`` candidate order.
    """
    size = indptr.size - 1
    key = np.int32 if num_lanes * size <= np.iinfo(np.int32).max else np.int64
    owner = np.repeat(np.arange(size, dtype=key), np.diff(indptr))
    nbr = s_nbr.astype(key)
    if rows is None:
        base = np.arange(num_lanes, dtype=key)[:, None] * key(size)
        return (base + owner).reshape(-1), (base + nbr).reshape(-1)
    lane, t = np.divmod(rows, s_nbr.size)
    base = lane.astype(key) * key(size)
    return base + owner[t], base + nbr[t]


def lane_nonzero(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a ``(num_seeds, n)`` lane mask.

    Returns ``(rows, cols)`` — seed index and vertex of every set entry
    in row-major (per-seed vertex) order — from one flat
    ``flatnonzero``, which costs a fraction of NumPy's 2-D ``nonzero``;
    a one-lane mask needs no division at all.
    """
    flat = np.flatnonzero(mask)
    if mask.shape[0] == 1:
        return np.zeros_like(flat), flat
    return np.divmod(flat, mask.shape[1])


def replay_acceptor_choices(
    lanes: LaneRngs,
    keys: np.ndarray,
    srcs: np.ndarray,
    skip: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Replay every acceptor's ``choice(sorted(proposals))`` in bulk.

    The proposal-acceptance idiom shared by the Israeli–Itai and
    weight-class LPS array programs: group the proposals by target,
    drop targets whose nodes ignore proposals this round, and draw each
    remaining target's uniform pick — one bulk bounded lane draw, then
    one gather at each group's head plus its drawn offset.

    ``keys[i]`` is proposal ``i``'s target as a flat lane id
    (``seed_index * n + vertex``), ``srcs[i]`` its proposer vertex, and
    ``skip`` a bool array indexed by flat lane id marking targets that
    ignore proposals (proposers, and — where the protocol allows
    matched targets to be addressed — matched nodes).  Proposals must
    arrive with ascending ``srcs`` per target (callers enumerate
    proposers in index order), so the stable per-key sort reproduces
    the generator program's ``sorted(proposals)`` candidate order.
    Returns ``(acceptors, chosen)`` — the accepting flat lane ids
    (ascending) and each one's selected proposer.
    """
    order = np.argsort(keys, kind="stable")  # per-target, src ascending
    sorted_keys = keys[order]
    bounds = segment_bounds(sorted_keys)
    heads = bounds[:-1]
    accept = ~skip[sorted_keys[heads]]
    heads = heads[accept]
    acceptors = sorted_keys[heads]
    pick = lanes.integers(0, np.diff(bounds)[accept], acceptors)
    return acceptors, srcs[order[heads + pick]]


def _check_fault_support(program: Callable, plan: FaultPlan) -> None:
    """Reject fault plans an array program cannot honor.

    Array programs own their round loops, so the delivery seam lives
    inside them; only ports that implement it (marked with a
    ``supports_faults = True`` attribute) may run under an active
    plan.  Bounded message delay has no array-side seam at all — a
    delayed message crosses phase boundaries, which a vectorized
    phase-structured program cannot represent — so it is
    generator-engine-only.
    """
    if plan.delay > 0:
        raise ValueError(
            "message-delay faults are generator-backend-only; "
            "run this plan with backend='generator'"
        )
    if not getattr(program, "supports_faults", False):
        name = getattr(program, "__name__", repr(program))
        raise ValueError(
            f"array program {name} has no fault seam "
            "(supports_faults is not set); use backend='generator' "
            "for this fault plan"
        )


class BatchedArrayContext:
    """Execution context of a batched array program.

    State columns are ``(num_seeds, n)`` arrays, the three lockstep
    calls take per-seed vectors, and accounting rows carry a seed index
    (the contract is in the module docstring).  Per-seed counters
    accumulate in ``int64`` arrays and are materialized into one
    :class:`RunResult` per seed by :meth:`finalize` — each
    byte-identical to the generator run of that seed.

    The context holds no per-phase reductions: a program reads its
    neighbors off ``indptr``/``indices`` and keeps whatever it gathers
    in step with what is still live (see the module docstring).
    One-lane batches — every single-seed ``backend="array"`` run — go
    through the same calls; where a call's cost depends on the lane
    count, the one-lane fast path lives here and in the shared helpers
    of this module, never in a program.
    """

    __slots__ = (
        "graph",
        "n",
        "num_seeds",
        "indptr",
        "indices",
        "model",
        "max_rounds",
        "faults",
        "_limit",
        "_seeds",
        "_node_ids",
        "_lanes",
        "_rounds",
        "_messages",
        "_bits",
        "_peak",
        "_fault_counts",
    )

    def __init__(
        self,
        graph: Graph,
        seeds: Sequence[int],
        model: Model,
        limit: int | None,
        max_rounds: int,
        faults: "list[FaultState | None] | None" = None,
        node_ids: np.ndarray | None = None,
    ) -> None:
        self.graph = graph
        self.n = graph.n
        self.num_seeds = len(seeds)
        self.indptr, self.indices, _ = graph.adjacency_arrays()
        self.model = model
        self.max_rounds = max_rounds
        #: per-lane bound fault states (None on fault-free runs).
        self.faults = faults
        self._limit = limit
        self._seeds = list(seeds)
        self._node_ids = node_ids
        self._lanes: LaneRngs | None = None
        self._rounds = np.zeros(self.num_seeds, dtype=np.int64)
        self._messages = np.zeros(self.num_seeds, dtype=np.int64)
        self._bits = np.zeros(self.num_seeds, dtype=np.int64)
        self._peak = np.zeros(self.num_seeds, dtype=np.int64)
        # rows: dropped / crashed / links, one column per seed.
        self._fault_counts = np.zeros((3, self.num_seeds), dtype=np.int64)

    @property
    def lanes(self) -> LaneRngs:
        """Per-(seed, node) RNG lanes, spawned on first access.

        Lane ``s * n + v`` is byte-identical to the RNG the generator
        engine hands node ``v`` (node ``node_ids[v]`` when given) under
        ``seeds[s]``.
        """
        if self._lanes is None:
            self._lanes = LaneRngs(self._seeds, self.n, self._node_ids)
        return self._lanes

    @property
    def rounds(self) -> np.ndarray:
        """Per-seed rounds counted so far (read-only view)."""
        view = self._rounds.view()
        view.flags.writeable = False
        return view

    @property
    def totals(self) -> np.ndarray:
        """Per-seed ``(rounds, messages, bits, peak)`` so far, one row each.

        A ``(4, num_seeds)`` copy: what :meth:`finalize` reports, for a
        caller that adds runs up without their per-node outputs.
        """
        return np.stack((self._rounds, self._messages, self._bits, self._peak))

    # -- lockstep accounting ------------------------------------------

    def begin_step(self, live: np.ndarray) -> None:
        """Top of one resume: the per-seed budget check."""
        live = np.asarray(live, dtype=np.int64)
        over = (live > 0) & (self._rounds >= self.max_rounds)
        if over.any():
            s = int(np.flatnonzero(over)[0])
            raise RuntimeError(
                f"{int(live[s])} node(s) still running after "
                f"{self.max_rounds} rounds; lockstep protocol bug or "
                "budget too small"
            )

    def account_groups(
        self,
        bits: np.ndarray | Sequence[int],
        counts: np.ndarray | Sequence[int],
        seed_of: np.ndarray | Sequence[int],
    ) -> None:
        """Account one resume's grouped sends across all seeds.

        Row ``i`` is one group — payload of ``bits[i]`` bits to
        ``counts[i]`` recipients — queued by a node of seed
        ``seed_of[i]``.  Per-seed totals, ``bits·counts`` volumes,
        peaks, and the CONGEST check match :meth:`Network.run`.
        """
        bits = np.asarray(bits, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        seed_of = np.asarray(seed_of, dtype=np.int64)
        nonempty = counts > 0  # the generator engine skips empty groups
        if not nonempty.all():
            bits, counts, seed_of = (
                bits[nonempty], counts[nonempty], seed_of[nonempty]
            )
        if bits.size == 0:
            return
        peak = int(bits.max())
        if self._limit is not None and peak > self._limit:
            s = int(seed_of[int(np.argmax(bits))])
            raise CongestViolation(
                f"{peak}-bit message exceeds {self.model.name} bound of "
                f"{self._limit} bits (round {int(self._rounds[s])}, "
                f"seed index {s})"
            )
        if self.num_seeds == 1:  # one lane: plain sums, no scatter
            self._messages[0] += counts.sum()
            self._bits[0] += bits @ counts
            self._peak[0] = max(int(self._peak[0]), peak)
            return
        np.add.at(self._messages, seed_of, counts)
        np.add.at(self._bits, seed_of, bits * counts)
        np.maximum.at(self._peak, seed_of, bits)

    def end_step(self, yielded: np.ndarray) -> None:
        """End of one resume: seeds where some node yielded gain a round."""
        self._rounds += np.asarray(yielded, dtype=bool)

    def add_fault_counts(
        self,
        dropped: np.ndarray | int = 0,
        crashed: np.ndarray | int = 0,
        links: np.ndarray | int = 0,
    ) -> None:
        """Accumulate per-lane fault counters (generator-seam mirror).

        Each argument is a ``(num_seeds,)`` vector of one step's counts.
        There is no ``delayed`` counter: message delay is
        generator-engine-only, so array lanes report 0 delayed.
        """
        self._fault_counts[0] += dropped
        self._fault_counts[1] += crashed
        self._fault_counts[2] += links

    def idle_steps(self, live: np.ndarray, count: int) -> None:
        """Fast-forward ``count`` fully lockstep idle resumes.

        Equivalent to ``count`` iterations of ``begin_step(live)`` +
        ``end_step`` with every seed yielding and no groups accounted —
        for protocol stretches a program can prove are no-ops (e.g. the
        exhausted tail of a weight class in the lockstep LPS schedule):
        every seed gains ``count`` rounds, with the same per-seed budget
        semantics as the iterative loop, no messages and no draws.
        """
        if count <= 0:
            return
        live = np.asarray(live, dtype=np.int64)
        over = (live > 0) & (self._rounds + count > self.max_rounds)
        if over.any():
            # replicate where the iterative loop would raise: after the
            # resumes the tightest lane's budget still admits
            deficit = np.maximum(self.max_rounds - self._rounds, 0)
            k = int(deficit[over].min())
            s = int(np.flatnonzero(over & (deficit == k))[0])
            self._rounds += k
            raise RuntimeError(
                f"{int(live[s])} node(s) still running after "
                f"{self.max_rounds} rounds; lockstep protocol bug or "
                "budget too small"
            )
        self._rounds += count

    def finalize(
        self, outputs: Sequence[Sequence[Any]] | np.ndarray | None
    ) -> list[RunResult]:
        """Materialize one :class:`RunResult` per seed."""
        if isinstance(outputs, np.ndarray):
            outputs = outputs.tolist()
        return [
            RunResult(
                rounds=int(self._rounds[s]),
                total_messages=int(self._messages[s]),
                total_bits=int(self._bits[s]),
                max_message_bits=int(self._peak[s]),
                outputs=(
                    dict.fromkeys(range(self.n)) if outputs is None
                    else dict(enumerate(outputs[s]))
                ),
                messages_dropped=int(self._fault_counts[0, s]),
                nodes_crashed=int(self._fault_counts[1, s]),
                links_failed=int(self._fault_counts[2, s]),
            )
            for s in range(self.num_seeds)
        ]


class BatchedArrayBackend:
    """Executes a batched array program: one run, many seeds.

    Construct with the batch's ``seeds`` list instead of a single
    ``seed``; ``run`` executes every seed's computation simultaneously
    over ``(num_seeds, n)`` SoA state and returns **one**
    :class:`RunResult` **per seed**, each byte-identical to the
    generator run of the same algorithm under that seed.  A one-lane
    batch is how every single-seed ``backend="array"`` run executes.

    Parameters
    ----------
    graph:
        The shared topology.  Batching is across *seeds*, so all lanes
        of the batch execute on this one graph.
    program:
        A :data:`LaneProgram` (e.g.
        :func:`repro.baselines.luby_mis.luby_mis_array_batched`).
    params:
        Extra keyword arguments passed to the program.
    seeds:
        One master seed per batch lane row; RNG streams per (seed,
        node) are spawned exactly as ``Network`` spawns them.
    model:
        ``LOCAL`` or a CONGEST variant; the bit bound applies to every
        seed's messages.
    faults:
        Optional :class:`~repro.distributed.faults.FaultPlan`, bound
        per lane seed.  Only programs that declare ``supports_faults =
        True`` may run under an active plan (the program owns its round
        loop, so the fault seam is inside it — see
        :func:`repro.baselines.israeli_itai.israeli_itai_array_batched`,
        which runs every lane's plan in its one loop); bounded message
        *delay* is generator-engine-only and rejected here.
    node_ids:
        The node id each vertex of ``graph`` stands for, when ``graph``
        is a relabeled subgraph of the network the generator run sees
        (``int64[graph.n]``; default: the identity).  Lane ``s *
        graph.n + v`` then replays node ``node_ids[v]``'s RNG stream,
        so a program may run on just the vertices that act — e.g.
        Algorithm 5's box on the lanes' positive-edge support — and
        still draw what the full-graph nodes would.  Nodes left out
        must never draw in the generator program.
    """

    def __init__(
        self,
        graph: Graph,
        program: LaneProgram,
        params: dict[str, Any] | None = None,
        seeds: Sequence[int] = (0,),
        model: Model = LOCAL,
        faults: FaultPlan | None = None,
        node_ids: np.ndarray | None = None,
    ) -> None:
        self.graph = graph
        self.model = model
        self.seeds = list(seeds)
        self._limit = model.limit(graph.n, graph.max_degree())
        self._program = program
        self._params = params or {}
        self.results: list[RunResult] | None = None
        #: the program's own return value, as it returned it (e.g. a
        #: ``(num_seeds, n)`` array a caller can use without the
        #: per-node dicts of :attr:`results`).
        self.outputs: Any = None
        fstates = (
            bind_many(faults, graph, self.seeds) if faults is not None else None
        )
        if fstates is not None:
            _check_fault_support(program, faults)
        self._ctx = BatchedArrayContext(
            graph, self.seeds, model, self._limit, 0, faults=fstates,
            node_ids=node_ids,
        )

    def run(self, max_rounds: int = 1_000_000) -> list[RunResult]:
        """Execute the batched program to completion (idempotent)."""
        if self.results is None:
            self._ctx.max_rounds = max_rounds
            self.outputs = self._program(self._ctx, **self._params)
            self.results = self._ctx.finalize(self.outputs)
        return self.results


def run_program_batched(
    graph: Graph,
    *,
    backend: str,
    generator_program: Callable[..., Any],
    batched_array_program: LaneProgram,
    params: dict[str, Any] | None = None,
    seeds: Sequence[int],
    model: Model = LOCAL,
    max_rounds: int = 1_000_000,
    faults: FaultPlan | None = None,
) -> list[RunResult]:
    """Run one algorithm over a batch of seeds on the chosen backend.

    The routing helper of every ported algorithm: ``"array"`` executes
    the whole batch as one :class:`BatchedArrayBackend` run (a single
    seed is a one-lane batch); ``"generator"`` runs one
    :class:`Network` per seed (the reference semantics batching must
    reproduce).  Either way the return value is one :class:`RunResult`
    per seed, in ``seeds`` order.  An active ``faults`` plan is bound
    per lane seed, so every lane reproduces its generator faulted run
    byte for byte.
    """
    cls = resolve_backend(backend)
    if cls is GeneratorBackend:
        return [
            Network(graph, generator_program, params=params, seed=int(s),
                    model=model, faults=faults).run(max_rounds=max_rounds)
            for s in seeds
        ]
    net = BatchedArrayBackend(
        graph, batched_array_program, params=params, seeds=seeds, model=model,
        faults=faults,
    )
    return net.run(max_rounds=max_rounds)


#: Backend registry — the names every algorithm's ``backend=`` accepts.
BACKENDS: dict[str, type] = {
    "generator": GeneratorBackend,
    "array": BatchedArrayBackend,
}


def resolve_backend(name: str) -> type:
    """Backend class for ``name``; raises ``ValueError`` on unknowns."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; pick from {sorted(BACKENDS)}"
        ) from None
