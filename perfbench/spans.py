"""In-memory span recorder bound to the layer seams of ``repro``.

The recorder wraps public functions and methods of each layer from the
benchmark's side; nothing inside ``src/`` knows about it.  When tracing
is off nothing is wrapped, so the untraced run measures the program as
users run it.

Each wrapped call is a span ``(name, op)``: ``name`` is the layer
metric it feeds (``graphs.build``, ``engine.draw``, ...), ``op`` the
benchmark operation open when it started.  Spans nest through one stack,
so a span's self time is its duration minus its child spans.  The cost
of the wrapper itself is calibrated once and subtracted, so self times
are not inflated by the spans nested inside them.  Seams called
millions of times are counted on every call and timed on a sample.
Fine-grained spans are only aggregated; coarse ones (operations,
algorithm calls, engine loops, sweeps) are also kept one by one and
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable

clock = time.perf_counter

#: Layer seams: span name -> ``(module, attribute path)`` targets.
#: A target that a later change removes or renames is skipped, so its
#: metric reads zero calls instead of failing the run.
SEAMS: dict[str, list[tuple[str, str]]] = {
    "graphs.build": [
        ("repro.graphs.graph", "Graph.__init__"),
        ("repro.graphs.graph", "Graph.from_edge_chunks"),
        ("repro.graphs.generators", "gnp_random"),
        ("repro.graphs.weights", "assign_uniform_weights"),
    ],
    "graphs.sorted_neighbors": [
        ("repro.graphs.graph", "Graph.sorted_neighbors"),
    ],
    "graphs.subgraph": [
        ("repro.graphs.graph", "Graph.subgraph"),
        ("repro.graphs.graph", "Graph.with_weights"),
    ],
    "engine.init": [
        ("repro.distributed.backends", "ArrayBackend.__init__"),
        ("repro.distributed.backends", "BatchedArrayBackend.__init__"),
        ("repro.distributed.batch_rng", "LaneRngs.__init__"),
    ],
    "engine.draw": [
        ("repro.distributed.batch_rng", "LaneRngs.integers"),
    ],
    "engine.kernel": [
        (mod, f"{cls}.{meth}")
        for mod in ("repro.distributed.backends",)
        for cls in ("ArrayContext", "BatchedArrayContext")
        for meth in ("masked_degrees", "neighbor_any", "neighbor_max")
    ],
    "engine.step": [
        (mod, f"{cls}.{meth}")
        for mod in ("repro.distributed.backends",)
        for cls in ("ArrayContext", "BatchedArrayContext")
        for meth in ("begin_step", "account_groups", "end_step", "idle_steps")
    ],
    "glue": [
        ("repro.baselines.israeli_itai", "israeli_itai_matching"),
        ("repro.baselines.israeli_itai", "israeli_itai_matching_batched"),
        ("repro.baselines.luby_mis", "luby_mis"),
        ("repro.baselines.luby_mis", "luby_mis_batched"),
        ("repro.core.weighted_mwm", "weighted_mwm"),
        ("repro.core.weighted_mwm", "weighted_mwm_batched"),
        ("repro.core.generic_mcm", "generic_mcm"),
    ],
    "core.flood": [
        ("repro.core.generic_mcm", "flood_views_array"),
    ],
    "core.conflict": [
        ("repro.core.conflict_graph", "build_conflict_graph"),
    ],
    "matching.assemble": [
        ("repro.baselines.israeli_itai", "matching_from_mates"),
        ("repro.matching.matching", "Matching.from_mate_array"),
    ],
    "matching.weight": [
        ("repro.matching.matching", "Matching.weight"),
    ],
    "matching.certify": [
        ("repro.matching.matching", "Matching.is_maximal"),
        ("repro.baselines.luby_mis", "verify_mis"),
        ("repro.matching.certify", "certified_ratio_lower_bound"),
        ("repro.matching.greedy", "greedy_mwm"),
    ],
    "lca.rank": [
        ("repro.lca.lca", "LcaMatching._key"),
    ],
    "lca.explore": [
        ("repro.lca.lca", "LcaMatching.query_mate"),
    ],
    "lca.service": [
        ("repro.lca.service", "MatchingService.mate_of"),
    ],
    "switch.schedule.pim": [
        ("repro.switch.schedulers", "PimScheduler.schedule_matrix"),
        ("repro.switch.schedulers", "PimScheduler.schedule"),
        ("repro.switch.batched", "BatchedPimCore.schedule"),
    ],
    "switch.schedule.islip": [
        ("repro.switch.schedulers", "IslipAdapter.schedule_matrix"),
        ("repro.switch.schedulers", "IslipAdapter.schedule"),
        ("repro.switch.batched", "BatchedIslipCore.schedule"),
    ],
    "switch.schedule.maximal": [
        ("repro.switch.schedulers", "GreedyMaximalScheduler.schedule_matrix"),
        ("repro.switch.schedulers", "GreedyMaximalScheduler.schedule"),
        ("repro.switch.batched", "BatchedGreedyCore.schedule"),
    ],
    "switch.schedule.paper": [
        ("repro.switch.schedulers", "PaperScheduler.schedule"),
    ],
    "switch.traffic": [
        ("repro.switch.traffic", "ChunkedTraffic.chunk"),
        ("repro.switch.traffic", "BatchedChunkedTraffic.chunk"),
    ],
    "switch.engine": [
        ("repro.switch.engine", "run_switch_vectorized"),
        ("repro.switch.engine", "run_switch_batched"),
        ("repro.switch.simulator", "run_switch"),
    ],
    "runner.sweep": [
        ("repro.analysis.runner", "ParallelRunner.sweep"),
    ],
}

#: Values a span adds to its ``amount`` besides its call count.
AMOUNTS: dict[str, Callable[[tuple, dict], int]] = {
    # LaneRngs.integers(self, low, high, lanes): one value per lane.
    "engine.draw": lambda a, kw: len(kw["lanes"] if "lanes" in kw else a[3]),
}

#: Seams called millions of times per pass, where a span per call would
#: cost more than the call: every call is counted, one in ``SAMPLE[name]``
#: is timed and stands for its neighbours.  They must not nest.
SAMPLE = {"lca.rank": 16}

#: Spans also recorded one by one (the rest are only aggregated).
COARSE = ("op", "setup", "glue", "core.", "runner.", "switch.engine")


class Stat:
    """Aggregate of one ``(name, op)``: calls, amount, inclusive and self time."""

    __slots__ = ("calls", "amount", "incl", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.amount = 0
        self.incl = 0.0
        self.self = 0.0


class Tracer:
    """Span stack plus per-``(name, op)`` aggregates, all in memory.

    A stack frame is ``[child_work, full_descendants, span_index,
    counted_descendants]``: the corrected work of its direct children and
    how many full and count-only wrapper calls ran inside it, whose cost
    is subtracted from its duration.
    """

    def __init__(self) -> None:
        self.op = ""
        self.stats: dict[tuple[str, str], Stat] = {}
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.passes: list[list[dict]] = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        # Wrapper cost: inside a span's own clock readings, per full span
        # and per count-only call.
        self._inner = 0.0
        self._cost = 0.0
        self._light = 0.0

    # -- recording -----------------------------------------------------

    def _stat(self, name: str, op: str) -> Stat:
        st = self.stats.get((name, op))
        if st is None:
            st = self.stats[(name, op)] = Stat()
        return st

    def _open_frame(self, name: str, coarse: bool) -> list:
        self._open[name] = self._open.get(name, 0) + 1
        idx = -1
        if coarse:
            idx = len(self.spans)
            parent = self._stack[-1][2] if self._stack else -1
            self.spans.append((name, self.op, clock(), 0.0, parent))
        frame = [0.0, 0, idx, 0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, op: str, frame: list, t0: float, t1: float,
               amount: int, weight: int = 1) -> None:
        work = max(t1 - t0 - self._inner - self._cost * frame[1]
                   - self._light * frame[3], 0.0) * weight
        st = self._stat(name, op)
        st.self += max(work - frame[0] * weight, 0.0)
        depth = self._open[name] = self._open[name] - 1
        if depth == 0:  # same-name nesting counts once
            st.calls += 1
            st.amount += amount
            st.incl += work
        if self._stack:
            parent = self._stack[-1]
            parent[0] += work
            parent[1] += 1 + frame[1]
            parent[3] += frame[3]
        if frame[2] >= 0:
            n, o, a, _, p = self.spans[frame[2]]
            self.spans[frame[2]] = (n, o, a, t1, p)

    def wrap(self, name: str, fn: Callable, every: int | None = None) -> Callable:
        """``fn`` recorded as span ``name``; one call in ``every`` is timed."""
        amount_of = AMOUNTS.get(name)
        coarse = name.startswith(COARSE)
        every = SAMPLE.get(name, 1) if every is None else every
        stack = self._stack
        tick = [0]

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            op = self.op
            if every > 1:
                tick[0] += 1
                if tick[0] % every:
                    self._stat(name, op).calls += 1
                    if stack:
                        stack[-1][3] += 1
                    return fn(*args, **kwargs)
            frame = self._open_frame(name, coarse)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                amount = amount_of(args, kwargs) if amount_of else 0
                self._close(name, op, frame, t0, t1, amount, every)

        return wrapper

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """A benchmark-side span; ``op`` also becomes the current operation."""
        prev = self.op
        if op is not None:
            self.op = op
        frame = self._open_frame(name, name.startswith(COARSE))
        t0 = clock()
        try:
            yield
        finally:
            t1 = clock()
            self._stack.pop()
            self._close(name, self.op, frame, t0, t1, 0)
            self.op = prev

    def reset(self) -> None:
        """Close one pass: archive its aggregates and start afresh."""
        self.passes.append([
            {"name": n, "op": o, "calls": st.calls, "amount": st.amount,
             "incl_s": st.incl, "self_s": st.self}
            for (n, o), st in sorted(self.stats.items())
        ])
        self.stats = {}

    # -- queries -------------------------------------------------------

    def get(self, name: str, op: str | None = None) -> Stat:
        """Aggregate of ``name`` over every op (or one ``op``)."""
        out = Stat()
        for (n, o), st in self.stats.items():
            if n == name and (op is None or o == op):
                out.calls += st.calls
                out.amount += st.amount
                out.incl += st.incl
                out.self += st.self
        return out

    # -- installation --------------------------------------------------

    def calibrate(self, samples: int = 20000) -> None:
        """Measure the wrapper's own cost, inside and outside a span.

        Best of five rounds on a no-op, so the correction is a lower
        bound: what remains of the overhead shows in
        ``trace.overhead_frac``.
        """

        def noop() -> None:
            return None

        def per_call(f: Callable) -> float:
            t0 = clock()
            for _ in range(samples):
                f()
            return (clock() - t0) / samples

        full = self.wrap("calibrate", noop)
        light = self.wrap("calibrate.light", noop, every=10**9)
        best = {"plain": 1.0, "full": 1.0, "light": 1.0, "inner": 1.0}
        for _ in range(5):
            self.stats.clear()
            best["plain"] = min(best["plain"], per_call(noop))
            best["full"] = min(best["full"], per_call(full))
            best["light"] = min(best["light"], per_call(light))
            best["inner"] = min(
                best["inner"], self.get("calibrate").incl / samples
            )
        self._inner = max(best["inner"] - best["plain"], 0.0)
        self._cost = max(best["full"] - best["plain"], self._inner)
        self._light = max(best["light"] - best["plain"], 0.0)
        self.stats.clear()
        self._open.clear()

    def install(self) -> None:
        """Wrap every seam target that exists; remember the missing ones."""
        self.calibrate()
        for name, targets in SEAMS.items():
            for module, path in targets:
                if not _patch(module, path, lambda fn, n=name: self.wrap(n, fn)):
                    self.missing.append(f"{module}:{path}")

    def dump(self) -> dict:
        """Per-pass aggregates and kept spans as JSON-ready data."""
        return {
            "overhead_per_span_s": self._cost,
            "overhead_per_counted_call_s": self._light,
            "missing_seams": self.missing,
            "passes": self.passes,
            "spans": [
                {"name": n, "op": o, "start": a, "end": b, "parent": p}
                for n, o, a, b, p in self.spans
            ],
        }


def _patch(module: str, path: str, make: Callable[[Callable], Callable]) -> bool:
    """Replace ``module.path`` by ``make(original)``; False if it is gone.

    A module-level function is also replaced wherever another module
    imported it by name, so callers that bound it at import time see the
    wrapper too.
    """
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(mod, owner_name, None) if owner_name else mod
    if owner is None:
        return False
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return False
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
        return True
    if not callable(raw):
        return False
    wrapped = make(raw)
    setattr(owner, attr, wrapped)
    if not isinstance(owner, type):
        for other in list(sys.modules.values()):
            if getattr(other, "__dict__", {}).get(attr) is raw:
                setattr(other, attr, wrapped)
    return True
