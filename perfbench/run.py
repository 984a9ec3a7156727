"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload single_seed --seed 0 --seconds 10 --trace 0

Run from the repository root.  The run measures in this one process,
with one thread (BLAS pools pinned to 1).  It repeats passes of the
workload until ``--seconds`` have elapsed (at least one), checks every
operation, prints every metric by name with its unit, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
medians over the passes, with input set-up repeated and timed on its
own.  ``--trace 1`` spends the first half of the time on untraced passes
and the second half with spans bound to every layer seam
(``spans.py``), and reports the ``per_layer`` metrics plus the tracing
overhead against the untraced passes.

Inputs come from ``--seed``: it selects one of ``VARIANTS`` input
instances, whose exact outputs at the reference commit are recorded in
``golden.json`` (rewrite them with ``--record-golden``).
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402

import numpy as np  # noqa: E402

#: Distinct input instances; ``--seed`` picks ``seed % VARIANTS``.
VARIANTS = 16
#: Set-up is timed at least this often per run (more when it is cheap).
MIN_SETUPS = 3
#: An untraced run makes at least this many passes, so that a median
#: over passes can outvote one slow pass even when the host is slow.
MIN_PASSES = 3
GOLDEN = os.path.join(HERE, "golden.json")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

clock = time.perf_counter


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, nowhere else."""
    import repro

    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"repro imported from {where}, not from {SRC}")


class ReferenceLoop:
    """A fixed mix of interpreter and NumPy work that gauges host speed.

    On a shared host the same operation runs up to 1.5x slower for
    seconds to minutes at a time.  The reference loop slows with the
    host, not with the program, so an operation's time divided by the
    reference time measured just before and after it is steady where its
    wall time is not.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20080614)
        self.values = rng.integers(0, 1 << 40, 2_000_000)
        self.index = rng.integers(0, 2_000_000, 1_000_000)

    def __call__(self) -> float:
        t0 = clock()
        for _ in range(2):
            counts: dict[int, int] = {}
            for i in range(200_000):
                counts[i & 1023] = counts.get(i & 1023, 0) + i
            np.sort(self.values[self.index])
            np.cumsum(self.values)
        return clock() - t0


class PassRecord:
    """Timings, checks and exact outputs of one pass of a workload."""

    def __init__(self, tracer, corrupt: bool, out_dir: str,
                 reference: ReferenceLoop) -> None:
        self.tracer = tracer
        self.corrupt = corrupt
        self.out_dir = out_dir
        self.reference = reference
        self.op_s: dict[str, float] = {}
        #: each operation's time in reference-loop units
        self.op_ref: dict[str, float] = {}
        #: reference-loop times, before the first operation and after each
        self.ref_s: list[float] = []
        self.outputs: dict[str, object] = {}
        self.extra: dict[str, float] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed: set[str] = set()
        self.setup_s = 0.0
        self.layers: dict[str, float] = {}

    @contextmanager
    def op(self, name: str):
        gc.collect()
        if not self.ref_s:
            self.ref_s.append(self.reference())
        span = self.tracer.span("op", op=name) if self.tracer else nullcontext()
        with span:
            t0 = clock()
            try:
                yield
            finally:
                dt = clock() - t0
        self.ref_s.append(self.reference())
        self.op_s[name] = self.op_s.get(name, 0.0) + dt
        self.op_ref[name] = (
            self.op_ref.get(name, 0.0) + dt / statistics.mean(self.ref_s[-2:])
        )

    def attempt(self, n: int) -> None:
        self.attempted += n

    def fail(self, name: str) -> None:
        self.failed.add(name)

    def check(self, name: str, ok: bool) -> None:
        self.attempt(1)
        if not ok:
            self.fail(name)

    def output(self, name: str, value: object) -> None:
        self.outputs[name] = value

    def count_run(self, res) -> None:
        self.counts["engine.rounds"] += res.total_rounds
        self.counts["engine.messages"] += res.total_messages
        self.counts["engine.bits"] += res.total_bits

    def wrap_cell(self, fn):
        return self.tracer.wrap("runner.cell", fn) if self.tracer else fn


def layer_metrics(t, rec: PassRecord) -> dict[str, float]:
    """Per-layer values of one traced pass (names as in BENCHMARK.json)."""
    g = t.get
    out = {
        "graphs.build_s": g("graphs.build").incl,
        "graphs.sorted_neighbors_calls": g("graphs.sorted_neighbors").calls,
        "graphs.sorted_neighbors_s": g("graphs.sorted_neighbors").incl,
        "graphs.subgraph_calls": g("graphs.subgraph").calls,
        "graphs.subgraph_s": g("graphs.subgraph").incl,
        "engine.init_s": g("engine.init").incl,
        "engine.draw_calls": g("engine.draw").calls,
        "engine.draws": g("engine.draw").amount,
        "engine.draw_s": g("engine.draw").incl,
        "engine.kernel_calls": g("engine.kernel").calls,
        "engine.kernel_s": g("engine.kernel").incl,
        "engine.step_calls": g("engine.step").calls,
        "engine.step_s": g("engine.step").incl,
        "core.flood_s": g("core.flood").incl,
        "core.conflict_s": g("core.conflict").incl,
        "matching.assemble_s": g("matching.assemble").incl,
        "matching.weight_calls": g("matching.weight").calls,
        "matching.weight_s": g("matching.weight").incl,
        "matching.certify_s": g("matching.certify").incl,
        "lca.rank_calls": g("lca.rank").calls,
        "lca.rank_s": g("lca.rank").incl,
        "lca.explore_s": g("lca.explore").self,
        "lca.service_s": g("lca.service").self,
        "switch.schedule_calls": sum(
            g(f"switch.schedule.{s}").calls
            for s in ("pim", "islip", "maximal", "paper")
        ),
        "switch.traffic_s": g("switch.traffic").incl,
        "switch.engine_s": g("switch.engine").self,
        "runner.overhead_s": g("runner.sweep").incl - g("runner.cell").incl,
    }
    for alg in ("ii", "luby", "mwm", "mcm"):
        out[f"glue.{alg}_s"] = g("glue", op=alg).self
    for s in ("pim", "islip", "maximal", "paper"):
        out[f"switch.schedule_s.{s}"] = g(f"switch.schedule.{s}").incl
    for name in ("engine.rounds", "engine.messages", "engine.bits",
                 "core.conflict_nodes", "lca.probes_per_query",
                 "lca.adjacency_per_query", "lca.max_depth",
                 "lca.cache_hit_rate", "runner.artifact_bytes"):
        out[name] = rec.counts.get(name, 0)
    return out


def run_passes(workload: str, size: dict, index: int, seconds: float,
               tracer, corrupt: bool, label: str, reference: ReferenceLoop,
               min_passes: int = 1) -> list[PassRecord]:
    """Passes of ``workload`` until ``seconds`` have elapsed.

    At least ``min_passes`` passes run, however long they take.
    """
    from workloads import WORKLOADS

    setup, run = WORKLOADS[workload]
    deadline = clock() + seconds
    passes: list[PassRecord] = []
    while len(passes) < min_passes or clock() < deadline:
        gc.collect()
        span = tracer.span("setup", op="setup") if tracer else nullcontext()
        with span:
            t0 = clock()
            inputs = setup(size)
            setup_s = clock() - t0
        rec = PassRecord(tracer, corrupt, OUT_DIR, reference)
        rec.setup_s = setup_s
        run(inputs, size, index, rec)
        del inputs
        if tracer:
            rec.layers = layer_metrics(tracer, rec)
            tracer.reset()
        passes.append(rec)
        print(f"{label} pass {len(passes)}: setup {setup_s:.4f} s, ops "
              f"{json.dumps(rec.op_s)}, reference {json.dumps(rec.ref_s)}",
              flush=True)
    return passes


def extra_setups(workload: str, size: dict,
                 samples: list[float]) -> list[float]:
    """Repeat set-up until its median rests on enough samples."""
    from workloads import WORKLOADS

    setup = WORKLOADS[workload][0]
    samples = list(samples)
    while len(samples) < MIN_SETUPS or (len(samples) < 9 and sum(samples) < 1.0):
        gc.collect()
        t0 = clock()
        inputs = setup(size)
        samples.append(clock() - t0)
        del inputs
    return samples


def verify(passes: list[PassRecord], golden: dict,
           counters: list[str]) -> tuple[int, int]:
    """Attempted and failed operations over all passes.

    Every pass must reproduce the recorded outputs of the reference
    commit; an operation whose output differs, or is missing, fails.
    The exact counters must repeat from pass to pass (one check per
    pass after the first).
    """
    traced = [p for p in passes if p.layers]
    attempted = failed = 0
    for i, rec in enumerate(passes):
        bad = set(rec.failed)
        outputs = json.loads(json.dumps(rec.outputs))
        for name in set(outputs) | set(golden):
            if outputs.get(name) != golden.get(name):
                bad.add(name)
        attempted += rec.attempted
        if i:
            attempted += 1
            same = rec.counts == passes[0].counts
            if rec.layers:
                same = same and all(
                    rec.layers[k] == traced[0].layers[k] for k in counters
                )
            if not same:
                bad.add("counters")
        failed += len(bad)
    return attempted, failed


def host_fingerprint() -> dict:
    """nproc, CPU model, interpreter and library versions, commit."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit_id(),
    }


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def median_of(passes: list[PassRecord], get) -> float:
    return statistics.median(get(p) for p in passes)


def pass_time(passes: list[PassRecord], field: str = "op_s") -> float:
    """One pass: the sum over operations of each one's median time.

    ``field`` is ``"op_s"`` for seconds or ``"op_ref"`` for reference-loop
    units.  Taking the median per operation discards a pass in which
    another process on the host stalled one operation.
    """
    return sum(
        median_of(passes, lambda p, o=op: getattr(p, field)[o])
        for op in passes[0].op_s
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes (tiny is for the self-test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="drop one matched edge (self-test of the checks)")
    ap.add_argument("--record-golden", action="store_true",
                    help="store this run's exact outputs as the reference")
    args = ap.parse_args(argv)

    import_program()
    from spans import Tracer
    from workloads import SIZES

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    size = SIZES[args.scale][args.workload]
    index = args.seed % VARIANTS
    os.makedirs(OUT_DIR, exist_ok=True)
    host = host_fingerprint()
    print("host " + json.dumps(host, sort_keys=True), flush=True)

    reference = ReferenceLoop()
    # Pay imports and lazy module set-up before anything is timed.
    run_passes(args.workload, SIZES["tiny"][args.workload], index, 0.0,
               None, False, "warm-up", reference)
    if args.trace:
        plain = run_passes(args.workload, size, index, args.seconds / 2,
                           None, args.corrupt, "plain", reference)
        tracer = Tracer()
        tracer.install()
        traced = run_passes(args.workload, size, index, args.seconds / 2,
                            tracer, args.corrupt, "traced", reference)
        passes = plain + traced
        metrics = {
            name: median_of(traced, lambda p, n=name: p.layers[n])
            for name in traced[0].layers
        }
        for op in ("ii", "luby", "mwm", "mcm", "oracle", "switch"):
            metrics[f"op.{op}_s"] = median_of(
                plain, lambda p, o=op: p.op_s.get(o, 0.0)
            )
        for key in ("qps", "query_p50_us", "query_p99_us"):
            metrics[f"op.{key}"] = median_of(
                plain, lambda p, k=key: p.extra.get(k, 0.0)
            )
        metrics["op.pass_s"] = pass_time(plain)
        metrics["op.ref_s"] = statistics.median(
            r for p in plain for r in p.ref_s
        )
        metrics["trace.overhead_frac"] = (
            pass_time(traced, "op_ref") / pass_time(plain, "op_ref") - 1.0
        )
        with open(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"
        ), "w") as f:
            json.dump({"host": host, **tracer.dump()}, f)
    else:
        passes = run_passes(args.workload, size, index, args.seconds,
                            None, args.corrupt, "plain", reference,
                            MIN_PASSES)
        setups = extra_setups(args.workload, size,
                              [p.setup_s for p in passes])
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_ref": pass_time(passes, "op_ref"),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    key = f"{args.scale}/{args.workload}/{index}"
    with open(GOLDEN) as f:
        golden = json.load(f)
    if args.record_golden:
        golden[key] = json.loads(json.dumps(passes[0].outputs))
        with open(GOLDEN, "w") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")
    counters = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    attempted, failed = verify(passes, golden.get(key, {}), counters)

    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from "
            "BENCHMARK.json"
        )
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    print(f"passes = {len(passes)}, attempted = {attempted}, failed = {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
