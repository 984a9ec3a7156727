"""Command-line interface: ``python -m repro <command> ...``.

Gives downstream users the paper's algorithms without writing Python:

* ``python -m repro bipartite --n 100 --p 0.08 --k 3``   (Theorem 3.8)
* ``python -m repro general   --n 60 --p 0.06 --k 3``    (Theorem 3.11)
* ``python -m repro weighted  --n 50 --p 0.1 --eps 0.1`` (Theorem 4.5)
* ``python -m repro generic   --n 30 --p 0.1 --k 2``     (Theorem 3.1)
* ``python -m repro baselines --n 80 --p 0.06``          (II / greedy / LPS / Hoepman)
* ``python -m repro switch    --ports 16 --load 0.9``    (scheduler comparison)
* ``python -m repro scenarios --size 24 --workers 4``    (algorithm × family matrix)
* ``python -m repro lca       --n 2000 --p 0.004 --queries 5000``  (point lookups)
* ``python -m repro file <edgelist> --algo bipartite --k 3``  (your own graph)

Every command prints the matching size/weight, the exact optimum, the
achieved ratio, and the measured distributed cost.  ``generic``,
``weighted``, ``baselines``, and ``scenarios`` accept ``--backend
{generator,array}`` to pick the execution engine (results are
seed-identical either way; only the wall clock changes) — since ISSUE
5 this covers the whole weighted pipeline: Algorithm 5, its LPS-style
black box, and the k-opt reference all run vectorized under
``array``.  ``scenarios`` additionally accepts ``--seed-batch K`` to
dispatch each cell's seeds in chunks of K — one process-level task per
chunk instead of one call per seed.  ``baselines --faults SPEC`` (ISSUE 10)
injects a deterministic fault plan — e.g. ``loss=0.05,crash=3`` — into
the fault-adaptive Israeli–Itai baseline and prints the injected-fault
counters plus the degradation oracle's verdict.  ``scenarios`` also
takes the crash-safety knobs ``--max-retries``, ``--timeout``, and
``--resume`` (retry only the failed/missing cells of an earlier
``--out`` artifact); failed cells print a summary and exit nonzero
instead of aborting the matrix.  ``switch`` accepts ``--traffic
{bernoulli,diagonal,bursty,hotspot}`` and ``--engine
{vectorized,scalar}`` — the production engine (a one-lane batch) is
the default and produces byte-identical statistics to the scalar loop
— plus ``--seed-batch N``, which runs N seed lanes per scheduler as one
seed-axis batched execution (ISSUE 8) and prints each metric as a
mean ± 95% CI over the lanes; out-of-range flags and infeasible
traffic parameters print an ``error:`` line and exit 1.  ``lca``
(ISSUE 9) serves per-vertex point lookups through the
:mod:`repro.lca` query layer — probe counters per run, ``--verify``
cross-checks every vertex against one global ``random_greedy_matching``
oracle run; it too prints an ``error:`` line and exits 1 on an
out-of-range ``--n``, ``--p`` or ``--queries``.  Whatever the command,
an input too large for memory prints an ``error:`` line and exits 1
instead of ending in a traceback.
"""

from __future__ import annotations

import argparse
import sys
import threading

from repro.analysis import format_table
from repro.baselines import (
    hoepman_mwm,
    israeli_itai_matching,
    lps_interleaved_mwm,
    lps_mwm,
)
from repro.core import bipartite_mcm, general_mcm, generic_mcm, weighted_mwm
from repro.graphs import bipartite_random, gnp_random, read_edgelist
from repro.graphs.weights import assign_uniform_weights
from repro.matching import (
    greedy_mwm,
    hopcroft_karp,
    maximum_matching_size,
    maximum_matching_weight,
)


def _ratio(value, opt) -> float:
    """``value / opt``; 1.0 when the optimum is 0 (an edgeless graph)."""
    return value / opt if opt else 1.0


def _bad_flags(*checks: tuple[bool, str]) -> bool:
    """Print ``error: <msg>`` for the first failed check; True if any failed."""
    for ok, msg in checks:
        if not ok:
            print(f"error: {msg}", file=sys.stderr)
            return True
    return False


def _graph_flags(args) -> tuple[tuple[bool, str], ...]:
    """Checks of the random-graph flags ``--n`` and ``--p``."""
    return (
        (args.n >= 0, f"--n must be >= 0, got {args.n}"),
        (0 <= args.p <= 1, f"--p must be in [0, 1], got {args.p}"),
    )


def _print_result(name, size_or_weight, opt, res) -> None:
    print(f"{name}: value = {size_or_weight:g}, optimum = {opt:g}, "
          f"ratio = {_ratio(size_or_weight, opt):.4f}")
    if res is not None:
        print(f"  distributed cost: {res.rounds} rounds "
              f"(+{res.charged_rounds} charged), "
              f"{res.total_messages} messages, "
              f"max message {res.max_message_bits} bits")


def cmd_bipartite(args) -> int:
    if _bad_flags(*_graph_flags(args),
                  (args.k >= 1, f"--k must be >= 1, got {args.k}")):
        return 1
    g, xs, _ = bipartite_random(args.n, args.n, args.p, seed=args.seed)
    m, res = bipartite_mcm(g, k=args.k, xs=xs, seed=args.seed)
    opt = len(hopcroft_karp(g, xs))
    print(f"random bipartite: {g.n} vertices, {g.m} edges")
    _print_result(f"bipartite_mcm (Thm 3.8, k={args.k})", len(m), opt, res)
    return 0


def cmd_general(args) -> int:
    if _bad_flags(*_graph_flags(args),
                  (args.k >= 3, f"--k must be >= 3, got {args.k}")):
        return 1
    g = gnp_random(args.n, args.p, seed=args.seed)
    m, res, outer = general_mcm(g, k=args.k, seed=args.seed)
    opt = maximum_matching_size(g)
    print(f"G(n,p): {g.n} vertices, {g.m} edges")
    _print_result(f"general_mcm (Thm 3.11, k={args.k})", len(m), opt, res)
    print(f"  bipartition samples used: {outer}")
    return 0


def cmd_generic(args) -> int:
    if _bad_flags(*_graph_flags(args),
                  (args.k >= 1, f"--k must be >= 1, got {args.k}")):
        return 1
    g = gnp_random(args.n, args.p, seed=args.seed)
    m, stats = generic_mcm(g, k=args.k, seed=args.seed, backend=args.backend,
                           keep_views=False)
    opt = maximum_matching_size(g)
    print(f"G(n,p): {g.n} vertices, {g.m} edges ({args.backend} backend)")
    _print_result(f"generic_mcm (Thm 3.1, k={args.k})", len(m), opt, stats.result)
    print(f"  conflict graph sizes per phase: {stats.conflict_sizes}")
    return 0


def cmd_weighted(args) -> int:
    if _bad_flags(
        *_graph_flags(args),
        (0 < args.eps < 1, f"--eps must be in (0, 1), got {args.eps}"),
    ):
        return 1
    g = assign_uniform_weights(
        gnp_random(args.n, args.p, seed=args.seed), seed=args.seed
    )
    m, res, iters = weighted_mwm(
        g, eps=args.eps, seed=args.seed, backend=args.backend
    )
    opt = maximum_matching_weight(g)
    print(f"weighted G(n,p): {g.n} vertices, {g.m} edges "
          f"({args.backend} backend)")
    _print_result(f"weighted_mwm (Thm 4.5, eps={args.eps})", m.weight(), opt, res)
    print(f"  black-box iterations: {iters}")
    return 0


def _cmd_baselines_faulted(args, g, plan) -> int:
    """``baselines --faults``: Israeli–Itai under a fault plan.

    The other baselines have no fault seam, so an active plan narrows
    the table to the fault-adaptive algorithm and adds what matters
    under faults: the injected-fault counters and the degradation
    oracle's verdict (symmetric matching validity, widows, maximality
    on the survivor subgraph).
    """
    from repro.matching.certify import certify_degraded_matching

    print(f"G(n,p): {g.n} vertices, {g.m} edges "
          f"({args.backend} backend; faults: {plan.describe()})")
    try:
        m, res = israeli_itai_matching(
            g, seed=args.seed, backend=args.backend, faults=plan
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        # Loss can starve a one-shot announcement and stall the
        # protocol; that is honest fault damage, not a crash.
        print(f"faulted run stalled without terminating: {e}", file=sys.stderr)
        return 1
    opt = maximum_matching_size(g)
    _print_result("Israeli-Itai (1/2-MCM, faulted)", len(m), opt, res)
    print(f"  faults injected: {res.messages_dropped} dropped, "
          f"{res.messages_delayed} delayed, {res.nodes_crashed} crashed, "
          f"{res.links_failed} links failed")
    fstate = plan.bind(g, args.seed)
    failed = fstate.failed_links_by(res.rounds) if fstate is not None else []
    rep = certify_degraded_matching(g, res.outputs, failed_links=failed)
    print(f"  degradation oracle: {'OK' if rep.ok else 'VIOLATION'} "
          f"({rep.matched_pairs} pairs, {rep.survivors} survivors, "
          f"{rep.crashed} crashed, {len(rep.widows)} widow(s), "
          f"{len(rep.violations)} violation(s))")
    return 0 if rep.ok else 1


def cmd_baselines(args) -> int:
    if _bad_flags(*_graph_flags(args)):
        return 1
    if args.faults:
        from repro.distributed.faults import FaultPlan

        try:
            plan = FaultPlan.parse(args.faults)
        except ValueError as e:
            print(f"error: bad --faults spec: {e}", file=sys.stderr)
            return 1
        if plan.is_active:
            g = gnp_random(args.n, args.p, seed=args.seed)
            return _cmd_baselines_faulted(args, g, plan)
    g = gnp_random(args.n, args.p, seed=args.seed)
    gw = assign_uniform_weights(g, seed=args.seed)
    opt = maximum_matching_size(g)
    wopt = maximum_matching_weight(gw)
    rows = []
    ii, res = israeli_itai_matching(g, seed=args.seed, backend=args.backend)
    rows.append(["Israeli-Itai (1/2-MCM)", len(ii), opt, _ratio(len(ii), opt),
                 res.rounds])
    lm, res = lps_mwm(gw, seed=args.seed, backend=args.backend)
    rows.append(["LPS-style (1/4-MWM)", round(lm.weight(), 1), round(wopt, 1),
                 _ratio(lm.weight(), wopt), res.rounds])
    li, res = lps_interleaved_mwm(gw, seed=args.seed, backend=args.backend)
    rows.append(["LPS interleaved", round(li.weight(), 1), round(wopt, 1),
                 _ratio(li.weight(), wopt), res.rounds])
    hm, res = hoepman_mwm(gw)
    rows.append(["Hoepman (1/2-MWM)", round(hm.weight(), 1), round(wopt, 1),
                 _ratio(hm.weight(), wopt), res.rounds])
    gm = greedy_mwm(gw)
    rows.append(["greedy (1/2-MWM, seq)", round(gm.weight(), 1), round(wopt, 1),
                 _ratio(gm.weight(), wopt), "-"])
    print(f"G(n,p): {g.n} vertices, {g.m} edges")
    print(format_table(["baseline", "value", "optimum", "ratio", "rounds"], rows))
    return 0


def cmd_switch(args) -> int:
    from repro.switch import (
        GreedyMaximalScheduler,
        IslipAdapter,
        PaperScheduler,
        PimScheduler,
        bernoulli_uniform,
        bursty,
        diagonal,
        hotspot,
        run_switch,
        run_switch_vectorized,
    )

    if _bad_flags(
        (args.ports >= 1, f"--ports must be >= 1, got {args.ports}"),
        (args.slots >= 0, f"--slots must be >= 0, got {args.slots}"),
        (0 <= args.load <= 1, f"--load must be in [0, 1], got {args.load}"),
        (args.k >= 1, f"--k must be >= 1, got {args.k}"),
        (args.seed_batch is None or args.seed_batch >= 1,
         f"--seed-batch must be >= 1, got {args.seed_batch}"),
    ):
        return 1
    traffic_models = {
        "bernoulli": lambda seed: bernoulli_uniform(
            args.ports, args.load, seed=seed
        ),
        "diagonal": lambda seed: diagonal(args.ports, args.load, seed=seed),
        "bursty": lambda seed: bursty(args.ports, args.load, seed=seed),
        "hotspot": lambda seed: hotspot(args.ports, args.load, seed=seed),
    }
    make_traffic = traffic_models[args.traffic]
    try:
        make_traffic(args.seed)  # the model validates its own parameters
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    schedulers = [
        ("PIM", lambda seed: PimScheduler(args.ports, seed=seed)),
        ("iSLIP", lambda seed: IslipAdapter(args.ports)),
        ("maximal", lambda seed: GreedyMaximalScheduler(args.ports, seed=seed)),
        (f"paper k={args.k}", lambda seed: PaperScheduler(args.ports, k=args.k)),
    ]
    if args.seed_batch is not None:
        from repro.analysis.switch_curves import batched_point

        seeds = list(range(args.seed, args.seed + args.seed_batch))
        rows = []
        for name, factory in schedulers:
            pt = batched_point(
                args.ports, make_traffic, factory, seeds,
                args.slots, warmup=args.slots // 5,
            )
            rows.append([
                name,
                f"{pt['throughput']:.4f} ± {pt['throughput_ci']:.4f}",
                f"{pt['mean_delay']:.3f} ± {pt['mean_delay_ci']:.3f}",
                f"{pt['backlog']:.1f} ± {pt['backlog_ci']:.1f}",
            ])
        print(f"{args.ports}x{args.ports} switch at load {args.load} "
              f"({args.traffic} traffic, {len(seeds)} seed lanes, one "
              "batched execution per scheduler; mean ± 95% CI):")
        print(format_table(
            ["scheduler", "throughput", "mean delay", "backlog"], rows
        ))
        return 0
    rows = []
    for name, factory in schedulers:
        if args.engine == "vectorized":
            st = run_switch_vectorized(
                args.ports, make_traffic(args.seed), factory(args.seed),
                slots=args.slots, warmup=args.slots // 5,
            )
        else:
            st = run_switch(
                args.ports, make_traffic(args.seed), factory(args.seed),
                slots=args.slots, warmup=args.slots // 5,
            )
        rows.append([name, st.throughput, st.mean_delay, st.backlog])
    print(f"{args.ports}x{args.ports} switch at load {args.load} "
          f"({args.traffic} traffic, {args.engine} engine):")
    print(format_table(["scheduler", "throughput", "mean delay", "backlog"], rows))
    return 0


def cmd_lca(args) -> int:
    import time

    import numpy as np

    from repro.lca import MatchingService, random_greedy_matching

    if _bad_flags(
        (args.n >= 1, f"--n must be >= 1, got {args.n}"),
        (0 <= args.p <= 1, f"--p must be in [0, 1], got {args.p}"),
        (args.queries >= 1, f"--queries must be >= 1, got {args.queries}"),
    ):
        return 1
    g = gnp_random(args.n, args.p, seed=args.seed)
    svc = MatchingService(g, args.seed)
    rng = np.random.default_rng(args.seed)
    vs = rng.integers(g.n, size=args.queries).tolist()
    t0 = time.perf_counter()
    matched = sum(1 for v in vs if svc.mate_of(v) != -1)
    dt = time.perf_counter() - t0
    st = svc.stats
    print(f"G(n,p): {g.n} vertices, {g.m} edges")
    rows = [
        ["queries served", st.queries],
        ["matched answers", matched],
        ["queries/sec", f"{st.queries / dt:.0f}" if dt > 0 else "inf"],
        ["mean probes/query", f"{st.mean_probes:.2f}"],
        ["max exploration depth", st.max_depth],
    ]
    print(format_table(["metric", "value"], rows))
    if args.verify:
        t0 = time.perf_counter()
        oracle = random_greedy_matching(g, args.seed)
        dt_global = time.perf_counter() - t0
        truth = oracle.mate_array()
        ok = all(svc.mate_of(v) == truth[v] for v in range(g.n))
        if not ok:
            print("CONSISTENCY MISMATCH vs random_greedy_matching oracle",
                  file=sys.stderr)
            return 1
        print(f"consistency vs global oracle: OK (all {g.n} vertices; "
              f"one global run {dt_global * 1e3:.1f} ms)")
    return 0


def cmd_scenarios(args) -> int:
    from repro.analysis.scenarios import (
        ALGORITHMS,
        SCENARIOS,
        scenario_matrix,
        scenario_table,
    )

    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 1
    if args.repeats < 1:
        print(f"error: --repeats must be >= 1, got {args.repeats}", file=sys.stderr)
        return 1
    if args.size < 8:
        print(f"error: --size must be >= 8, got {args.size}", file=sys.stderr)
        return 1
    if args.seed_batch is not None and args.seed_batch < 1:
        print(f"error: --seed-batch must be >= 1, got {args.seed_batch}",
              file=sys.stderr)
        return 1
    if args.max_retries < 0:
        print(f"error: --max-retries must be >= 0, got {args.max_retries}",
              file=sys.stderr)
        return 1
    if args.timeout is not None and not 0 < args.timeout <= threading.TIMEOUT_MAX:
        print(f"error: --timeout must be in (0, {threading.TIMEOUT_MAX:g}] "
              f"seconds, got {args.timeout}", file=sys.stderr)
        return 1
    if args.resume and not args.out:
        print("error: --resume needs --out (the artifact to resume from)",
              file=sys.stderr)
        return 1
    scenarios = args.family or None
    algos = args.algo or None
    for name in scenarios or ():
        if name not in SCENARIOS:
            print(f"error: unknown family {name!r}; "
                  f"known: {' '.join(sorted(SCENARIOS))}", file=sys.stderr)
            return 1
    for name in algos or ():
        if name not in ALGORITHMS:
            print(f"error: unknown algorithm {name!r}; "
                  f"known: {' '.join(sorted(ALGORITHMS))}", file=sys.stderr)
            return 1
    try:
        results = scenario_matrix(
            scenarios=scenarios,
            algos=algos,
            size=args.size,
            seeds=range(args.seed, args.seed + args.repeats),
            workers=args.workers,
            artifact=args.out,
            backend=args.backend,
            seed_batch=args.seed_batch,
            max_retries=args.max_retries,
            timeout=args.timeout,
            resume=args.resume,
        )
    except OSError as e:
        if args.out is None:
            raise
        print(f"error: cannot write artifact {args.out}: {e}", file=sys.stderr)
        return 1
    n_cells = len(results)
    print(f"scenario matrix: {n_cells} cells "
          f"({args.repeats} seed(s) each, {args.workers} worker(s))")
    print(scenario_table(results))
    if args.out:
        print(f"(records streamed to {args.out})")
    failed = [(r.params, r.error) for r in results if r.error is not None]
    if failed:
        print(f"error: {len(failed)} cell(s) failed:", file=sys.stderr)
        for params, msg in failed:
            print(f"  {params.get('scenario', '?')}/{params.get('algo', '?')}: "
                  f"{msg}", file=sys.stderr)
        if args.out:
            print(f"(re-run with --resume --out {args.out} to retry only "
                  "the failed cells)", file=sys.stderr)
        return 1
    bad = [
        r.params for r in results
        if any(rec.get("ok") == 0.0 for rec in r.records)
    ]
    if bad:
        print(f"error: {len(bad)} cell(s) below the paper bound: {bad}",
              file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    md = generate_report(args.out, seed=args.seed)
    print(md)
    print(f"(written to {args.out})")
    return 0


def cmd_file(args) -> int:
    if _bad_flags(
        (args.k >= 1, f"--k must be >= 1, got {args.k}"),
        (0 < args.eps < 1, f"--eps must be in (0, 1), got {args.eps}"),
    ):
        return 1
    try:
        g = read_edgelist(args.path)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"loaded {args.path}: {g.n} vertices, {g.m} edges, "
          f"{'weighted' if g.weighted else 'unweighted'}")
    if args.algo == "bipartite":
        part = g.bipartition()
        if part is None:
            print("error: graph is not bipartite", file=sys.stderr)
            return 1
        m, res = bipartite_mcm(g, k=args.k, xs=part[0], seed=args.seed)
        opt = len(hopcroft_karp(g, part[0]))
        _print_result(f"bipartite_mcm (k={args.k})", len(m), opt, res)
    elif args.algo == "general":
        m, res, _ = general_mcm(g, k=max(args.k, 3), seed=args.seed)
        opt = maximum_matching_size(g)
        _print_result(f"general_mcm (k={max(args.k, 3)})", len(m), opt, res)
    else:  # weighted
        if not g.weighted:
            print("error: weighted algorithm needs edge weights", file=sys.stderr)
            return 1
        m, res, _ = weighted_mwm(g, eps=args.eps, seed=args.seed)
        opt = maximum_matching_weight(g)
        _print_result(f"weighted_mwm (eps={args.eps})", m.weight(), opt, res)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Distributed approximate matching (SPAA 2008 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, n=60, pdef=0.08):
        sp.add_argument("--n", type=int, default=n, help="vertices (per side)")
        sp.add_argument("--p", type=float, default=pdef, help="edge probability")
        sp.add_argument("--seed", type=int, default=0)

    def backend_opt(sp):
        sp.add_argument(
            "--backend", choices=("generator", "array"), default="generator",
            help="execution engine (seed-identical results either way)",
        )

    sp = sub.add_parser("bipartite", help="Theorem 3.8 on a random bipartite graph")
    common(sp)
    sp.add_argument("--k", type=int, default=3, help="guarantee 1-1/k")
    sp.set_defaults(fn=cmd_bipartite)

    sp = sub.add_parser("general", help="Theorem 3.11 on G(n,p)")
    common(sp)
    sp.add_argument("--k", type=int, default=3)
    sp.set_defaults(fn=cmd_general)

    sp = sub.add_parser("generic", help="Theorem 3.1 on G(n,p) (LOCAL model)")
    common(sp, n=30, pdef=0.1)
    sp.add_argument("--k", type=int, default=2)
    backend_opt(sp)
    sp.set_defaults(fn=cmd_generic)

    sp = sub.add_parser("weighted", help="Theorem 4.5 on weighted G(n,p)")
    common(sp, n=50, pdef=0.1)
    sp.add_argument("--eps", type=float, default=0.1)
    backend_opt(sp)
    sp.set_defaults(fn=cmd_weighted)

    sp = sub.add_parser("baselines", help="run all prior-work baselines")
    common(sp, n=80, pdef=0.06)
    backend_opt(sp)
    sp.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject a deterministic fault plan, e.g. "
             "'loss=0.05,crash=3,link=2' (keys: loss, delay, crash, "
             "link, crash_window, link_window, seed); runs the "
             "fault-adaptive Israeli-Itai baseline and prints fault "
             "counters plus the degradation-oracle verdict",
    )
    sp.set_defaults(fn=cmd_baselines)

    sp = sub.add_parser("switch", help="switch scheduler comparison")
    sp.add_argument("--ports", type=int, default=16)
    sp.add_argument("--load", type=float, default=0.9)
    sp.add_argument("--slots", type=int, default=2000)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--traffic",
        choices=("bernoulli", "diagonal", "bursty", "hotspot"),
        default="bernoulli",
        help="traffic model feeding the switch",
    )
    sp.add_argument(
        "--engine", choices=("vectorized", "scalar"), default="vectorized",
        help="cell-slot loop implementation (stats are byte-identical; "
             "vectorized is the long-horizon path)",
    )
    sp.add_argument(
        "--seed-batch", type=int, default=None, metavar="N",
        help="run N seed lanes per scheduler as one batched execution "
             "and report mean ± 95%% CI per metric (lanes are seeds "
             "--seed .. --seed+N-1; overrides --engine)",
    )
    sp.set_defaults(fn=cmd_switch)

    sp = sub.add_parser(
        "scenarios", help="run every core algorithm on every graph family"
    )
    sp.add_argument("--size", type=int, default=20, help="graph scale per cell")
    sp.add_argument("--repeats", type=int, default=2, help="seeds per cell")
    sp.add_argument("--workers", type=int, default=1, help="worker processes")
    sp.add_argument("--family", action="append", metavar="NAME",
                    help="restrict to a family (repeatable)")
    sp.add_argument("--algo", action="append", metavar="NAME",
                    help="restrict to an algorithm (repeatable)")
    sp.add_argument("--out", default=None, help="stream JSONL records here")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--seed-batch", type=int, default=None, metavar="K",
        help="dispatch each cell's seeds in chunks of K (one task per "
             "chunk instead of one call per seed); records are identical",
    )
    sp.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="re-run a failed cell up to N times (exponential backoff) "
             "before recording it as an error",
    )
    sp.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="per-cell result timeout in seconds (enforced with "
             "--workers > 1; an overdue cell becomes an error record)",
    )
    sp.add_argument(
        "--resume", action="store_true",
        help="skip cells already present (error-free) in the --out "
             "artifact from an earlier run; only failed and missing "
             "cells re-run",
    )
    backend_opt(sp)
    sp.set_defaults(fn=cmd_scenarios)

    sp = sub.add_parser(
        "lca", help="serve point queries against the random-greedy matching"
    )
    common(sp, n=2000, pdef=0.004)
    sp.add_argument("--queries", type=int, default=5000,
                    help="random mate_of lookups to serve")
    sp.add_argument("--verify", action="store_true",
                    help="cross-check every vertex against one global "
                         "random_greedy_matching run")
    sp.set_defaults(fn=cmd_lca)

    sp = sub.add_parser("report", help="write a Markdown reproduction snapshot")
    sp.add_argument("--out", default="REPORT.md")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_report)

    sp = sub.add_parser("file", help="run an algorithm on an edge-list file")
    sp.add_argument("path")
    sp.add_argument(
        "--algo", choices=("bipartite", "general", "weighted"), default="general"
    )
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_file)
    return p


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if _bad_flags((args.seed >= 0, f"--seed must be >= 0, got {args.seed}")):
        return 1
    try:
        return args.fn(args)
    except MemoryError as e:
        # NumPy's message names the allocation it could not make.
        print(f"error: out of memory: {str(e) or 'allocation failed'}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
