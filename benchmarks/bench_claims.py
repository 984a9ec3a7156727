"""The paper's claims, measured and gated as JSON rows.

Every result the reproduction checks — Theorems 3.1, 3.8, 3.11 and
4.5, Lemmas 3.4–3.10 and 4.1–4.3, Figures 1–2, the switch application,
the ablations and the scenario matrix — is one function below (E1–E14,
A1–A4, F1, F2, S1).  Each runs its claim's fixed instances and returns
one row per measured quantity::

    {"claim": "E3", "quantity": "iterations used",
     "params": {"family": "gnp(50,.06)", "k": 3}, "n": 50,
     "measured": 33, "op": "<=", "bound": 563, "ok": true}

``n`` is the instance's vertex count, ``null`` where there is none.  A
row whose ``bound`` is ``null`` is printed, not gated: rounds, message
bits, fits, seconds.  ``gate`` recomputes ``measured op bound`` for
every other row instead of trusting the stored ``ok``; a missing
measurement fails, and so does a claim with no rows.  Ratio bounds keep
a ``1e-9`` float slack; some bounds are other measured values (A4: the
interleaved box takes fewer rounds than the sequential one).

The whole set takes under 30 s on a 2-vCPU machine, so ``--quick``
runs every claim too (``data["quick"]`` records the flag)::

    PYTHONPATH=src python benchmarks/bench_claims.py --quick --check --out claims.json

The committed full run lives at ``benchmarks/results/claims.json``.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
from typing import Any

import numpy as np

import harness
from repro.analysis import (
    doubling_ratios, format_table, log_fit, print_banner, scenario_matrix,
)
from repro.baselines import (
    hoepman_mwm, israeli_itai_matching, lps_interleaved_mwm, lps_mwm,
    luby_mis, ring_coloring, ring_maximal_matching,
)
from repro.baselines.israeli_itai import matching_from_mates
from repro.baselines.luby_mis import verify_mis
from repro.core import (
    apply_wraps, aug_bipartite, bipartite_mcm, build_conflict_graph,
    count_augmenting_paths, derived_weights, fidelity_iterations,
    general_mcm, generic_mcm, kopt_mwm, weighted_mwm, weighted_mwm_reference,
)
from repro.core.figures import figure1_instance, figure2_instance
from repro.core.general_mcm import _hat_graph
from repro.core.weighted_mwm import default_iterations
from repro.graphs import (
    bipartite_random, comb_graph, crown_graph, cycle_graph, gnp_random,
    hypercube_graph, path_graph, random_regular, random_tree,
    switch_demand_graph,
)
from repro.graphs.weights import (
    assign_exponential_weights, assign_integer_weights, assign_uniform_weights,
)
from repro.matching import (
    Matching, apply_paths, certified_ratio_lower_bound,
    find_augmenting_paths_upto, greedy_maximal_matching, greedy_mwm,
    hopcroft_karp, maximum_matching_size, maximum_matching_weight,
    shortest_augmenting_path_length,
)
from repro.switch import (
    GreedyMaximalScheduler, IslipAdapter, MaxWeightScheduler, PaperScheduler,
    PimScheduler, WeightedPaperScheduler, bernoulli_uniform, bursty, hotspot,
    run_switch_vectorized,
)

#: The float slack of every ratio bound: ``worst >= guarantee - TOL``.
TOL = 1e-9

OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
       ">=": operator.ge, ">": operator.gt}


class Rows(list):
    """The rows of one claim."""

    def __init__(self, claim: str):
        super().__init__()
        self.claim = claim

    def add(self, quantity: str, measured: Any, op: str | None = None,
            bound: Any = None, *, n: int | None = None, **params: Any) -> None:
        """Append one row; without a ``bound`` it is printed, not gated."""
        if bound is None:
            op = None
        row = {"claim": self.claim, "quantity": quantity, "params": params,
               "n": n, "measured": measured, "op": op, "bound": bound}
        row["ok"] = None if bound is None else holds(row)
        self.append(row)

    def curve(self, quantity: str, ns, ys, op: str, bound: Any,
              **params: Any) -> None:
        """One row per point of ``ys`` over ``ns``; only the last is gated."""
        for n, y in zip(ns[:-1], ys[:-1]):
            self.add(quantity, y, n=n, **params)
        self.add(quantity, ys[-1], op, bound, n=ns[-1], **params)


def holds(row: dict[str, Any]) -> bool:
    """``measured op bound``, recomputed; a missing measurement fails."""
    return (row["measured"] is not None
            and OPS[row["op"]](row["measured"], row["bound"]))


def e1() -> Rows:
    rows = Rows("E1")
    for fam, maker in [
        ("gnp", lambda s: gnp_random(40, 0.08, seed=s)),
        ("bip", lambda s: bipartite_random(20, 20, 0.15, seed=s)[0]),
    ]:
        for k in (1, 2, 3):
            worst, rounds, bits = 1.0, 0, 0
            for s in range(3):
                g = maker(s)
                m, stats = generic_mcm(g, k=k, seed=s)
                opt = maximum_matching_size(g)
                if opt:
                    worst = min(worst, len(m) / opt)
                rounds = max(rounds, stats.result.total_rounds)
                bits = max(bits, stats.result.max_message_bits)
            p = dict(n=g.n, family=fam, k=k)
            rows.add("worst ratio", worst, ">=", 1 - 1 / (k + 1) - TOL, **p)
            rows.add("max rounds", rounds, **p)
            rows.add("max msg bits", bits, **p)
    ns, rs = [20, 40, 80, 160], []
    for n in ns:
        _, stats = generic_mcm(gnp_random(n, 4.0 / n, seed=n), k=2, seed=n)
        rs.append(stats.result.total_rounds)
    # O(log n): 8x the vertices must cost far below 8x the rounds (the
    # phase structure is n-independent; only the MIS emulation grows).
    rows.curve("rounds", ns, rs, "<", 0.7 * rs[0] * (ns[-1] / ns[0]), k=2)
    fit = log_fit(ns, rs)
    rows.add("log2 slope", fit["a"], k=2)
    rows.add("log fit R²", fit["r2"], k=2)
    return rows


def e2() -> Rows:
    rows = Rows("E2")
    for fam, maker in [
        ("bip(40+40,.1)", lambda s: bipartite_random(40, 40, 0.1, seed=s)),
        ("switch(24,.5)", lambda s: switch_demand_graph(24, 0.5, seed=s)),
    ]:
        for k in (2, 3, 4, 5):
            worst, rounds, bits = 1.0, 0, 0
            for s in range(4):
                g, xs, _ = maker(s)
                m, res = bipartite_mcm(g, k=k, xs=xs, seed=100 + s)
                opt = len(hopcroft_karp(g, xs))
                if opt:
                    worst = min(worst, len(m) / opt)
                rounds = max(rounds, res.rounds)
                bits = max(bits, res.max_message_bits)
            p = dict(n=g.n, family=fam, k=k)
            rows.add("worst ratio", worst, ">=", 1 - 1 / k - TOL, **p)
            rows.add("max rounds", rounds, **p)
            rows.add("max msg bits", bits, **p)
            # the per-round width after Lemma 3.7's pipelining
            rows.add("pipelined bits/round", math.ceil(bits / (2 * k - 1)), **p)
    return rows


def e3() -> Rows:
    rows = Rows("E3")
    for fam, maker in [
        ("gnp(50,.06)", lambda s: gnp_random(50, 0.06, seed=s)),
        ("3-regular(40)", lambda s: random_regular(40, 3, seed=s)),
    ]:
        for k in (3, 4):
            worst, used, rounds, bits = 1.0, 0, 0, 0
            for s in range(3):
                g = maker(s)
                m, res, outer = general_mcm(g, k=k, seed=200 + s)
                opt = maximum_matching_size(g)
                if opt:
                    worst = min(worst, len(m) / opt)
                used = max(used, outer)
                rounds = max(rounds, res.rounds)
                bits = max(bits, res.max_message_bits)
            p = dict(n=g.n, family=fam, k=k)
            rows.add("worst ratio", worst, ">=", 1 - 1 / k - TOL, **p)
            # the adaptive certificate stop within the paper's budget
            rows.add("iterations used", used, "<=", fidelity_iterations(k), **p)
            rows.add("max rounds", rounds, **p)
            rows.add("max msg bits", bits, **p)
    return rows


def e4() -> Rows:
    rows = Rows("E4")
    delta = 0.2
    for dist, weigh in [
        ("uniform", assign_uniform_weights),
        ("exponential", assign_exponential_weights),
        ("integer", assign_integer_weights),
    ]:
        for eps in (0.1, 0.05):
            for box in ("sequential", "interleaved"):
                worst, rounds = 1.0, 0
                for s in range(3):
                    g = weigh(gnp_random(30, 0.15, seed=s), seed=s)
                    m, res, _ = weighted_mwm(
                        g, eps=eps, delta=delta, seed=300 + s, box=box
                    )
                    worst = min(worst, m.weight() / maximum_matching_weight(g))
                    rounds = max(rounds, res.rounds)
                p = dict(n=g.n, weights=dist, eps=eps, box=box)
                rows.add("worst ratio", worst, ">=", 0.5 - eps - TOL, **p)
                rows.add("iterations", default_iterations(eps, delta), **p)
                rows.add("max rounds", rounds, **p)
    return rows


def e5() -> Rows:
    rows = Rows("E5")
    for fam, maker in [  # maker(seed) -> (graph, X side or None)
        ("crown(8)", lambda s: crown_graph(8)[:2]),
        ("bip(30+30,.08)", lambda s: bipartite_random(30, 30, 0.08, seed=s)[:2]),
        ("gnp(50,.05)", lambda s: (gnp_random(50, 0.05, seed=s), None)),
        ("tree(60)", lambda s: (random_tree(60, seed=s), None)),
    ]:
        ii_r, ours_r = [], []
        for s in range(3):
            g, xs = maker(s)
            opt = maximum_matching_size(g)
            if opt == 0:
                continue
            ii_r.append(len(israeli_itai_matching(g, seed=s)[0]) / opt)
            if xs is not None:
                m, _ = bipartite_mcm(g, k=3, xs=xs, seed=s)
            else:
                m, _, _ = general_mcm(g, k=3, seed=s)
            ours_r.append(len(m) / opt)
        p = dict(n=g.n, family=fam)
        rows.add("Israeli–Itai worst ratio", min(ii_r), ">=", 0.5 - TOL, **p)
        rows.add("ours (k=3) worst ratio", min(ours_r), ">=", 2 / 3 - TOL, **p)
        rows.add("ours/II", min(ours_r) / min(ii_r), **p)
    for s in range(3):
        g = assign_uniform_weights(gnp_random(35, 0.12, seed=s), seed=s)
        opt = maximum_matching_weight(g)
        p = dict(n=g.n, seed=s)
        rows.add("greedy ratio", greedy_mwm(g).weight() / opt, ">=", 0.5, **p)
        rows.add("Hoepman ratio", hoepman_mwm(g)[0].weight() / opt,
                 ">=", 0.5 - TOL, **p)
        rows.add("LPS ratio", lps_mwm(g, seed=s)[0].weight() / opt,
                 ">=", 0.25 - TOL, **p)
        rows.add("Algorithm 5 ratio",
                 weighted_mwm(g, eps=0.1, seed=s)[0].weight() / opt,
                 ">=", 0.4 - TOL, **p)
    return rows


def e6() -> Rows:
    rows = Rows("E6")
    k, seed = 3, 0
    g = gnp_random(60, 0.07, seed=seed)
    opt = maximum_matching_size(g)
    target = (1 - 1 / (k + 1)) * opt
    rng = np.random.default_rng(seed)
    seq = np.random.SeedSequence(seed + 1)
    mates = [-1] * g.n

    def size() -> int:
        return len(matching_from_mates(g, dict(enumerate(mates))))

    gaps = [target]
    reached = None
    for it in range(300):
        now = size()
        if reached is None and now >= (1 - 1 / k) * opt:
            reached = it
        if target - now <= 0:
            break
        red = rng.integers(0, 2, size=g.n).astype(bool)
        ghat, xside = _hat_graph(g, mates, red)
        mates, _, _ = aug_bipartite(
            ghat, xside, mates, 2 * k - 1,
            seed=int(seq.spawn(1)[0].generate_state(1)[0]),
        )
        gaps.append(target - size())
    decays = [b / a for a, b in zip(gaps, gaps[1:]) if a > 0 and b >= 0]
    p = dict(n=g.n, k=k)
    for i, gap in enumerate(gaps):
        rows.add("gap δ_i", gap, iteration=i, **p)
    rows.add("decay samples", len(decays), **p)
    # Lemma 3.9: E[δ_{i+1}] ≤ (1 − 1/((k+1)2^{2k}))·δ_i; no sample fails.
    rows.add("mean gap decay", sum(decays) / len(decays) if decays else None,
             "<=", 1 - 1 / ((k + 1) * 2 ** (2 * k)) + 0.05, **p)
    rows.add("iterations to reach 1−1/k", reached,
             "<=", fidelity_iterations(k), **p)
    return rows


def e7() -> Rows:
    rows = Rows("E7")
    for s in range(4):
        g, xs, _ = bipartite_random(30, 30, 0.1, seed=s)
        xside = [v < 30 for v in range(g.n)]
        opt = len(hopcroft_karp(g, xs))
        mates = [-1] * g.n
        for ell in (1, 3, 5):
            mates, _, _ = aug_bipartite(g, xside, mates, ell, seed=50 + s)
            m = Matching(g, [(v, mates[v]) for v in range(g.n) if v < mates[v]])
            shortest = shortest_augmenting_path_length(g, m)
            k = (ell + 1) // 2
            p = dict(n=g.n, seed=s, ell=ell)
            rows.add("shortest augmenting path", shortest, **p)
            # Lemma 3.4: after phase ℓ every augmenting path is longer
            rows.add("augmenting path of length ≤ ℓ left",
                     shortest is not None and shortest <= ell, "==", False, **p)
            # Lemma 3.5 at ℓ = 2k−1
            rows.add("|M|", len(m), ">=", (1 - 1 / (k + 1)) * opt - TOL, **p)
            rows.add("|M*|", opt, **p)
    return rows


def e8() -> Rows:
    rows = Rows("E8")
    ports, slots, warmup = 16, 2000, 400
    schedulers = [
        ("PIM", lambda: PimScheduler(ports, seed=1)),
        ("iSLIP", lambda: IslipAdapter(ports)),
        ("maximal", lambda: GreedyMaximalScheduler(ports, seed=1)),
        ("paper k=3", lambda: PaperScheduler(ports, k=3)),
    ]
    for traffic, make in [
        ("uniform 0.85", lambda: bernoulli_uniform(ports, 0.85, seed=9)),
        ("uniform 0.95", lambda: bernoulli_uniform(ports, 0.95, seed=9)),
        ("hotspot 0.5", lambda: hotspot(ports, 0.5, seed=9)),
    ]:
        stats = {name: run_switch_vectorized(ports, make(), factory(),
                                             slots, warmup)
                 for name, factory in schedulers}
        uniform = traffic.startswith("uniform")
        for name, st in stats.items():
            p = dict(ports=ports, traffic=traffic, scheduler=name)
            rows.add("throughput", st.throughput, **p)
            if uniform:  # everyone sustains admissible uniform load
                rows.add("|throughput − load|",
                         abs(st.throughput - float(traffic.split()[1])),
                         "<", 0.05, **p)
            # the (1−1/k) scheduler's delay is no worse than PIM's
            gated = uniform and name == "paper k=3"
            rows.add("mean delay", st.mean_delay, "<=",
                     stats["PIM"].mean_delay * 1.1 if gated else None, **p)
            rows.add("mean match size", st.mean_match_size, **p)
            rows.add("backlog", st.backlog, **p)
    return rows


def _e9_bipartite(n: int) -> int:
    g, xs, _ = bipartite_random(n, n, 5.0 / n, seed=n)
    return bipartite_mcm(g, k=3, xs=xs, seed=n)[1].rounds


def e9() -> Rows:
    rows = Rows("E9")
    for name, ns, rounds in [
        ("Israeli-Itai", [64, 128, 256, 512], lambda n: israeli_itai_matching(
            gnp_random(n, 8.0 / n, seed=n), seed=n)[1].rounds),
        ("Luby MIS", [64, 128, 256, 512], lambda n: luby_mis(
            gnp_random(n, 8.0 / n, seed=n), seed=n)[1].rounds),
        ("bipartite k=3 (Thm 3.8)", [32, 64, 128, 256], _e9_bipartite),
        ("general k=3 (Thm 3.11)", [24, 48, 96], lambda n: general_mcm(
            gnp_random(n, 5.0 / n, seed=n), k=3, seed=n)[1].rounds),
        ("weighted eps=.2 (Thm 4.5)", [24, 48, 96], lambda n: weighted_mwm(
            assign_uniform_weights(gnp_random(n, 6.0 / n, seed=n), seed=n),
            eps=0.2, seed=n)[1].rounds),
    ]:
        rs = [rounds(n) for n in ns]
        # no linear blow-up: far below the extrapolation from ns[0]
        rows.curve("rounds", ns, rs, "<", 0.7 * (rs[0] * ns[-1] / ns[0]),
                   algorithm=name)
        for n, step in zip(ns[1:], doubling_ratios(ns, rs)):
            rows.add("rounds added by doubling n", step, n=n, algorithm=name)
        fit = log_fit(ns, rs)
        rows.add("log2 slope", fit["a"], algorithm=name)
        rows.add("log fit R²", fit["r2"], algorithm=name)
    return rows


def e10() -> Rows:
    rows = Rows("E10")
    delta, seed = 0.5, 4  # the greedy black box is an exact ½-MWM
    g = assign_uniform_weights(gnp_random(40, 0.12, seed=seed), seed=seed)
    opt = maximum_matching_weight(g)
    rows.add("w(M*)", opt, n=g.n)
    for i in (1, 2, 3, 5, 8, 12):
        m, _ = weighted_mwm_reference(g, iterations=i, black_box=greedy_mwm)
        # Lemma 4.3: w(M_i) ≥ ½(1 − (1 − 2δ/3)^i)·w(M*)
        rows.add("w(M_i)", m.weight(), ">=",
                 0.5 * (1 - (1 - 2 * delta / 3) ** i) * opt - TOL,
                 n=g.n, iterations=i)
    # Lemma 4.1 is asserted inside the distributed run, every iteration.
    _, _, iters = weighted_mwm(g, eps=0.1, seed=seed, check_lemma41=True)
    rows.add("Lemma 4.1 iterations checked", iters, n=g.n)
    return rows


def e11() -> Rows:
    rows = Rows("E11")
    for name, g in [
        ("comb(12)", comb_graph(12)),
        ("path(24)", path_graph(24)),
        ("crown(8)", crown_graph(8)[0]),
        ("hypercube(4)", hypercube_graph(4)),
    ]:
        opt = maximum_matching_size(g)
        greedy = len(greedy_maximal_matching(g)) / opt  # deterministic scan
        m, _, _ = general_mcm(g, k=3, seed=1)
        ours = len(m) / opt
        p = dict(n=g.n, family=name)
        rows.add("|M*|", opt, **p)
        rows.add("greedy-maximal ratio", greedy, ">=", 0.5 - TOL, **p)
        rows.add("general_mcm k=3 ratio", ours, ">=", 2 / 3 - TOL, **p)
        # at least Lemma 3.5's no-short-path certificate
        rows.add("k=3 ratio vs certificate", ours, ">=",
                 certified_ratio_lower_bound(g, m, 7) - TOL, **p)
        if name.startswith("comb"):  # the separation materializes here
            rows.add("greedy-maximal ratio on the comb", greedy, "<=", 0.6, **p)
            rows.add("k=3 ratio on the comb", ours, ">=", 0.9, **p)
    return rows


def e12() -> Rows:
    rows = Rows("E12")
    ns = [16, 128, 1024, 4096]
    color, match = [], []
    for n in ns:
        g = cycle_graph(n)
        color.append(ring_coloring(g)[1].rounds)
        m, mres = ring_maximal_matching(g)
        match.append(mres.rounds)
        ii, ires = israeli_itai_matching(g, seed=n)
        rows.add("II rounds", ires.rounds, n=n)
        # both are maximal matchings of a cycle: n/3 ≤ |M| ≤ n/2
        for algo, size in (("CV", len(m)), ("II", len(ii))):
            rows.add(f"|M| ({algo})", size, ">=", n // 3, n=n)
            rows.add(f"|M| ({algo})", size, "<=", n // 2, n=n)
    # log* flatness: 256x the vertices cost at most 4 more rounds
    rows.curve("CV color rounds", ns, color, "<=", color[0] + 4)
    rows.curve("CV matching rounds", ns, match, "<=", match[0] + 4)
    return rows


def e13() -> Rows:
    rows = Rows("E13")
    ports, slots, warmup = 8, 1200, 200
    schedulers = [
        ("PIM (queue-blind)", lambda: PimScheduler(ports, seed=2)),
        ("MWM exact", lambda: MaxWeightScheduler(ports)),
        ("Alg.5 (1/2-eps)", lambda: WeightedPaperScheduler(ports, eps=0.1)),
    ]
    for traffic, make in [
        ("uniform 0.8", lambda: bernoulli_uniform(ports, 0.8, seed=5)),
        ("bursty 0.7", lambda: bursty(ports, 0.7, burst_len=24.0, seed=5)),
    ]:
        stats = {name: run_switch_vectorized(ports, make(), factory(),
                                             slots, warmup)
                 for name, factory in schedulers}
        for name, st in stats.items():
            p = dict(ports=ports, traffic=traffic, scheduler=name)
            approx = name.startswith("Alg.5")
            rows.add("throughput", st.throughput, **p)
            if approx:  # sustains the offered (admissible) load
                rows.add("|throughput − load|",
                         abs(st.throughput - float(traffic.split()[1])),
                         "<", 0.08, **p)
            # within a moderate factor of exact MWM (same stability region)
            rows.add("mean delay", st.mean_delay, "<=",
                     stats["MWM exact"].mean_delay * 3 + 5 if approx else None,
                     **p)
            rows.add("backlog", st.backlog, **p)
    return rows


def e14() -> Rows:
    rows = Rows("E14")
    graphs = [assign_uniform_weights(gnp_random(18, 0.25, seed=s), seed=s)
              for s in range(3)]
    rungs = []
    for k in (1, 2, 3):
        worst, passes = 1.0, 0
        for g in graphs:
            m, used = kopt_mwm(g, k=k)
            worst = min(worst, m.weight() / maximum_matching_weight(g))
            passes = max(passes, used)
        rungs.append(worst)
        p = dict(n=18, algorithm=f"k-opt, k={k}")
        # Lemma 4.2: no improving ≤k augmentation ⟹ a k/(k+1)-MWM
        rows.add("worst ratio", worst, ">=", k / (k + 1) - TOL, **p)
        rows.add("passes", passes, **p)
    worst = 1.0
    for s, g in enumerate(graphs):
        m, _, _ = weighted_mwm(g, eps=0.1, seed=s)
        worst = min(worst, m.weight() / maximum_matching_weight(g))
    rows.add("worst ratio", worst, ">=", 0.4 - TOL, n=18,
             algorithm="Algorithm 5 (1/2−ε)")
    # the ladder is monotone in k on these instances
    rows.add("k=1 worst ratio vs k=2", rungs[0], "<=", rungs[1] + TOL, n=18)
    rows.add("k=2 worst ratio vs k=3", rungs[1], "<=", rungs[2] + TOL, n=18)
    return rows


def _degree_biased_mis(g, seed: int) -> set[int]:
    """ABI-flavored sequential MIS: low degree first, random ties."""
    rng = np.random.default_rng(seed)
    order = sorted(range(g.n), key=lambda v: (g.degree(v), rng.random()))
    mis, blocked = set(), set()
    for v in order:
        if v not in blocked:
            mis.add(v)
            blocked.update(g.neighbors(v))
    return mis


def a1() -> Rows:
    rows = Rows("A1")
    for rule in ("luby", "degree-biased"):
        worst, sizes, rounds, invalid = 1.0, [], [], 0
        for s in range(4):
            g = gnp_random(36, 0.09, seed=s)
            m = Matching(g)
            for ell in (1, 3):
                paths, cg, _ = build_conflict_graph(g, m, ell)
                if not paths:
                    continue
                if rule == "luby":
                    mis, res = luby_mis(cg, seed=s)
                    rounds.append(res.rounds)
                else:
                    mis = _degree_biased_mis(cg, seed=s)
                    rounds.append(0)
                invalid += not verify_mis(cg, mis)
                sizes.append(len(mis))
                m = apply_paths(m, [paths[i] for i in sorted(mis)])
            opt = maximum_matching_size(g)
            if opt:
                worst = min(worst, len(m) / opt)
        p = dict(n=g.n, rule=rule)
        # any MIS gives the (1−1/(k+1)) guarantee at k=2
        rows.add("worst ratio", worst, ">=", 2 / 3 - TOL, **p)
        rows.add("invalid MIS", invalid, "==", 0, **p)
        rows.add("mean |MIS|", sum(sizes) / len(sizes), **p)
        rows.add("max MIS rounds", max(rounds) if rounds else 0, **p)
    return rows


def a2() -> Rows:
    rows = Rows("A2")
    k, cap = 3, 120  # the paper budget is 563 for k=3; capped for runtime
    runs = {}
    for mode, kwargs in [
        ("adaptive", dict(adaptive=True)),
        (f"fixed({cap})", dict(adaptive=False, iterations=cap)),
    ]:
        worst, iters, rounds = 1.0, [], []
        for s in range(3):
            g = gnp_random(36, 0.09, seed=s)
            m, res, outer = general_mcm(g, k=k, seed=400 + s, **kwargs)
            opt = maximum_matching_size(g)
            if opt:
                worst = min(worst, len(m) / opt)
            iters.append(outer)
            rounds.append(res.rounds)
        runs[mode] = (worst, sum(iters) / len(iters), sum(rounds) / len(rounds))
    for mode, (worst, iters, rounds) in runs.items():
        p = dict(n=36, k=k, mode=mode)
        rows.add("worst ratio", worst, ">=", 1 - 1 / k - TOL, **p)
        # the certificate stop uses fewer iterations than the fixed budget
        rows.add("mean iterations", iters, "<",
                 runs[f"fixed({cap})"][1] if mode == "adaptive" else None, **p)
        rows.add("mean rounds", rounds, **p)
    return rows


def _lps_box(g, seed: int, eps: float):
    m, _, used = weighted_mwm(g, eps=eps, delta=0.2, seed=seed)
    return m, used


def a3() -> Rows:
    rows = Rows("A3")
    eps = 0.1
    lps_name = "LPS classes (paper's [18])"
    boxes = [
        (lps_name, 0.2, lambda g, s: _lps_box(g, s, eps)),
        ("Hoepman box", 0.5, lambda g, s: weighted_mwm_reference(
            g, eps=eps, delta=0.5, black_box=lambda h: hoepman_mwm(h)[0])),
        ("greedy box (centralized)", 0.5, lambda g, s: weighted_mwm_reference(
            g, eps=eps, delta=0.5, black_box=greedy_mwm)),
    ]
    used_by = {}
    for name, delta, box in boxes:
        worst, iters = 1.0, 0
        for s in range(3):
            g = assign_uniform_weights(gnp_random(30, 0.15, seed=s), seed=s)
            m, used = box(g, 500 + s)
            worst = min(worst, m.weight() / maximum_matching_weight(g))
            iters = max(iters, used)
        used_by[name] = iters
        p = dict(n=g.n, box=name, delta=delta)
        rows.add("worst ratio", worst, ">=", 0.5 - eps - TOL, **p)
        # a larger δ needs no more iterations than the δ=0.2 box
        rows.add("iterations", iters, "<=",
                 used_by[lps_name] if name == "Hoepman box" else None, **p)
    return rows


def a4() -> Rows:
    rows = Rows("A4")
    for n in (40, 80, 160):
        seq_rounds, int_rounds = [], []
        seq_q, int_q = 1.0, 1.0
        for s in range(3):
            g = assign_uniform_weights(gnp_random(n, 8.0 / n, seed=s), seed=s)
            opt = maximum_matching_weight(g)
            ms, rs = lps_mwm(g, seed=600 + s)
            mi, ri = lps_interleaved_mwm(g, seed=600 + s)
            seq_rounds.append(rs.rounds)
            int_rounds.append(ri.rounds)
            seq_q = min(seq_q, ms.weight() / opt)
            int_q = min(int_q, mi.weight() / opt)
        rows.add("sequential rounds", max(seq_rounds), n=n)
        # interleaving the weight classes buys rounds
        rows.add("interleaved rounds", max(int_rounds), "<", max(seq_rounds),
                 n=n)
        rows.add("sequential worst ratio", seq_q, ">=", 0.25 - TOL, n=n)
        rows.add("interleaved worst ratio", int_q, ">=", 0.25 - TOL, n=n)
    return rows


def f1() -> Rows:
    rows = Rows("F1")
    g, xside, mates, expected = figure1_instance()
    counts, res = count_augmenting_paths(g, xside, mates, ell=3)
    m = Matching(g, [(v, mates[v]) for v in range(g.n) if v < mates[v]])
    paths = find_augmenting_paths_upto(g, m, 3)
    for v in sorted(expected):
        d, n_v, _c, leader = counts[v]
        rows.add("d(v)", d, n=g.n, node=v)
        # Lemma 3.6: the per-node sums are the figure's numbers
        rows.add("n_v", n_v, "==", expected[v], n=g.n, node=v)
        if leader:  # brute-force count of the shortest paths ending here
            rows.add("enumerated paths",
                     sum(1 for p in paths if v in (p[0], p[-1])), n=g.n, node=v)
    rows.add("protocol rounds", res.rounds, n=g.n)
    rows.add("max msg bits", res.max_message_bits, n=g.n)
    return rows


def f2() -> Rows:
    rows = Rows("F2")
    g, m, mprime, expect = figure2_instance()
    wm = derived_weights(g, m)
    w_m = m.weight()
    w_mp = sum(wm[g.edge_id(u, v)] for u, v in mprime)
    w_m2 = apply_wraps(m, mprime).weight()
    for quantity, got, want in zip(["w(M)", "w_M(M')", "w(M'')"],
                                   [w_m, w_mp, w_m2], expect):
        rows.add(quantity, got, "==", want, n=g.n)
    # Lemma 4.1 (strict here: the wraps overlap at a removed M edge)
    rows.add("w(M'') vs w(M) + w_M(M')", w_m2, ">=", w_m + w_mp, n=g.n)
    for u, v in g.edges():
        rows.add("w_M", wm[g.edge_id(u, v)], n=g.n, edge=f"({u},{v})")
    return rows


def s1() -> Rows:
    rows = Rows("S1")
    size, seeds, workers = 24, [0, 1], min(4, os.cpu_count() or 1)
    t_seq, seq = harness.best_of(
        lambda: scenario_matrix(size=size, seeds=seeds, workers=1), 1)
    t_par, par = harness.best_of(
        lambda: scenario_matrix(size=size, seeds=seeds, workers=workers), 1)
    records = [rec for cell in seq for rec in cell.records
               if "skipped" not in rec]
    rows.add("cells", len(seq), size=size)
    rows.add("seconds", t_seq, size=size, workers=1)
    rows.add("seconds", t_par, size=size, workers=workers)
    rows.add("speedup", t_seq / t_par, size=size, workers=workers)
    # the ParallelRunner determinism contract
    rows.add("records identical to 1 worker",
             json.dumps([r.to_dict() for r in seq], sort_keys=True)
             == json.dumps([r.to_dict() for r in par], sort_keys=True),
             "==", True, size=size, workers=workers)
    rows.add("failed records", sum(rec["ok"] != 1.0 for rec in records),
             "==", 0, size=size)
    rows.add("ok records", sum(rec["ok"] == 1.0 for rec in records),
             ">", 0, size=size)
    return rows


#: claim -> (function, banner title, the paper's claim).
CLAIMS = {
    "E1": (e1, "E1 / Theorem 3.1 — generic (1−ε)-MCM, O(ε⁻³ log n) time, "
               "O(|V|+|E|)-bit messages",
           "|M| ≥ (1 − 1/(k+1))·|M*| after phases ℓ=1..2k−1"),
    "E2": (e2, "E2 / Theorem 3.8 — bipartite (1−1/k)-MCM in "
               "O(k³ log Δ + k² log n) time",
           "ratio ≥ 1−1/k; messages O(log Δ) bits after pipelining"),
    "E3": (e3, "E3 / Theorem 3.11 — general (1−1/k)-MCM via random "
               "bipartitions, O(2^{2k} k⁴ log k · log n) time",
           "ratio ≥ 1−1/k w.h.p. within 2^{2k+1}(k+1)·ln k iterations"),
    "E4": (e4, "E4 / Theorem 4.5 — (½−ε)-MWM in O(log ε⁻¹ · log n) time",
           "w(M) ≥ (½−ε)·w(M*) after ⌈(3/2δ)ln(2/ε)⌉ iterations of the "
           "δ-MWM black box on (V, E, w_M)"),
    "E5": (e5, "E5 — paper vs prior work (introduction's comparison)",
           "the paper's (1−1/k)/(½−ε) guarantees strictly dominate the "
           "½ / (¼−ε) baselines"),
    "E6": (e6, "E6 / Lemmas 3.9–3.10 — gap decay of Algorithm 4 (k=3)",
           "E[δ_{i+1}] ≤ (1 − 1/((k+1)2^{2k}))·δ_i; (1−1/k) reached "
           "within 2^{2k+1}(k+1)ln k iterations"),
    "E7": (e7, "E7 / Lemmas 3.4–3.5 — phase invariants of the HK structure",
           "after phase ℓ: shortest augmenting path > ℓ and "
           "|M| ≥ (1−1/(k+1))·|M*| for ℓ=2k−1"),
    "E8": (e8, "E8 — switch scheduling (the paper's motivating application)",
           "better matchings → higher throughput / lower delay at high "
           "load; PIM/iSLIP are II-quality, the paper gives (1−1/k)"),
    "E9": (e9, "E9 — Θ(log n) round growth of the CONGEST algorithms",
           "doubling n adds ~constant rounds (O(log n) time, Thms "
           "3.8/3.11/4.5 and the [15]/[20] baselines)"),
    "E10": (e10, "E10 / Lemmas 4.1 & 4.3 — weight trajectory of Algorithm 5",
            "w(M_i) ≥ ½(1 − (1 − 2δ/3)^i)·w(M*); per-iteration "
            "w(M″) ≥ w(M) + w_M(M′)"),
    "E11": (e11, "E11 — adversarial/structured families (separating ½ "
                 "from 1−1/k)",
            "maximal matchings can stall at ½ (comb); the paper's "
            "(1−1/k) algorithms certify ≥ 3/4 via Lemma 3.5"),
    "E12": (e12, "E12 — deterministic O(log* n) symmetry breaking on rings "
                 "(Section 5's open-problem context)",
            "Cole–Vishkin: rounds essentially flat in n; randomized "
            "Israeli–Itai needs Θ(log n) on the same rings"),
    "E13": (e13, "E13 — occupancy-weighted scheduling (Section 4's MWM in "
                 "the switch)",
            "approximate MWM schedulers track exact MWM; queue-blind "
            "scheduling suffers under bursts"),
    "E14": (e14, "E14 — the remark's quality ladder (Lemma 4.2 fixed points)",
            "no improving ≤k-unmatched-edge augmentation ⟹ "
            "w(M) ≥ k/(k+1)·w(M*)"),
    "A1": (a1, "A1 (ablation) — MIS rule in Algorithm 1 step 5 "
               "(k=2 phase loop)",
           "any MIS gives the (1−1/(k+1)) guarantee; the rule only "
           "shifts constants"),
    "A2": (a2, "A2 (ablation) — Algorithm 4 stopping rule (k=3, paper "
               f"budget {fidelity_iterations(3)} iterations)",
           "adaptive certificate stop preserves the guarantee at a "
           "fraction of the iterations"),
    "A3": (a3, "A3 (ablation) — the δ-MWM black box of Algorithm 5 "
               "(eps=0.1)",
           "any constant-δ box yields (½−ε); δ only changes the "
           "iteration count (3/2δ)·ln(2/ε)"),
    "A4": (a4, "A4 (ablation) — weight-class scheduling in the δ-MWM box",
           "[18] interleaves classes for O(log n); our sequential "
           "variant pays O(log W · log n) — same constant-factor quality"),
    "F1": (f1, "F1 / Figure 1 — BFS counting of augmenting paths "
               "(Algorithm 3)",
           "per-node sums equal the number of shortest augmenting paths "
           "ending there (Lemma 3.6)"),
    "F2": (f2, "F2 / Figure 2 — derived weights w_M and Lemma 4.1",
           "w(M)=14, w_M(M')=10, w(M'')=26 ≥ 14+10"),
    "S1": (s1, "S1 — scenario matrix: sequential vs parallel fan-out",
           "identical records for any worker count; wall clock drops "
           "with cores (cells are independent)"),
}

HEADERS = ["quantity", "params", "n", "measured", "op", "bound", "ok"]


def _params(row: dict[str, Any]) -> str:
    return " ".join(f"{k}={v}" for k, v in row["params"].items())


def run(quick: bool) -> dict[str, Any]:
    return {"quick": quick,
            "rows": [row for fn, _, _ in CLAIMS.values() for row in fn()]}


def gate(data: dict[str, Any]) -> list[str]:
    rows = data["rows"]
    failures = [f"{name}: no rows in this run" for name in CLAIMS
                if not any(r["claim"] == name for r in rows)]
    for r in rows:
        if r["bound"] is not None and not holds(r):
            where = " ".join(filter(None, [r["claim"], r["quantity"],
                                           _params(r)]))
            failures.append(f"{where}: measured {r['measured']} {r['op']} "
                            f"bound {r['bound']}")
    return failures


def show(data: dict[str, Any]) -> None:
    for name, (_, title, claim) in CLAIMS.items():
        print_banner(title, claim)
        print(format_table(HEADERS, [
            [r["quantity"], _params(r)]
            + ["-" if r[h] is None else r[h] for h in HEADERS[2:]]
            for r in data["rows"] if r["claim"] == name
        ]))


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, run, show, gate))
