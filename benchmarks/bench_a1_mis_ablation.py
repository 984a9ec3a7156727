"""A1 (ablation) — the MIS rule inside Algorithm 1.

The paper allows either Luby's random-priority MIS [20] or ABI [1] in
step 5, so the choice is a design decision of the reproduction.  We
compare the random-priority rule against a degree-weighted variant
(priority biased toward low-conflict paths — ABI-flavored) on the same
conflict graphs: quality of the resulting matching, MIS rounds, and
selected-set size.  Expected shape: both meet the (1−1/(k+1))
guarantee; the degree-biased rule may select slightly larger
independent sets but does not change the approximation class.
"""

import numpy as np

from repro.analysis import format_table, print_banner
from repro.baselines.luby_mis import luby_mis, verify_mis
from repro.core.conflict_graph import build_conflict_graph
from repro.graphs import gnp_random
from repro.matching import Matching, apply_paths, maximum_matching_size

from conftest import once

SEEDS = range(4)


def degree_biased_mis(g, seed):
    """ABI-flavored sequential MIS: low degree first, random ties."""
    rng = np.random.default_rng(seed)
    order = sorted(range(g.n), key=lambda v: (g.degree(v), rng.random()))
    mis, blocked = set(), set()
    for v in order:
        if v not in blocked:
            mis.add(v)
            blocked.update(g.neighbors(v))
    return mis


def run_a1():
    rows = []
    for rule in ("luby", "degree-biased"):
        worst, sizes, rounds = 1.0, [], []
        for s in SEEDS:
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
                    mis = degree_biased_mis(cg, seed=s)
                    rounds.append(0)
                assert verify_mis(cg, mis)
                sizes.append(len(mis))
                m = apply_paths(m, [paths[i] for i in sorted(mis)])
            opt = maximum_matching_size(g)
            if opt:
                worst = min(worst, len(m) / opt)
        rows.append(
            [rule, worst, sum(sizes) / len(sizes),
             max(rounds) if rounds else 0]
        )
    return rows


def test_mis_ablation(benchmark, report):
    rows = once(benchmark, run_a1)

    def show():
        print_banner(
            "A1 (ablation) — MIS rule in Algorithm 1 step 5 "
            "(k=2 phase loop)",
            "any MIS gives the (1−1/(k+1)) guarantee; the rule only "
            "shifts constants",
        )
        print(format_table(
            ["MIS rule", "worst ratio", "mean |MIS|", "max MIS rounds"],
            rows,
        ))

    report(show)
    for _rule, worst, *_ in rows:
        assert worst >= 2 / 3 - 1e-9
