"""Scenario matrix: every core algorithm × every generator family.

The paper's theorems are "for all graphs" statements; this module
pins the experiment surface to a named catalog of graph families (the
classical random models plus the scale-free / small-world / heavy-tail
/ Kronecker / adversarial families) and runs each core algorithm on
each, checking the returned matching is valid and meets its paper
bound against the exact oracles.

Every algorithm with an array program runs it; the tests pin each
byte-identical to the generator reference.  Everything here is
module-level and picklable on purpose, so the matrix can be fanned out
by :class:`repro.analysis.runner.ParallelRunner`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.analysis.runner import ExperimentResult, ParallelRunner
from repro.analysis.tables import format_table
from repro.baselines.lps_mwm import lps_mwm
from repro.core import (
    bipartite_mcm,
    general_mcm,
    generic_mcm,
    kopt_mwm,
    weighted_mwm,
)
from repro.graphs import (
    Graph,
    barabasi_albert,
    bipartite_random,
    comb_graph,
    crown_graph,
    gnp_random,
    kronecker,
    lollipop_graph,
    planted_matching,
    powerlaw_configuration,
    random_tree,
    watts_strogatz,
)
from repro.graphs.weights import assign_uniform_weights
from repro.matching import (
    Matching,
    hopcroft_karp,
    maximum_matching_size,
    maximum_matching_weight,
)


def _s_gnp(size: int, seed: int) -> Graph:
    return gnp_random(size, min(1.0, 3.0 / size), seed=seed)


def _s_bipartite(size: int, seed: int) -> Graph:
    half = max(2, size // 2)
    return bipartite_random(half, half, min(1.0, 3.0 / half), seed=seed)[0]


def _s_tree(size: int, seed: int) -> Graph:
    return random_tree(size, seed=seed)


def _s_barabasi_albert(size: int, seed: int) -> Graph:
    return barabasi_albert(size, 2, seed=seed)


def _s_watts_strogatz(size: int, seed: int) -> Graph:
    return watts_strogatz(size, 4, 0.2, seed=seed)


def _s_powerlaw(size: int, seed: int) -> Graph:
    return powerlaw_configuration(size, 2.5, seed=seed)


def _s_kronecker(size: int, seed: int) -> Graph:
    power = max(2, min(6, (size - 1).bit_length()))
    return kronecker(power, seed=seed)


def _s_planted_matching(size: int, seed: int) -> Graph:
    n = size + (size % 2)
    return planted_matching(n, 2.0 / n, seed=seed)[0]


def _s_lollipop(size: int, seed: int) -> Graph:
    clique = max(4, size // 3)
    return lollipop_graph(clique, max(1, size - clique))


def _s_crown(size: int, seed: int) -> Graph:
    return crown_graph(max(3, size // 2))[0]


def _s_comb(size: int, seed: int) -> Graph:
    return comb_graph(max(2, size // 2))


#: name -> builder(size, seed) -> Graph.  Sizes are a *scale*, not an
#: exact vertex count (Kronecker rounds to a power of its initiator).
SCENARIOS: dict[str, Callable[[int, int], Graph]] = {
    "gnp": _s_gnp,
    "bipartite": _s_bipartite,
    "tree": _s_tree,
    "barabasi_albert": _s_barabasi_albert,
    "watts_strogatz": _s_watts_strogatz,
    "powerlaw_config": _s_powerlaw,
    "kronecker": _s_kronecker,
    "planted_matching": _s_planted_matching,
    "lollipop": _s_lollipop,
    "crown": _s_crown,
    "comb": _s_comb,
}

#: algorithm name -> (1 − 1/k)- or (½ − ε)-style guarantee it must meet.
ALGORITHMS: dict[str, float] = {
    "generic_mcm": 1.0 - 1.0 / 3.0,   # Thm 3.1 with k=2: 1 − 1/(k+1)
    "bipartite_mcm": 1.0 - 1.0 / 3.0,  # Thm 3.8 with k=3
    "general_mcm": 1.0 - 1.0 / 3.0,    # Thm 3.11 with k=3
    "weighted_mwm": 0.5 - 0.1,         # Thm 4.5 with ε=0.1
    "lps_mwm": 0.25,                   # the [18] black box: ¼-MWM
    "kopt_mwm": 1.0 - 1.0 / 3.0,       # Lemma 4.2 with k=2: k/(k+1)
}

def build_scenario(name: str, size: int, seed: int) -> Graph:
    """Instantiate a catalog family at the given scale and seed."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; pick from {sorted(SCENARIOS)}"
        ) from None
    if size < 8:
        raise ValueError(
            f"scenario scale must be >= 8 (watts_strogatz needs n > 4, "
            f"barabasi_albert n > 3), got {size}"
        )
    return builder(size, seed)


def _check_matching(g: Graph, m: Matching) -> None:
    mates: dict[int, int] = {}
    for u, v in m.edges():
        if not g.has_edge(u, v):
            raise AssertionError(f"matched pair ({u},{v}) is not an edge")
        if u in mates or v in mates:
            raise AssertionError(f"vertex reused by matched edge ({u},{v})")
        mates[u] = v
        mates[v] = u


def run_scenario_cell(
    scenario: str, algo: str, size: int = 20, seed: int = 0
) -> dict[str, float]:
    """One matrix cell: build the graph, run the algorithm, check bounds.

    Returns ``value`` (matching size/weight), ``opt`` (exact oracle),
    ``ratio``, the paper ``bound`` for the cell's parameters, and
    ``ok`` = 1.0 iff the matching is valid and meets the bound.  Cells
    where the algorithm does not apply (bipartite_mcm on an odd cycle)
    report ``skipped`` = 1.0 instead.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; pick from {sorted(ALGORITHMS)}")
    g = build_scenario(scenario, size, seed)
    bound = ALGORITHMS[algo]
    if algo == "bipartite_mcm":
        part = g.bipartition()
        if part is None:
            return {"skipped": 1.0}
        m, _ = bipartite_mcm(g, k=3, xs=part[0], seed=seed)
        value, opt = float(len(m)), float(len(hopcroft_karp(g, part[0])))
    elif algo == "generic_mcm":
        m, _ = generic_mcm(g, k=2, seed=seed, backend="array", keep_views=False)
        value, opt = float(len(m)), float(maximum_matching_size(g))
    elif algo == "general_mcm":
        m, _, _ = general_mcm(g, k=3, seed=seed)
        value, opt = float(len(m)), float(maximum_matching_size(g))
    elif algo == "lps_mwm":
        gw = assign_uniform_weights(g, seed=seed)
        m, _ = lps_mwm(gw, seed=seed, backend="array")
        value, opt = m.weight(), maximum_matching_weight(gw)
        g = gw
    elif algo == "kopt_mwm":
        gw = assign_uniform_weights(g, seed=seed)
        m, _ = kopt_mwm(gw, k=2, backend="array")
        value, opt = m.weight(), maximum_matching_weight(gw)
        g = gw
    else:  # weighted_mwm
        gw = assign_uniform_weights(g, seed=seed)
        m, _, _ = weighted_mwm(gw, eps=0.1, seed=seed, backend="array")
        value, opt = m.weight(), maximum_matching_weight(gw)
        g = gw
    _check_matching(g, m)
    ratio = value / opt if opt > 0 else 1.0
    return {
        "value": value,
        "opt": opt,
        "ratio": ratio,
        "bound": bound,
        "ok": 1.0 if ratio >= bound - 1e-9 else 0.0,
    }


def scenario_matrix(
    scenarios: Iterable[str] | None = None,
    algos: Iterable[str] | None = None,
    size: int = 20,
    seeds: Iterable[int] | None = None,
    workers: int = 1,
    artifact: str | None = None,
    max_retries: int = 0,
    timeout: float | None = None,
    resume: bool = False,
) -> list[ExperimentResult]:
    """Run the full scenario × algorithm matrix via :class:`ParallelRunner`.

    Each (scenario, algorithm) pair is one sweep cell; with
    ``seeds=None`` the cells draw independent ``SeedSequence``-spawned
    seeds, so the matrix is deterministic for any worker count.

    Crash-safety knobs pass straight through to the runner: a failed
    cell comes back with ``.error`` set instead of aborting the matrix,
    ``max_retries``/``timeout`` govern re-runs, and ``resume=True``
    skips cells already present (error-free) in ``artifact``.
    """
    scenarios = list(SCENARIOS) if scenarios is None else list(scenarios)
    algos = list(ALGORITHMS) if algos is None else list(algos)
    points = [
        {"scenario": s, "algo": a, "size": size} for s in scenarios for a in algos
    ]
    runner = ParallelRunner(
        workers=workers, max_retries=max_retries, timeout=timeout
    )
    return runner.sweep(
        run_scenario_cell,
        points,
        seeds=list(seeds) if seeds is not None else None,
        artifact=artifact,
        resume=resume,
    )


def scenario_table(results: Sequence[ExperimentResult]) -> str:
    """Render matrix results as the benchmark-style fixed-width table."""
    rows: list[list[Any]] = []
    for cell in results:
        p = cell.params
        recs = [r for r in cell.records if "skipped" not in r]
        if not recs:
            rows.append([p["scenario"], p["algo"], "-", "-", "-", "n/a"])
            continue
        ratios = [r["ratio"] for r in recs]
        rows.append(
            [
                p["scenario"],
                p["algo"],
                sum(ratios) / len(ratios),
                min(ratios),
                recs[0]["bound"],
                "yes" if all(r["ok"] == 1.0 for r in recs) else "NO",
            ]
        )
    return format_table(
        ["scenario", "algorithm", "mean ratio", "min ratio", "bound", "meets"], rows
    )
