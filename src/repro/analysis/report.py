"""One-command reproduction report.

``generate_report()`` runs a compact version of the whole experiment
suite (every algorithm × a shared graph suite, all measured against
exact oracles) and renders a Markdown report — the artifact a referee
would skim.  Exposed as ``python -m repro report``.

This intentionally duplicates *none* of the benchmark logic: benches
assert individual paper claims with their own workloads; the report is
a cross-cutting quality/cost snapshot on one shared suite.  Every
algorithm with an array program runs it; the rest run on the generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.tables import format_table
from repro.baselines import (
    hoepman_mwm,
    israeli_itai_matching,
    lps_mwm,
)
from repro.baselines.lps_interleaved import lps_interleaved_mwm
from repro.core import bipartite_mcm, general_mcm, weighted_mwm
from repro.graphs import bipartite_random, comb_graph, gnp_random, random_tree
from repro.graphs.weights import assign_uniform_weights
from repro.matching import (
    greedy_mwm,
    maximum_matching_size,
    maximum_matching_weight,
)


@dataclass
class ReportRow:
    """One (algorithm, instance) measurement."""

    algorithm: str
    guarantee: str
    instance: str
    ratio: float
    rounds: int
    max_bits: int


def _unweighted_suite(seed: int):
    g1, xs, _ = bipartite_random(30, 30, 0.1, seed=seed)
    g2 = gnp_random(50, 0.06, seed=seed)
    g3 = comb_graph(10)
    g4 = random_tree(40, seed=seed)
    return [
        ("bip(30+30)", g1, xs),
        ("gnp(50)", g2, None),
        ("comb(10)", g3, None),
        ("tree(40)", g4, None),
    ]


def collect_unweighted(seed: int = 0) -> list[ReportRow]:
    """Cardinality algorithms over the shared suite."""
    rows: list[ReportRow] = []
    for name, g, xs in _unweighted_suite(seed):
        opt = maximum_matching_size(g)
        if opt == 0:
            continue
        m, res = israeli_itai_matching(g, seed=seed, backend="array")
        rows.append(ReportRow(
            "Israeli-Itai [15]", "1/2", name, len(m) / opt,
            res.rounds, res.max_message_bits,
        ))
        if xs is not None or g.is_bipartite():
            m, res = bipartite_mcm(g, k=3, xs=xs, seed=seed)
            rows.append(ReportRow(
                "bipartite_mcm (Thm 3.8)", "2/3", name, len(m) / opt,
                res.rounds, res.max_message_bits,
            ))
        m, res, _ = general_mcm(g, k=3, seed=seed)
        rows.append(ReportRow(
            "general_mcm (Thm 3.11)", "2/3", name, len(m) / opt,
            res.rounds, res.max_message_bits,
        ))
    return rows


def collect_weighted(seed: int = 0) -> list[ReportRow]:
    """Weighted algorithms over a shared weighted suite."""
    rows: list[ReportRow] = []
    for name, g in [
        ("w-gnp(40)", assign_uniform_weights(gnp_random(40, 0.1, seed=seed), seed=seed)),
        ("w-gnp(60)", assign_uniform_weights(gnp_random(60, 0.07, seed=seed), seed=seed)),
    ]:
        opt = maximum_matching_weight(g)
        gm = greedy_mwm(g)
        rows.append(ReportRow("greedy (seq)", "1/2", name, gm.weight() / opt, 0, 0))
        m, res = hoepman_mwm(g)
        rows.append(ReportRow(
            "Hoepman [11]", "1/2", name, m.weight() / opt,
            res.rounds, res.max_message_bits,
        ))
        m, res = lps_mwm(g, seed=seed, backend="array")
        rows.append(ReportRow(
            "LPS classes [18]", "1/4-eps", name, m.weight() / opt,
            res.rounds, res.max_message_bits,
        ))
        m, res = lps_interleaved_mwm(g, seed=seed, backend="array")
        rows.append(ReportRow(
            "LPS interleaved", "~1/4", name, m.weight() / opt,
            res.rounds, res.max_message_bits,
        ))
        m, res, _ = weighted_mwm(
            g, eps=0.1, seed=seed, box="interleaved", backend="array"
        )
        rows.append(ReportRow(
            "weighted_mwm (Thm 4.5)", "1/2-eps", name, m.weight() / opt,
            res.rounds, res.max_message_bits,
        ))
    return rows


def render_markdown(
    unweighted: list[ReportRow], weighted: list[ReportRow], seed: int
) -> str:
    """The report body."""

    def table(rows: list[ReportRow]) -> str:
        return format_table(
            ["algorithm", "guarantee", "instance", "ratio", "rounds", "max bits"],
            [
                [r.algorithm, r.guarantee, r.instance, r.ratio, r.rounds, r.max_bits]
                for r in rows
            ],
        )

    parts = [
        "# Reproduction snapshot",
        "",
        "Lotker, Patt-Shamir & Pettie, *Improved Distributed Approximate "
        "Matching* (SPAA 2008).",
        f"Seed {seed}; every ratio is measured against an exact oracle.",
        "",
        "## Unweighted (vs |M*|)",
        "",
        "```",
        table(unweighted),
        "```",
        "",
        "## Weighted (vs w(M*))",
        "",
        "```",
        table(weighted),
        "```",
        "",
        "Full claim-by-claim evidence: `PYTHONPATH=src python "
        "benchmarks/bench_claims.py --check` runs and gates every paper "
        "claim (committed run: `benchmarks/results/claims.json`); the "
        "subsystem perf benches run the same way, e.g. `PYTHONPATH=src "
        "python benchmarks/bench_s3_backends.py --quick --check` "
        "(likewise `bench_s4`–`bench_s10`).",
        "",
    ]
    return "\n".join(parts)


def generate_report(path: str | Path | None = None, seed: int = 0) -> str:
    """Run the snapshot suite; optionally write Markdown to ``path``."""
    md = render_markdown(collect_unweighted(seed), collect_weighted(seed), seed)
    if path is not None:
        Path(path).write_text(md)
    return md
