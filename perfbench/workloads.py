"""The four benchmark workloads: input set-up, one measured pass, checks.

Every workload is a ``setup(size)`` that builds the inputs and a
``run(inputs, size, index, rec)`` that performs
one pass of the workload's operations through ``rec``, the pass
recorder: ``rec.op(name)`` times one operation (certificate checks
included, as a CLI run pays them), ``rec.check`` counts an operation
as attempted and, if its certificate fails, as failed, and
``rec.output`` keeps the exact outputs that must repeat across passes
and match the recorded outputs of the reference commit.

Only entry points that survive the planned deletion of the single-seed
array twins are called: the public ``backend="array"`` wrappers, the
``*_batched`` wrappers, ``ParallelRunner.sweep``, ``MatchingService``,
``random_greedy_matching`` and the ``switch`` CLI command.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time

import numpy as np

from repro import cli
from repro.analysis.runner import ParallelRunner
from repro.baselines import (
    israeli_itai_matching,
    israeli_itai_matching_batched,
    luby_mis,
    luby_mis_batched,
)
from repro.baselines.luby_mis import verify_mis
from repro.core import generic_mcm, weighted_mwm, weighted_mwm_batched
from repro.graphs import assign_uniform_weights, gnp_random
from repro.lca import MatchingService, random_greedy_matching
from repro.matching import certified_ratio_lower_bound, greedy_mwm

#: Algorithm 5's slack; its certificate is weight >= (1/2 - EPS) * greedy.
EPS = 0.1
#: Graphs (and the LCA ranks) are pinned; the input index selects the
#: algorithm seeds, the LCA query stream and the switch traffic, so the
#: graph's size and shape do not vary between runs.
GRAPH_SEED = 0

SIZES = {
    "full": {
        "single_seed": {"n": 200_000, "n_mwm": 50_000, "n_mcm": 2_000},
        "seed_sweep": {"n": 5_000, "seeds": 16},
        "lca_serve": {"n": 1_000_000, "queries": 20_000},
        "switch_sim": {"ports": 32, "slots": 3_000},
    },
    "tiny": {
        "single_seed": {"n": 2_000, "n_mwm": 500, "n_mcm": 200},
        "seed_sweep": {"n": 300, "seeds": 4},
        "lca_serve": {"n": 5_000, "queries": 500},
        "switch_sim": {"ports": 8, "slots": 300},
    },
}


def gnp(n: int, avg_degree: float, seed: int):
    """G(n, p) with the given expected average degree."""
    return gnp_random(n, avg_degree / (n - 1), seed=seed)


def weighted(g, seed: int):
    """Uniform [1, 100] edge weights on ``g``'s topology."""
    return assign_uniform_weights(g, 1.0, 100.0, seed=seed)


def drop_one_edge(m) -> None:
    """Corrupt a matching on purpose: remove its first matched edge."""
    edges = m.edges()
    if edges:
        m.remove(*edges[0])


def run_counts(res) -> list[int]:
    """The exact run counters a later change must reproduce."""
    return [res.total_rounds, res.total_messages, res.total_bits]


# -- single_seed ---------------------------------------------------------


def setup_single_seed(size: dict) -> dict:
    # One graph per algorithm, so each pays for the lazy caches it builds.
    return {
        "ii": gnp(size["n"], 8, GRAPH_SEED),
        "luby": gnp(size["n"], 8, GRAPH_SEED),
        "mwm": weighted(gnp(size["n_mwm"], 8, GRAPH_SEED), GRAPH_SEED),
        "mcm": gnp(size["n_mcm"], 4, GRAPH_SEED),
    }


def run_single_seed(inputs: dict, size: dict, index: int, rec) -> None:
    g = inputs["ii"]
    with rec.op("ii"):
        m, res = israeli_itai_matching(g, seed=index, backend="array")
        if rec.corrupt:
            drop_one_edge(m)
        ok = m.is_maximal()
    rec.check("ii", ok)
    rec.output("ii", [len(m), *run_counts(res)])
    rec.count_run(res)

    g = inputs["luby"]
    with rec.op("luby"):
        mis, res = luby_mis(g, seed=index, backend="array")
        ok = verify_mis(g, mis)
    rec.check("luby", ok)
    rec.output("luby", [len(mis), *run_counts(res)])
    rec.count_run(res)

    g = inputs["mwm"]
    with rec.op("mwm"):
        m, res, its = weighted_mwm(g, eps=EPS, seed=index, backend="array")
        ok = m.weight() >= (0.5 - EPS) * greedy_mwm(g).weight()
    rec.check("mwm", ok)
    rec.output("mwm", [len(m), *run_counts(res), its, m.weight()])
    rec.count_run(res)

    g = inputs["mcm"]
    with rec.op("mcm"):
        m, stats = generic_mcm(
            g, k=2, seed=index, backend="array", keep_views=False
        )
        ok = certified_ratio_lower_bound(g, m, 3) >= 2 / 3 - 1e-12
    conflict_nodes = sum(stats.conflict_sizes.values())
    rec.check("mcm", ok)
    rec.output("mcm", [len(m), *run_counts(stats.result), conflict_nodes])
    rec.count_run(stats.result)
    rec.counts["core.conflict_nodes"] += conflict_nodes


# -- seed_sweep ----------------------------------------------------------


def setup_seed_sweep(size: dict) -> dict:
    g = gnp(size["n"], 8, GRAPH_SEED)
    return {"g": g, "gw": weighted(g, GRAPH_SEED)}


def _sweep_cell(inputs: dict, rec, lanes: list):
    """The batch-aware experiment function of one sweep cell."""

    def cell(seeds: list[int], alg: str) -> list[dict]:
        g, gw = inputs["g"], inputs["gw"]
        records = []
        if alg == "ii":
            for s, (m, res) in enumerate(israeli_itai_matching_batched(g, seeds)):
                if rec.corrupt and s == 0:
                    drop_one_edge(m)
                lanes.append((m.is_maximal(), len(m), res))
        elif alg == "luby":
            for mis, res in luby_mis_batched(g, seeds):
                lanes.append((verify_mis(g, mis), len(mis), res))
        else:
            floor = (0.5 - EPS) * greedy_mwm(gw).weight()
            for m, res, _its in weighted_mwm_batched(gw, seeds, eps=EPS):
                lanes.append((m.weight() >= floor, len(m), res))
        for _ok, card, res in lanes[-len(seeds):]:
            records.append({"size": card, "rounds": res.total_rounds,
                            "messages": res.total_messages,
                            "bits": res.total_bits})
        return records

    return rec.wrap_cell(cell)


def run_seed_sweep(inputs: dict, size: dict, index: int, rec) -> None:
    runner = ParallelRunner(workers=1)
    for alg in ("ii", "luby", "mwm"):
        lanes: list = []
        artifact = os.path.join(rec.out_dir, f"sweep-{alg}.jsonl")
        with rec.op(alg):
            cells = runner.sweep(
                _sweep_cell(inputs, rec, lanes), [{"alg": alg}],
                root_seed=index, seeds_per_cell=size["seeds"],
                seed_batch=size["seeds"], artifact=artifact,
            )
        rec.counts["runner.artifact_bytes"] += os.path.getsize(artifact)
        clean = cells[0].error is None and len(lanes) == size["seeds"]
        for s in range(size["seeds"]):
            name = f"{alg}[{s}]"
            rec.check(name, clean and lanes[s][0])
            if clean:
                rec.output(name, [lanes[s][1], *run_counts(lanes[s][2])])
                rec.count_run(lanes[s][2])


# -- lca_serve -----------------------------------------------------------


def setup_lca_serve(size: dict) -> dict:
    g = gnp(size["n"], 8, GRAPH_SEED)
    return {"g": g, "service": MatchingService(g, GRAPH_SEED)}


def run_lca_serve(inputs: dict, size: dict, index: int, rec) -> None:
    g, service = inputs["g"], inputs["service"]
    # Closed loop, one client: uniform vertices from the query seed.
    stream = np.random.default_rng([index, 1]).integers(0, g.n, size["queries"])
    queries = stream.tolist()
    answers: list[int] = []
    latency: list[float] = []
    mate_of = service.mate_of
    clock = time.perf_counter
    with rec.op("queries"):
        for v in queries:
            t0 = clock()
            answers.append(mate_of(v))
            latency.append(clock() - t0)
    with rec.op("oracle"):
        oracle = random_greedy_matching(g, service.seed, method="rounds")
        wrong = np.flatnonzero(
            oracle.mate_array()[stream] != np.asarray(answers, dtype=np.int64)
        )
    rec.attempt(len(queries))
    for i in wrong.tolist():
        rec.fail(f"query[{i}]")
    # The oracle run is one more operation, checked by its exact output.
    checksum = int(
        (np.asarray(answers, dtype=np.int64) + 1)
        @ np.arange(1, len(answers) + 1, dtype=np.int64)
    )
    rec.attempt(1)
    rec.output("oracle", [len(oracle), checksum])
    lat = np.asarray(latency)
    rec.extra["qps"] = len(queries) / rec.op_s["queries"]
    rec.extra["query_p50_us"] = float(np.percentile(lat, 50)) * 1e6
    rec.extra["query_p99_us"] = float(np.percentile(lat, 99)) * 1e6
    st = service.stats
    rec.counts["lca.probes_per_query"] = st.edges_probed / st.queries
    rec.counts["lca.adjacency_per_query"] = st.adjacency_scanned / st.queries
    rec.counts["lca.max_depth"] = st.max_depth
    rec.counts["lca.cache_hit_rate"] = st.cache_hit_rate


# -- switch_sim ----------------------------------------------------------


def setup_switch_sim(size: dict) -> dict:
    """Cold start of the CLI: a fresh interpreter importing it.

    The switch command builds its own traffic and schedulers from its
    flags, so what a user waits for before the first slot is the import.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c", "import repro.cli, repro.switch"],
        env=env, check=True, timeout=120,
    )
    return {}


def run_switch_sim(inputs: dict, size: dict, index: int, rec) -> None:
    argv = ["switch", "--ports", str(size["ports"]), "--load", "0.9",
            "--slots", str(size["slots"]), "--k", "3", "--seed", str(index)]
    out = io.StringIO()
    with rec.op("switch"), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    # Table rows after the title and the two header lines.
    rows = [line.split() for line in out.getvalue().splitlines()[3:]]
    rows = [[" ".join(r[:-3]), *r[-3:]] for r in rows if len(r) >= 4]
    for name in ("PIM", "iSLIP", "maximal", "paper k=3"):
        row = next((r for r in rows if r[0] == name), None)
        rec.check(name, code == 0 and row is not None)
        rec.output(name, row)


WORKLOADS = {
    "single_seed": (setup_single_seed, run_single_seed),
    "seed_sweep": (setup_seed_sweep, run_seed_sweep),
    "lca_serve": (setup_lca_serve, run_lca_serve),
    "switch_sim": (setup_switch_sim, run_switch_sim),
}
