"""S7 — the million-node scale tier (ISSUE 7).

The scale tier makes n=10^6+ a supported regime: compact int32 CSR
indices and streamed chunked generators (no Python edge lists).  This
bench measures three things:

* **speedup cells** (under ``"cells"``) — byte-identity asserted per
  cell before any time is reported:

  - ``kopt_mwm`` — the ROADMAP-named batched straggler (1.17x in the
    committed s5 run), re-measured after the vectorized
    order-faithful walk enumeration; the before cell is quoted from
    ``benchmarks/results/s5_weighted.json`` so the lift is auditable.
  - ``luby_int32_tier`` — the compact-dtype CSR vs the same graph
    pinned to int64 via :func:`repro.graphs.graph.forced_index_dtype`.

* **scale curves** (under ``"curves"``) — time + peak-RSS vs n for
  Luby MIS and generic MCM (k=1, ``keep_views=False``) on the array
  backend, up to n=10^6 in the committed run.  Each curve cell runs in
  a **fresh subprocess** so ``ru_maxrss`` is the cell's own peak, not
  the bench harness's high-water mark.

* **the ceiling** (under ``"ceiling"`` / ``"largest_graph"``) —
  Luby MIS probes past 10^6 (committed run: up to n=10^7, avg degree
  8) and the documented "largest graph that fits" numbers: the
  largest *measured* run plus the int32-tier structural cap
  (2m <= 2^31-1, i.e. ~1.07e9 edges before index promotion).

Run as a script for the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_s7_scale.py --out s7.json

``--quick`` restricts to the n=240 kopt cell, the n=10^4 dtype cell,
and one n=10^5 curve point per workload; ``--check`` exits 2 if (a)
the kopt array leg is slower than the generator leg, or (b) any curve
cell at n <= 2·10^5 peaked above 1536 MiB — the CI fail-if-slower +
peak-RSS gate.  The committed full run lives at
``benchmarks/results/s7_scale.json``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from typing import Any

import numpy as np

import harness
from repro.analysis import format_table, print_banner

#: The committed-before cell for the kopt straggler, quoted from
#: benchmarks/results/s5_weighted.json at the PR 6 head (c4b02f9) so
#: the before/after pair lives in one artifact.
KOPT_BEFORE = {
    "n": 240,
    "speedup": 1.1732,
    "source": "benchmarks/results/s5_weighted.json (PR 6 head)",
}

#: Average degree for the Luby scale-curve / ceiling random graphs.
CURVE_DEG = 8.0

#: Average degree for the generic-MCM curve.  The depth-2ℓ flood is
#: O(n · d · |ball_2|) = O(n d^3) in records — degree 4 keeps the
#: n=10^6 cell's record universe (~2·10^7 (node, record) pairs) inside
#: a sensible RAM budget while still exercising every scale-tier path.
MCM_DEG = 4.0

#: Structural cap of the compact int32 index tier: indices/eids hold
#: 2m half-edge slots, so promotion to int64 happens past this m.
INT32_EDGE_CAP = (2**31 - 1) // 2

#: Best-of reps per speedup leg: full run, ``--quick``.
REPS, QUICK_REPS = 2, 1

#: ``--check`` fails below this kopt n=240 speedup.
MIN_SPEEDUP = 1.0

#: ``--check`` peak-RSS ceiling for curve cells with n <= RSS_GATE_N;
#: the 10^6+ cells are budgeted by RAM, not by the CI ceiling.
MAX_RSS_MB = 1536.0
RSS_GATE_N = 200_000

#: A curve cell's child process: one payload row as JSON on stdout.
_CHILD = ("import json, sys; from bench_s7_scale import _curve_payload; "
          "print(json.dumps(_curve_payload(json.loads(sys.argv[1]))))")


def _rss_mb() -> float:
    """This process's peak RSS in MiB (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# curve cells — one fresh subprocess per cell so peak RSS is the cell's own


def _curve_payload(spec: dict[str, Any]) -> dict[str, Any]:
    """Runs *inside the child*: build streamed, run, report time + RSS."""
    from repro.graphs.generators import gnp_random

    n = int(spec["n"])
    seed = int(spec.get("seed", 1))
    deg = MCM_DEG if spec["workload"] == "generic_mcm" else CURVE_DEG
    t0 = time.perf_counter()
    g = gnp_random(n, deg / n, seed=seed)
    build_s = time.perf_counter() - t0

    out: dict[str, Any] = {
        "workload": spec["workload"],
        "family": "gnp",
        "n": g.n,
        "m": g.m,
        "avg_deg": deg,
        "index_dtype": str(np.dtype(g.index_dtype)),
        "build_s": build_s,
    }
    if spec["workload"] == "luby_mis":
        from repro.baselines.luby_mis import luby_mis

        t0 = time.perf_counter()
        mis, res = luby_mis(g, seed=seed, backend="array")
        out["run_s"] = time.perf_counter() - t0
        out["rounds"] = res.rounds
        out["mis_size"] = len(mis)
    elif spec["workload"] == "generic_mcm":
        from repro.core.generic_mcm import generic_mcm

        t0 = time.perf_counter()
        m, stats = generic_mcm(g, k=1, seed=seed, backend="array",
                               keep_views=False)
        out["run_s"] = time.perf_counter() - t0
        out["rounds"] = stats.result.rounds
        out["matching_size"] = len(m)
        out["conflict_nodes"] = sum(stats.conflict_sizes.values())
    else:  # pragma: no cover - spec comes from this module
        raise ValueError(f"unknown curve workload {spec['workload']!r}")
    out["total_s"] = out["build_s"] + out["run_s"]
    out["peak_rss_mb"] = _rss_mb()
    return out


def curve_cell(workload: str, n: int, seed: int = 1) -> dict[str, Any]:
    """One scale-curve point, in a fresh child for honest peak RSS."""
    import repro

    spec = {"workload": workload, "n": n, "seed": seed}
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, here] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(spec)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"curve cell {spec} failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    cell = json.loads(proc.stdout.splitlines()[-1])
    cell["rss_isolated"] = True
    return cell


# ---------------------------------------------------------------------------
# speedup cells — identity asserted, then best-of-reps timing


def cell_kopt(n: int, reps: int, k: int = 2) -> dict[str, Any]:
    """The s5 straggler cell re-measured (generator vs array leg)."""
    from repro.core.kopt_mwm import kopt_mwm
    from repro.graphs.generators import gnp_random
    from repro.graphs.weights import assign_uniform_weights

    g = assign_uniform_weights(gnp_random(n, 6.0 / n, seed=0), seed=0)
    g.neighbor_sets()  # warm the shared caches for both legs
    t_gen, r_gen = harness.best_of(lambda: kopt_mwm(g, k=k), reps)
    t_arr, r_arr = harness.best_of(
        lambda: kopt_mwm(g, k=k, backend="array"), reps
    )
    assert r_gen[1] == r_arr[1] and (
        sorted(r_gen[0].edges()) == sorted(r_arr[0].edges())
    ), f"kopt legs diverged at n={n}"
    cell = {
        "workload": "kopt_mwm",
        "family": "gnp",
        "n": g.n,
        "m": g.m,
        "k": k,
        "generator_s": t_gen,
        "array_s": t_arr,
        "speedup": t_gen / t_arr,
        "identical_results": True,
    }
    if n == KOPT_BEFORE["n"]:
        cell["before"] = KOPT_BEFORE
        cell["lift"] = cell["speedup"] / KOPT_BEFORE["speedup"]
    return cell


def cell_dtype(n: int, reps: int, seed: int = 1) -> dict[str, Any]:
    """Compact int32 CSR vs the same graph pinned to int64."""
    from repro.baselines.luby_mis import luby_mis
    from repro.graphs.generators import gnp_random
    from repro.graphs.graph import forced_index_dtype

    def build(dtype):
        if dtype is None:
            return gnp_random(n, CURVE_DEG / n, seed=seed)
        with forced_index_dtype(dtype):
            return gnp_random(n, CURVE_DEG / n, seed=seed)

    def run(g):
        return luby_mis(g, seed=seed, backend="array")[1]

    def csr_bytes(g):
        indptr, indices, eids = g.adjacency_arrays()
        return int(indptr.nbytes + indices.nbytes + eids.nbytes)

    g32, g64 = build(None), build(np.int64)
    assert g32.index_dtype == np.int32, "n too large for the compact tier"
    t32, r32 = harness.best_of(lambda: run(g32), reps)
    t64, r64 = harness.best_of(lambda: run(g64), reps)
    assert r32 == r64, f"dtype tiers diverged at n={n}"
    return {
        "workload": "luby_int32_tier",
        "family": "gnp",
        "n": g32.n,
        "m": g32.m,
        "int64_s": t64,
        "int32_s": t32,
        "speedup": t64 / t32,
        "int64_csr_bytes": csr_bytes(g64),
        "int32_csr_bytes": csr_bytes(g32),
        "csr_bytes_ratio": csr_bytes(g32) / csr_bytes(g64),
        "identical_results": True,
    }


# ---------------------------------------------------------------------------
# the run matrix


def run(quick: bool) -> dict[str, Any]:
    if quick:
        cells = [cell_kopt(240, QUICK_REPS), cell_dtype(10_000, QUICK_REPS)]
        curves = {
            "luby_mis": [curve_cell("luby_mis", 100_000)],
            "generic_mcm": [curve_cell("generic_mcm", 100_000)],
        }
        return {"quick": True, "cells": cells, "curves": curves,
                "ceiling": [], "largest_graph": None}

    cells = [
        cell_kopt(240, REPS),
        cell_kopt(2000, REPS - 1),
        cell_dtype(100_000, REPS),
    ]
    curves = {
        workload: [curve_cell(workload, n)
                   for n in (10_000, 100_000, 300_000, 1_000_000)]
        for workload in ("luby_mis", "generic_mcm")
    }
    ceiling = [curve_cell("luby_mis", n) for n in (3_000_000, 10_000_000)]
    largest = ceiling[-1]
    largest_graph = {
        "measured": {
            "workload": largest["workload"],
            "n": largest["n"],
            "m": largest["m"],
            "index_dtype": largest["index_dtype"],
            "total_s": largest["total_s"],
            "peak_rss_mb": largest["peak_rss_mb"],
        },
        "int32_tier_edge_cap": INT32_EDGE_CAP,
        "note": "int32 indices/eids hold 2m half-edges, so the compact "
                "tier promotes to int64 past ~1.07e9 edges; the measured "
                "ceiling above is time-bounded, not memory-bounded "
                "(peak RSS well under this host's RAM).",
    }
    return {"quick": False, "cells": cells, "curves": curves,
            "ceiling": ceiling, "largest_graph": largest_graph}


def gate(data: dict[str, Any]) -> list[str]:
    speedup = harness.find_cell(
        data, workload="kopt_mwm", n=KOPT_BEFORE["n"]
    )["speedup"]
    failures = []
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"kopt array leg below {MIN_SPEEDUP:.2f}x ({speedup:.2f}x)"
        )
    for cells in data["curves"].values():
        for c in cells:
            if c["n"] <= RSS_GATE_N and c["peak_rss_mb"] > MAX_RSS_MB:
                failures.append(
                    f"{c['workload']} n={c['n']}: "
                    f"{c['peak_rss_mb']:.0f} MiB > {MAX_RSS_MB:.0f} MiB"
                )
    return failures


def show(data: dict[str, Any]) -> None:
    print_banner(
        "S7 — the million-node scale tier",
        "identity asserted per speedup cell; curves are array-backend only",
    )
    rows = []
    for c in data["cells"]:
        before = c.get("before", {}).get("speedup")
        rows.append([
            c["workload"], c["n"], c["m"],
            before if before is not None else "-",
            c["speedup"],
        ])
    print(format_table(
        ["cell", "n", "m", "before x", "speedup"], rows))
    for name, cells in data["curves"].items():
        deg = cells[0]["avg_deg"] if cells else CURVE_DEG
        print(f"\n{name} scale curve (array backend, gnp deg {deg}):")
        print(format_table(
            ["n", "m", "dtype", "build s", "run s", "total s", "peak MiB"],
            [[c["n"], c["m"], c["index_dtype"], c["build_s"], c["run_s"],
              c["total_s"], c["peak_rss_mb"]] for c in cells],
        ))
    if data["ceiling"]:
        print("\nceiling probes (Luby MIS past 10^6):")
        print(format_table(
            ["n", "m", "dtype", "total s", "peak MiB"],
            [[c["n"], c["m"], c["index_dtype"], c["total_s"],
              c["peak_rss_mb"]] for c in data["ceiling"]],
        ))
    lg = data.get("largest_graph")
    if lg:
        meas = lg["measured"]
        print(f"\nlargest graph measured: n={meas['n']:,} m={meas['m']:,} "
              f"({meas['index_dtype']}) in {meas['total_s']:.1f}s, "
              f"peak {meas['peak_rss_mb']:.0f} MiB; int32 tier caps at "
              f"m={lg['int32_tier_edge_cap']:,} edges")
    kc = next(c for c in data["cells"] if c["workload"] == "kopt_mwm")
    if "lift" in kc:
        print(f"kopt straggler: {kc['before']['speedup']:.2f}x -> "
              f"{kc['speedup']:.2f}x ({kc['lift']:.1f}x lift)")


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, run, show, gate))
