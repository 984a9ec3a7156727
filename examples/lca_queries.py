"""Point lookups without computing the matching — the LCA serving layer.

Every other example computes a whole matching.  This one answers the
production question: a huge graph, shared seeded randomness, and a
stream of independent queries — "who is vertex v matched to?", "is
edge (u, v) matched?" — each answered by exploring only the tiny
neighborhood the answer depends on (random-greedy LCA, ISSUE 9).

Run with ``PYTHONPATH=src python examples/lca_queries.py``.
"""

import time

import numpy as np

from repro.analysis import crossover_queries, format_table
from repro.graphs import gnp_random
from repro.lca import MatchingService, random_greedy_matching

N, DEG, SEED = 20_000, 8.0, 0
QUERIES = 4000

print(f"building G(n, p) with n={N}, average degree {DEG} ...")
g = gnp_random(N, DEG / (N - 1), seed=SEED)
print(f"  {g.n} vertices, {g.m} edges\n")

# -- serve point queries through the LCA ------------------------------------
svc = MatchingService(g, SEED)
rng = np.random.default_rng(SEED)
vertices = rng.integers(N, size=QUERIES).tolist()

t0 = time.perf_counter()
matched = sum(1 for v in vertices if svc.mate_of(v) != -1)
serve_s = time.perf_counter() - t0

st = svc.stats
print(f"served {st.queries} mate_of queries in {serve_s * 1e3:.0f} ms "
      f"({matched} matched)")
print(format_table(["LCA serving metric", "value"], [
    ["queries/sec", f"{st.queries / serve_s:.0f}"],
    ["mean probes/query", f"{st.mean_probes:.2f}"],
    ["max exploration depth", st.max_depth],
]))

# -- the honest comparison: one full global run -----------------------------
t0 = time.perf_counter()
oracle = random_greedy_matching(g, SEED, method="rounds")
global_s = time.perf_counter() - t0
per_query = serve_s / st.queries
crossover = crossover_queries(global_s, per_query)
print(f"\none global random_greedy_matching run (vectorized rounds): "
      f"{global_s * 1e3:.0f} ms, |M| = {len(oracle)}")
print(f"break-even: one global run buys ~{crossover:.0f} point queries; "
      f"below that the LCA serves strictly cheaper")

# -- consistency: every answer agrees with the global matching --------------
truth = oracle.mate_array()
sample = rng.integers(N, size=2000)
assert all(svc.mate_of(int(v)) == truth[v] for v in sample)
u, v = g.edges()[0]
assert svc.edge_in_matching(u, v) == oracle.is_matched_edge(u, v)
print("\nconsistency vs the global matching on a 2000-vertex sample: OK")
