"""Seed-batch routing: chunked dispatch == per-seed dispatch, record-wise.

``ParallelRunner.repeat/sweep(seed_batch=k)`` hands whole seed chunks
to a batch-aware experiment fn (one process-level task per chunk).  A
correct batched fn yields records identical to the classic per-seed
mode for any chunk size and worker count — which these tests assert
with plain arithmetic fns and with a genuinely batched workload
(:func:`luby_mis_batched` on a fixed graph).

The cell functions live at module level because the >1-worker path
pickles them into the pool.
"""

import json

import pytest

from repro.analysis import ParallelRunner
from repro.baselines.luby_mis import luby_mis_batched
from repro.graphs import barabasi_albert


def measure(seed: int) -> dict[str, float]:
    return {"seed": float(seed), "sq": float(seed * seed)}


def measure_batch(seeds) -> list[dict[str, float]]:
    return [measure(s) for s in seeds]


def measure_point(seed: int, n: int) -> dict[str, float]:
    return {"v": float(n + seed), "seed": float(seed)}


def measure_point_batch(seeds, n: int) -> list[dict[str, float]]:
    return [measure_point(s, n) for s in seeds]


def bad_batch(seeds) -> list[dict[str, float]]:
    return [measure(s) for s in seeds[:-1]]  # drops a record


def luby_cell(seed: int, n: int) -> dict[str, float]:
    g = barabasi_albert(n, 3, seed=0)  # fixed graph: the batchable case
    from repro.baselines.luby_mis import luby_mis

    mis, res = luby_mis(g, seed=seed)
    return {"mis": float(len(mis)), "rounds": float(res.rounds)}


def luby_cell_batch(seeds, n: int) -> list[dict[str, float]]:
    g = barabasi_albert(n, 3, seed=0)
    return [
        {"mis": float(len(mis)), "rounds": float(res.rounds)}
        for mis, res in luby_mis_batched(g, seeds)
    ]


POINTS = [{"n": 10}, {"n": 20}, {"n": 30}]


def _dump(results):
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


class TestRepeatSeedBatch:
    @pytest.mark.parametrize("batch", [1, 2, 3, 7, 100])
    def test_records_identical_to_per_seed_mode(self, batch):
        runner = ParallelRunner(workers=1)
        plain = runner.repeat(measure, range(7))
        batched = runner.repeat(measure_batch, range(7), seed_batch=batch)
        assert plain.records == batched.records

    def test_parallel_workers_identical(self):
        one = ParallelRunner(workers=1).repeat(
            measure_batch, range(10), seed_batch=3
        )
        many = ParallelRunner(workers=3).repeat(
            measure_batch, range(10), seed_batch=3
        )
        assert one.records == many.records

    def test_wrong_record_count_raises(self):
        with pytest.raises(ValueError, match="record"):
            ParallelRunner(workers=1).repeat(bad_batch, range(4), seed_batch=4)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="seed_batch"):
            ParallelRunner(workers=1).repeat(measure_batch, range(4), seed_batch=0)


class TestSweepSeedBatch:
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_records_identical_to_per_seed_mode(self, batch):
        runner = ParallelRunner(workers=1)
        plain = runner.sweep(measure_point, POINTS, seeds=[1, 2, 3, 4])
        batched = runner.sweep(
            measure_point_batch, POINTS, seeds=[1, 2, 3, 4], seed_batch=batch
        )
        assert _dump(plain) == _dump(batched)

    def test_spawned_seeds_and_workers(self):
        one = ParallelRunner(workers=1).sweep(
            measure_point_batch, POINTS, root_seed=5, seeds_per_cell=4,
            seed_batch=2,
        )
        many = ParallelRunner(workers=2).sweep(
            measure_point_batch, POINTS, root_seed=5, seeds_per_cell=4,
            seed_batch=2,
        )
        plain = ParallelRunner(workers=1).sweep(
            measure_point, POINTS, root_seed=5, seeds_per_cell=4
        )
        assert _dump(one) == _dump(many) == _dump(plain)

    def test_genuinely_batched_workload(self):
        # A fixed-graph cell executes its chunk as ONE batched array
        # run; records must equal the per-seed generator-backend runs.
        runner = ParallelRunner(workers=1)
        plain = runner.sweep(luby_cell, [{"n": 30}], seeds=[0, 1, 2, 3])
        batched = runner.sweep(
            luby_cell_batch, [{"n": 30}], seeds=[0, 1, 2, 3], seed_batch=4
        )
        assert _dump(plain) == _dump(batched)
