"""ParallelRunner: determinism across worker counts, artifacts, 1-worker path.

The cell functions live at module level because the >1-worker path
pickles them into the pool.
"""

import json

import pytest

from repro.analysis import (
    ExperimentResult,
    ParallelRunner,
    cell_seeds,
    load_artifact,
)


def measure(seed: int) -> dict[str, float]:
    return {"seed": float(seed), "sq": float(seed * seed)}


def measure_point(seed: int, n: int, scale: float = 1.0) -> dict[str, float]:
    return {"v": scale * (n + seed), "seed": float(seed)}


POINTS = [{"n": 10}, {"n": 20}, {"n": 30}, {"n": 40},
          {"n": 50}, {"n": 60}, {"n": 70}, {"n": 80}]


def _dump(results):
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


class TestCommonParams:
    def test_common_merged_into_every_point_and_params(self):
        res = ParallelRunner(workers=1).sweep(
            measure_point, POINTS[:3], seeds=[1], common={"scale": 2.0}
        )
        assert all(cell.params == {"scale": 2.0, "n": p["n"]}
                   for cell, p in zip(res, POINTS))
        assert [cell.records[0]["v"] for cell in res] == [22.0, 42.0, 62.0]

    def test_point_wins_over_common(self):
        res = ParallelRunner(workers=1).sweep(
            measure_point,
            [{"n": 10, "scale": 3.0}],
            seeds=[0],
            common={"scale": 2.0},
        )
        assert res[0].params["scale"] == 3.0
        assert res[0].records[0]["v"] == 30.0

    def test_common_identical_across_worker_counts(self, parallel_workers):
        one = ParallelRunner(workers=1).sweep(
            measure_point, POINTS, seeds=[1, 2], common={"scale": 0.5}
        )
        many = ParallelRunner(workers=parallel_workers).sweep(
            measure_point, POINTS, seeds=[1, 2], common={"scale": 0.5}
        )
        assert _dump(one) == _dump(many)


class TestDeterminism:
    def test_sweep_1_vs_n_workers_byte_identical(self, parallel_workers):
        """The acceptance bar: >= 8 cells, identical records either way."""
        one = ParallelRunner(workers=1).sweep(measure_point, POINTS, seeds=[1, 2, 3])
        many = ParallelRunner(workers=parallel_workers).sweep(
            measure_point, POINTS, seeds=[1, 2, 3]
        )
        assert _dump(one) == _dump(many)

    def test_spawned_seeds_identical_across_worker_counts(self, parallel_workers):
        one = ParallelRunner(workers=1).sweep(
            measure_point, POINTS, root_seed=42, seeds_per_cell=2
        )
        many = ParallelRunner(workers=parallel_workers).sweep(
            measure_point, POINTS, root_seed=42, seeds_per_cell=2
        )
        assert _dump(one) == _dump(many)

    def test_repeat_1_vs_n_workers(self, parallel_workers):
        one = ParallelRunner(workers=1).repeat(measure, range(8))
        many = ParallelRunner(workers=parallel_workers).repeat(measure, range(8))
        assert _dump([one]) == _dump([many])

    def test_cells_keep_submission_order(self, parallel_workers):
        res = ParallelRunner(workers=parallel_workers).sweep(
            measure_point, POINTS, seeds=[0]
        )
        assert [r.params["n"] for r in res] == [p["n"] for p in POINTS]

    def test_cell_seeds_deterministic_and_distinct(self):
        a = cell_seeds(7, 5, 3)
        b = cell_seeds(7, 5, 3)
        assert a == b
        assert len({tuple(s) for s in a}) == 5  # independent per-cell streams
        assert cell_seeds(8, 5, 3) != a


class TestArtifacts:
    def test_streamed_artifact_round_trips(self, tmp_path, parallel_workers):
        path = tmp_path / "sweep.jsonl"
        res = ParallelRunner(workers=parallel_workers).sweep(
            measure_point, POINTS, seeds=[4, 5], artifact=str(path)
        )
        loaded = load_artifact(path)
        assert _dump(loaded) == _dump(res)
        # One row per cell plus the trailing _summary row.
        assert len(path.read_text().splitlines()) == len(POINTS) + 1

    def test_artifact_identical_for_any_worker_count(self, tmp_path, parallel_workers):
        p1 = tmp_path / "w1.jsonl"
        pn = tmp_path / "wn.jsonl"
        ParallelRunner(workers=1).sweep(measure_point, POINTS, seeds=[1], artifact=p1)
        ParallelRunner(workers=parallel_workers).sweep(
            measure_point, POINTS, seeds=[1], artifact=pn
        )
        assert p1.read_bytes() == pn.read_bytes()


class TestCompatibilityWrappers:
    def test_repeat_matches_direct_loop(self):
        """The 1-worker path must reproduce the seed-state behavior the
        golden tests (tests/test_golden.py) pin down: fn called once per
        seed, in order, records appended verbatim."""
        res = ParallelRunner(workers=1).repeat(measure, seeds=range(5))
        assert res.records == [measure(s) for s in range(5)]
        assert res.params == {}

    def test_sweep_matches_direct_loops(self):
        res = ParallelRunner(workers=1).sweep(
            measure_point, points=[{"n": 10}, {"n": 20}], seeds=[1, 2]
        )
        assert [r.params for r in res] == [{"n": 10}, {"n": 20}]
        assert res[0].records == [measure_point(seed=s, n=10) for s in (1, 2)]
        assert res[1].records == [measure_point(seed=s, n=20) for s in (1, 2)]

    def test_wrappers_accept_lambdas(self):
        # The 1-worker path must not pickle.
        res = ParallelRunner(workers=1).repeat(
            lambda s: {"x": float(s)}, seeds=range(3)
        )
        assert res.column("x") == [0.0, 1.0, 2.0]


class TestExperimentResult:
    def test_mean_on_empty_records_raises_value_error(self):
        res = ExperimentResult({"n": 10})
        with pytest.raises(ValueError, match="no records"):
            res.mean("ratio")

    def test_mean_error_names_the_cell(self):
        res = ExperimentResult({"n": 10, "p": 0.5})
        with pytest.raises(ValueError, match="'n': 10"):
            res.mean("ratio")

    def test_round_trip(self):
        res = ExperimentResult({"n": 3}, [{"x": 1.0}, {"x": 2.0}])
        assert ExperimentResult.from_dict(res.to_dict()) == res

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=0)
