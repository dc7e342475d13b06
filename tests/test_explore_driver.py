"""The explore() driver: grid, determinism across workers, verification."""

import copy
import dataclasses
import json

import pytest

from repro.core.engine import SynthesisEngine
from repro.core.search import SearchConfig
from repro.errors import ExperimentError
from repro.explore import (
    ExploreJob,
    engine_for_benchmark,
    explore,
    make_jobs,
    verify_frontier,
)
from repro.explore import driver
from repro.explore.pareto import dominates
from repro.hdl import emit_verilog, lower_architecture

TINY = SearchConfig(max_depth=2, max_candidates=5, max_iterations=2)
GRID = dict(laxities=(1.0, 2.0), objectives=("area", "power"))


@pytest.fixture(scope="module")
def loops_result():
    return explore("loops", n_passes=6, search=TINY, **GRID)


@pytest.fixture(scope="module")
def loops_stolen():
    return explore("loops", steal=3, n_passes=6, search=TINY, **GRID)


class TestJobGrid:
    def test_canonical_order_and_indices(self):
        jobs = make_jobs(objectives=("area", "power"), laxities=(1.0, 2.0),
                         seeds=(0, 1))
        assert [j.index for j in jobs] == list(range(8))
        # laxity is the outer loop, then objective, then seed.
        assert (jobs[0].laxity, jobs[0].objective, jobs[0].seed) == (1.0, "area", 0)
        assert (jobs[1].laxity, jobs[1].objective, jobs[1].seed) == (1.0, "area", 1)
        assert (jobs[2].objective, jobs[3].objective) == ("power", "power")
        assert jobs[4].laxity == 2.0

    def test_weighted_label(self):
        job = ExploreJob(0, (0.5, 0.5, 0.0), 1.0, 0)
        assert job.label == "weighted(0.5,0.5,0)"

    def test_rejects_sub_one_laxity(self):
        with pytest.raises(ExperimentError):
            make_jobs(laxities=(0.5,))


class TestExplore:
    def test_frontier_is_mutually_non_dominated(self, loops_result):
        points = loops_result.front.points
        assert points, "exploration produced an empty frontier"
        for p in points:
            for q in points:
                if p is not q:
                    assert not dominates(p, q)

    def test_provenance_points_at_real_jobs(self, loops_result):
        indices = {j["index"] for j in loops_result.jobs}
        for point in loops_result.front.points:
            assert point.meta["job"] in indices
            assert point.meta["order"] < loops_result.jobs[
                point.meta["job"]]["offered"]

    def test_every_job_contributes_stats(self, loops_result):
        assert len(loops_result.jobs) == 4
        assert all(j["evaluations"] > 0 for j in loops_result.jobs)
        assert loops_result.offered >= len(loops_result.front)

    def test_summary_is_json_shaped(self, loops_result):
        import json

        summary = loops_result.summary()
        json.dumps(summary)
        assert summary["frontier_size"] == len(loops_result.front)
        assert summary["hypervolume"] > 0.0

    def test_steal_run_is_bit_identical(self, loops_result, loops_stolen):
        assert loops_stolen.steal_workers > 1
        assert loops_stolen.rows() == loops_result.rows()
        assert loops_stolen.jobs == loops_result.jobs

    def test_steal_workers_capped_by_job_count(self):
        result = explore("loops", laxities=(1.0,), objectives=("area",),
                         steal=16, n_passes=6, search=TINY)
        assert result.steal_workers == 1


def forbid_search(monkeypatch):
    """Make any grid-cell run or synthesis search fail the test."""
    def no_search(*args, **kwargs):
        raise AssertionError("verify_frontier ran a search")

    monkeypatch.setattr(driver, "_run_job", no_search)
    monkeypatch.setattr(SynthesisEngine, "run", no_search)


def frontier_keys(result) -> list:
    return [(p.meta["job"], p.meta["order"]) for p in result.front.points]


def verilog(design) -> str:
    return emit_verilog(lower_architecture(design.arch, name="dut"))


class TestVerifyFrontier:
    def test_one_shard_result_retains_designs(self, loops_result,
                                              monkeypatch):
        # An in-process result carries a recipe per frontier point and
        # verifies from them without searching again.
        assert list(loops_result._recipes) == frontier_keys(loops_result)
        forbid_search(monkeypatch)
        reports = verify_frontier(loops_result)
        assert len(reports) == len(loops_result.front)
        assert all(r.ok for r in reports)

    def test_frontier_designs_conform_in_process(self, loops_result):
        reports = verify_frontier(loops_result)
        assert len(reports) == len(loops_result.front)
        assert all(r.ok for r in reports)

    def test_sharded_result_verifies_by_replay(self, loops_stolen,
                                               monkeypatch):
        # The recipes crossed the steal pipe: same keys, same payloads.
        assert list(loops_stolen._recipes) == frontier_keys(loops_stolen)
        forbid_search(monkeypatch)
        reports = verify_frontier(loops_stolen)
        assert len(reports) == len(loops_stolen.front)
        assert all(r.ok for r in reports)

    def test_warm_started_result_runs_no_search(self, tmp_path,
                                                monkeypatch):
        store = tmp_path / "store"
        explore("loops", steal=2, n_passes=6, search=TINY, store_dir=store,
                **GRID)
        warm = explore("loops", steal=2, n_passes=6, search=TINY,
                       store_dir=store, **GRID)
        assert warm.warm_hits == len(warm.jobs)
        forbid_search(monkeypatch)
        reports = verify_frontier(warm)
        assert len(reports) == len(warm.front)
        assert all(r.ok for r in reports)

    def test_recipes_stay_out_of_reports(self, loops_result):
        reports = json.dumps(
            [loops_result.rows(), loops_result.summary(), loops_result.jobs])
        for key in ("recipes", "binding", "stg", "tree_policy"):
            assert key not in reports

    def test_tampered_recipe_is_detected(self, loops_result):
        engine = engine_for_benchmark("loops", n_passes=6, store_dir="")
        recipes = copy.deepcopy(loops_result._recipes)
        # Swap one unit's module for another that implements its ops: the
        # rebuilt design is legal but no longer the reported point.
        for recipe in recipes.values():
            for fu in recipe["binding"]["fus"]:
                spec = engine.library.get(fu[1])
                kinds = frozenset(engine.cdfg.node(op).kind for op in fu[2])
                others = engine.library.alternatives(spec, kinds)
                if others:
                    fu[1] = others[0].name
                    break
            else:
                continue
            break
        else:
            pytest.fail("no frontier unit has an alternative module")
        tampered = dataclasses.replace(loops_result, _recipes=recipes)
        with pytest.raises(ExperimentError, match="rebuilds"):
            verify_frontier(tampered)

    def test_tampered_grid_is_detected(self, loops_result):
        # Same job count, different values: indices all resolve, so
        # only the provenance cross-check can catch the mismatch.
        tampered = dataclasses.replace(loops_result, laxities=(2.0, 1.0))
        with pytest.raises(ExperimentError):
            verify_frontier(tampered)

    def test_smaller_grid_is_detected(self, loops_result):
        tampered = dataclasses.replace(loops_result, laxities=(1.0,),
                                       objectives=("area",))
        with pytest.raises(ExperimentError):
            verify_frontier(tampered)


class TestRecipes:
    @pytest.mark.parametrize("name", ["gcd", "paulin", "histogram"])
    def test_recipes_rebuild_the_visited_designs(self, name, monkeypatch):
        # Capture every design the searches offer, in offer order, then
        # rebuild each local-front point from its (JSON round-tripped)
        # recipe on a separate engine.
        visited = []
        search = SynthesisEngine.run

        def capturing(self, *args, observer, **kwargs):
            def tap(design, evaluation):
                visited.append(design)
                observer(design, evaluation)
            return search(self, *args, observer=tap, **kwargs)

        monkeypatch.setattr(SynthesisEngine, "run", capturing)
        engine = engine_for_benchmark(name, n_passes=6, store_dir="")
        fresh = engine_for_benchmark(name, n_passes=6, store_dir="")
        checked = 0
        for job in make_jobs(laxities=(1.0, 2.0)):
            visited.clear()
            record = driver._run_job(engine, job, TINY)
            assert len(record["recipes"]) == len(record["points"])
            for point, recipe in zip(record["points"], record["recipes"]):
                original = visited[point["meta"]["order"]]
                rebuilt = driver.rebuild_design(
                    fresh, json.loads(json.dumps(recipe)))
                evaluation = rebuilt.evaluate()
                assert (evaluation.area, evaluation.power_scaled,
                        evaluation.enc) == (point["area"], point["power"],
                                            point["latency"])
                assert verilog(rebuilt) == verilog(original)
                checked += 1
        assert checked >= len(make_jobs(laxities=(1.0, 2.0)))
