"""The multi-objective design-space exploration driver.

:func:`explore` turns the single-point IMPACT flow into a frontier
builder: it enumerates a deterministic grid of search *jobs* — the cross
product of laxity factors, objectives (area / power / weighted
scalarizations) and search seeds — runs each through a
:class:`~repro.core.engine.SynthesisEngine` with an archive observer
(every feasible design the search visits is offered to a per-job
:class:`~repro.explore.pareto.ParetoFront`, not just the winner), and
merges the per-job fronts into one global frontier.

Workers: by default the jobs run in-process on one engine, in grid
order.  ``steal=N`` runs them on N worker *processes* that take the next
pending job when idle (:mod:`repro.explore.steal`); each worker owns one
engine, so the jobs it runs share its content-addressed pipeline caches
the way a sequential run would.  Because every job is independently
deterministic (cached and uncached evaluation are bit-identical by
construction) and the merge always happens in job-index order, **the
frontier is bit-identical for any worker count** — the determinism
tests in ``tests/test_explore_driver.py`` and
``tests/test_explore_steal.py`` enforce it.

:func:`verify_frontier` closes the loop without searching again: every
job record carries a plain-data *recipe* (binding, STG, mux-tree policy)
for each point of its local front, so the design behind every frontier
point is rebuilt directly — schedule replay plus one architecture build —
checked against the point's objectives, and run through the full
differential-conformance oracle chain via :meth:`SynthesisEngine.verify`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from repro.benchmarks.registry import get_benchmark
from repro.core.design import DesignPoint
from repro.core.engine import SynthesisEngine
from repro.core.search import SearchConfig, WeightedObjective
from repro.errors import ExperimentError
from repro.explore.pareto import ParetoFront, ParetoPoint
from repro.sched.engine import ScheduleOptions
from repro.sched.replay import replay
from repro.store.codec import (
    decode_binding,
    decode_stg,
    encode_binding,
    encode_stg,
)

#: The default objective grid: the paper's two modes plus a balanced
#: area/power scalarization that fills in the middle of the trade-off.
DEFAULT_OBJECTIVES = ("area", "power", (0.5, 0.5, 0.0))

#: The default laxity grid (a coarse slice of the Figure 13 x-axis).
DEFAULT_LAXITIES = (1.0, 2.0, 3.0)


@dataclass(frozen=True)
class ExploreJob:
    """One cell of the exploration grid: objective x laxity x seed."""

    index: int
    objective: object  # "area" | "power" | (w_area, w_power, w_latency)
    laxity: float
    seed: int

    @property
    def label(self) -> str:
        """The objective's report label ("area", "power", "weighted(...)")."""
        if isinstance(self.objective, str):
            return self.objective
        return WeightedObjective(*self.objective).label


@dataclass
class ExploreResult:
    """The merged frontier plus per-job accounting for one exploration.

    The grid (``objectives``/``laxities``/``seeds``), the ``search``
    config and the stimulus parameters are recorded so
    :func:`verify_frontier` can cross-check every point's provenance and
    rebuild its design against the same stimulus — callers never
    re-supply them (a mismatched re-supply would silently verify the
    wrong designs).  ``_recipes`` holds the plain-data recipe of every
    frontier point, keyed by (job index, offer order); it stays out of
    the rows, the summary and ``jobs``, so reports are unchanged by it.
    """

    benchmark: str
    front: ParetoFront
    jobs: list[dict] = field(default_factory=list)
    n_passes: int = 0
    stimulus_seed: int = 0
    wall_time_s: float = 0.0
    objectives: tuple = DEFAULT_OBJECTIVES
    laxities: tuple = DEFAULT_LAXITIES
    seeds: tuple = (0,)
    search: SearchConfig = field(default_factory=SearchConfig)
    #: Work-stealing accounting (``steal=N`` runs; zero otherwise).
    #: ``steal_log`` is (job index, slot) in dispatch order — feed its
    #: completed subset back as ``steal_plan`` to replay the schedule.
    steal_workers: int = 0
    steal_log: list = field(default_factory=list)
    warm_hits: int = 0
    #: Frontier hypervolume after each job's merge, in job-index order —
    #: the search-quality-over-time curve the benchmark gate tracks.
    #: Identical for any worker count (the merge order is fixed).
    hv_trace: list = field(default_factory=list)
    #: {(job index, offer order): recipe} for the frontier points (see
    #: :func:`design_recipe`), in the front's stable order.
    _recipes: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def evaluations(self) -> int:
        """Total candidate evaluations across every job's search."""
        return sum(j["evaluations"] for j in self.jobs)

    @property
    def offered(self) -> int:
        """Total archive offers (feasible designs visited) across jobs."""
        return sum(j["offered"] for j in self.jobs)

    def rows(self) -> list[dict]:
        """Frontier report rows in the front's stable order."""
        return self.front.rows()

    def summary(self) -> dict:
        """One JSON-serializable dict describing the exploration."""
        return {
            "benchmark": self.benchmark,
            "jobs": len(self.jobs),
            "n_passes": self.n_passes,
            "stimulus_seed": self.stimulus_seed,
            "evaluations": self.evaluations,
            "offered": self.offered,
            "frontier_size": len(self.front),
            "hypervolume": self.front.hypervolume(),
            "hv_trace": list(self.hv_trace),
            "steal_workers": self.steal_workers,
            "warm_hits": self.warm_hits,
        }


def engine_for_benchmark(name: str, *, n_passes: int = 20, seed: int = 7,
                         caching: bool = True,
                         store_dir=None,
                         cache_entries: int | None = None) -> SynthesisEngine:
    """Build a ready-to-run engine for a registry benchmark.

    Parses the benchmark's source, draws ``n_passes`` stimulus passes with
    ``seed``, and configures the designer clock from the registry entry.
    This is the one construction path the CLI, the explorer, the job
    server and the examples share, so their engines are always
    comparable.

    ``store_dir`` attaches the persistent artifact store (``None``
    consults ``$REPRO_STORE_DIR``; see :func:`repro.store.attached_cache`)
    and ``cache_entries`` bounds the in-process memo tables (used by
    long-lived owners like the job-server workers).  Results are
    bit-identical with or without a store.
    """
    from repro.store import attached_cache

    bench = get_benchmark(name)
    return SynthesisEngine(
        bench.cdfg(), bench.stimulus(n_passes, seed=seed),
        options=ScheduleOptions(clock_ns=bench.clock_ns),
        cache=attached_cache(caching=caching, store_dir=store_dir,
                             max_entries=cache_entries))


def _resolve_mode(engine: SynthesisEngine, job: ExploreJob):
    """Turn a job's objective spec into an engine ``mode`` value."""
    if isinstance(job.objective, str):
        return job.objective
    return WeightedObjective.for_engine(engine, job.objective, job.laxity)


def design_recipe(design: DesignPoint) -> dict:
    """The JSON-safe recipe that rebuilds ``design``: binding, STG, trees.

    Everything a design point is a function of besides the engine's
    shared state (CDFG, library, profile, options).  Tree-policy port
    keys are sorted so equal policies encode to equal bytes.
    """
    return {"binding": encode_binding(design.binding),
            "stg": encode_stg(design.stg),
            "tree_policy": [list(key) for key in
                            sorted(design.tree_policy, key=repr)]}


def rebuild_design(engine: SynthesisEngine, recipe: dict) -> DesignPoint:
    """A fresh design point from :func:`design_recipe`'s output.

    Replays the decoded STG against the engine's profile and builds the
    architecture from scratch; evaluation is bit-identical to the point
    the search visited, however that point was derived.
    """
    binding = decode_binding(recipe["binding"], engine.cdfg, engine.library)
    stg = decode_stg(recipe["stg"])
    rep = replay(stg, engine.cdfg, engine.store, cache=engine.cache)
    return DesignPoint(
        engine.cdfg, engine.library, engine.store, engine.options, binding,
        stg, rep, frozenset(tuple(key) for key in recipe["tree_policy"]),
        cache=engine.cache)


def _run_job(engine: SynthesisEngine, job: ExploreJob,
             search: SearchConfig) -> dict:
    """Run one grid cell; returns its plain-data record.

    The observer offers every feasible visited design to a job-local
    :class:`ParetoFront`; the point's ``meta["order"]`` is its offer
    sequence number.  The record holds the job's stats, its local front
    and, aligned with the front, each point's :func:`design_recipe` —
    plain data, so it can cross a process pipe and be checkpointed.
    """
    local = ParetoFront()
    # Offer order -> the design, for every offer the front accepted;
    # evicted entries are dropped when the recipes are taken.
    accepted: dict[int, DesignPoint] = {}

    def observer(design, evaluation):
        order = local.offered
        summary = design.summary()
        point = ParetoPoint(
            area=evaluation.area,
            power=evaluation.power_scaled,
            latency=evaluation.enc,
            meta={
                "job": job.index,
                "objective": job.label,
                "laxity": job.laxity,
                "seed": job.seed,
                "order": order,
                "vdd": summary["vdd"],
                "fus": summary["fus"],
                "registers": summary["registers"],
                "mux2": summary["mux2"],
                "states": summary["states"],
            })
        if local.add(point):
            accepted[order] = design

    result = engine.run(
        mode=_resolve_mode(engine, job), laxity=job.laxity,
        search=dataclasses.replace(search, seed=job.seed),
        observer=observer)
    stats = {
        "index": job.index,
        "objective": job.label,
        "laxity": job.laxity,
        "seed": job.seed,
        "evaluations": result.history.evaluations,
        "offered": local.offered,
        "kept": len(local),
        "best": result.design.summary(),
    }
    return {"stats": stats,
            "points": [{"area": p.area, "power": p.power,
                        "latency": p.latency, "meta": dict(p.meta)}
                       for p in local.points],
            "recipes": [design_recipe(accepted[p.meta["order"]])
                        for p in local.points]}


def make_jobs(objectives=DEFAULT_OBJECTIVES, laxities=DEFAULT_LAXITIES,
              seeds=(0,)) -> list[ExploreJob]:
    """Enumerate the exploration grid in its canonical (deterministic) order."""
    jobs = []
    for laxity in laxities:
        if laxity < 1.0:
            raise ExperimentError(f"laxity factor must be >= 1.0, got {laxity}")
        for objective in objectives:
            for seed in seeds:
                jobs.append(ExploreJob(len(jobs), objective, laxity, seed))
    return jobs


def explore(benchmark: str, *,
            objectives=DEFAULT_OBJECTIVES,
            laxities=DEFAULT_LAXITIES,
            seeds=(0,),
            steal: int = 0,
            steal_plan=None,
            fault_plan=None,
            n_passes: int = 20,
            stimulus_seed: int = 7,
            search: SearchConfig | None = None,
            caching: bool = True,
            store_dir=None,
            hv_reference: tuple[float, float, float] | None = None
            ) -> ExploreResult:
    """Explore a benchmark's design space and return its Pareto frontier.

    Parameters
    ----------
    benchmark:
        A registry name (see ``repro.BENCHMARKS``); steal workers
        re-parse it, which is what lets them run in other processes.
    objectives:
        Mix of ``"area"``, ``"power"`` and ``(w_area, w_power, w_latency)``
        weight triples (scalarized via
        :class:`~repro.core.search.WeightedObjective`).
    laxities, seeds:
        The ENC-budget grid and the search seeds; the job grid is their
        cross product with ``objectives``.
    steal:
        Work-stealing worker processes (see :mod:`repro.explore.steal`).
        ``0`` runs every job in-process.  Nonzero runs the jobs on a
        shared queue: idle workers steal the next pending cell, completed
        cells checkpoint into the artifact store (when attached) and
        warm-start later runs.  The frontier stays bit-identical to the
        in-process run for any worker count — the steal order is recorded
        on the result, not baked into it.
    steal_plan:
        A recorded steal log (``(job index, slot)`` pairs covering every
        job) to replay: each job is pinned to its recorded slot's queue,
        reproducing the dispatch schedule exactly.
    fault_plan:
        A :class:`~repro.faults.plan.FaultPlan` injected into the pool;
        ``kill_worker@N`` kills the worker job ``N`` is first dispatched
        to (the retry and every other worker run clean).  Steal mode
        only.
    n_passes, stimulus_seed:
        Profiling stimulus (shared by every job).
    search:
        Base :class:`~repro.core.search.SearchConfig`; each job replaces
        only its ``seed``.
    store_dir:
        Artifact-store root shared by every worker (``None`` consults
        ``$REPRO_STORE_DIR``; pass ``""`` to force a plain in-process
        cache).  Workers publish and reuse schedules/replays through the
        store — concurrency-safe because publication is atomic and
        content-addressed — and the frontier stays bit-identical with or
        without it.

    Returns an :class:`ExploreResult` whose ``front`` holds the merged,
    non-dominated (area, power, latency) points with per-job provenance.
    """
    search = search or SearchConfig()
    jobs = make_jobs(objectives, laxities, seeds)
    t0 = time.perf_counter()

    steal_outcome = None
    if steal or steal_plan:
        from repro.explore.steal import run_stolen

        steal_outcome = run_stolen(
            {
                "benchmark": benchmark,
                "n_passes": n_passes,
                "stimulus_seed": stimulus_seed,
                "caching": caching,
                "store_dir": store_dir,
                "search": search,
            },
            jobs, workers=max(1, min(steal, len(jobs))) if steal else 1,
            steal_plan=steal_plan, fault_plan=fault_plan)
        by_index = steal_outcome.results
    else:
        engine = engine_for_benchmark(benchmark, n_passes=n_passes,
                                      seed=stimulus_seed, caching=caching,
                                      store_dir=store_dir)
        by_index = {job.index: _run_job(engine, job, search) for job in jobs}

    # Merge per-job results in grid order: the merge sequence (and with
    # it the frontier's stable tie-breaking) is then independent of which
    # worker ran which job.
    front = ParetoFront()
    job_stats = []
    hv_trace = []
    recipes = {}
    for index in sorted(by_index):
        job_result = by_index[index]
        job_stats.append(job_result["stats"])
        for rec, recipe in zip(job_result["points"], job_result["recipes"]):
            front.add(ParetoPoint(rec["area"], rec["power"], rec["latency"],
                                  meta=rec["meta"]))
            recipes[(index, rec["meta"]["order"])] = recipe
        # hv_reference pins the trace to a caller-fixed reference point
        # (the benchmark gate's committed per-benchmark references);
        # None floats it at 1.1x the running front's per-axis maxima.
        hv_trace.append(front.hypervolume(hv_reference))

    keys = [(p.meta["job"], p.meta["order"]) for p in front.points]
    return ExploreResult(
        benchmark=benchmark, front=front, jobs=job_stats,
        n_passes=n_passes, stimulus_seed=stimulus_seed,
        wall_time_s=round(time.perf_counter() - t0, 3),
        objectives=tuple(objectives), laxities=tuple(laxities),
        seeds=tuple(seeds), search=search,
        steal_workers=steal_outcome.workers if steal_outcome else 0,
        steal_log=list(steal_outcome.log) if steal_outcome else [],
        warm_hits=steal_outcome.warm_hits if steal_outcome else 0,
        hv_trace=hv_trace, _recipes={key: recipes[key] for key in keys})


def verify_frontier(result: ExploreResult, *,
                    use_iverilog: str = "auto") -> list:
    """Conformance-check the design behind every frontier point.

    No search runs: each point's design is rebuilt from the recipe its
    job recorded (:func:`rebuild_design`) on one engine built from the
    stimulus parameters the :class:`ExploreResult` itself records, so
    the verified designs are exactly the ones the frontier reports.  A
    rebuilt design must evaluate to the point's (area, power, latency)
    exactly before it is verified.  Every design then goes through
    :meth:`SynthesisEngine.verify` — the differential oracle chain over
    interpreter / replay / gatesim / emitted-Verilog netsim.

    Returns one :class:`~repro.verify.conformance.ConformanceReport` per
    frontier point, in the front's stable order.  Raises
    :class:`~repro.errors.ExperimentError` if a point's provenance does
    not match the recorded grid, or its recipe is missing or does not
    rebuild the point's objectives (tampered result fields).
    """
    jobs = {job.index: job
            for job in make_jobs(result.objectives, result.laxities,
                                 result.seeds)}
    for point in result.front.points:
        job = jobs.get(point.meta["job"])
        # Integrity check: each point's provenance must match the job
        # that produced it (e.g. a hand-edited result with a reordered
        # grid would otherwise report designs under the wrong cell).
        if (job is None
                or job.label != point.meta["objective"]
                or job.laxity != point.meta["laxity"]
                or job.seed != point.meta["seed"]):
            raise ExperimentError(
                f"frontier point from job {point.meta['job']} "
                f"({point.meta['objective']}, laxity {point.meta['laxity']}, "
                f"seed {point.meta['seed']}) does not match the result's "
                f"recorded objectives/laxities/seeds grid")

    engine = engine_for_benchmark(result.benchmark, n_passes=result.n_passes,
                                  seed=result.stimulus_seed)
    designs = []
    for point in result.front.points:
        name = (f"{result.benchmark}.j{point.meta['job']}"
                f"o{point.meta['order']}")
        recipe = result._recipes.get((point.meta["job"], point.meta["order"]))
        if recipe is None:
            raise ExperimentError(f"frontier point {name} carries no recipe")
        design = rebuild_design(engine, recipe)
        evaluation = design.evaluate()
        rebuilt = (evaluation.area, evaluation.power_scaled, evaluation.enc)
        if rebuilt != (point.area, point.power, point.latency):
            raise ExperimentError(
                f"frontier point {name} reports (area, power, latency) "
                f"{(point.area, point.power, point.latency)} but its recipe "
                f"rebuilds {rebuilt}")
        designs.append((name, design))
    return [engine.verify(design=design, use_iverilog=use_iverilog, name=name)
            for name, design in designs]
