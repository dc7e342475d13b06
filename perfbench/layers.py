"""Which public functions stand for which layer, and the per-layer numbers.

:func:`install` wraps, for one traced flow, the public function of each
layer that its callers look up; :func:`summarize` turns the recorded
spans and the program's own public counters (``PROFILER.window``,
``SynthesisResult.cache_stats``, conformance reports, ``ArtifactStore.get``
results) into the per-layer metrics.  Self times are charged to the
innermost open span (see :func:`benchmath.attribute`), so for the
workload process ``sum(self_s) + unattributed_s`` is the traced wall.
"""

from __future__ import annotations

import json
import os
import time

from benchmath import attribute
from spans import Tracer

#: (span name, module, function): each function is wrapped at every
#: lookup site and its calls recorded under the span name.
FUNCTIONS = (
    ("lang.parse", "repro.lang.frontend", "parse_process"),
    ("genprog.generate", "repro.genprog.generator", "generate_program"),
    ("genprog.roundtrip", "repro.genprog.generator", "check_roundtrip"),
    ("genprog.shrink", "repro.genprog.shrink", "shrink_process"),
    ("cdfg.simulate", "repro.cdfg.interpreter", "simulate"),
    ("sched.schedule", "repro.sched.engine", "schedule"),
    ("sched.replay", "repro.sched.replay", "replay"),
    ("rtl.arch_build", "repro.rtl.builder", "build_architecture"),
    ("rtl.arch_build", "repro.rtl.builder", "derive_architecture"),
    ("power.estimate", "repro.power.estimator", "estimate_power"),
    ("power.trace_merge", "repro.power.trace_manip", "merge_unit_traces"),
    ("core.moves.generate", "repro.core.moves", "generate_moves"),
    ("gatesim.simulate", "repro.gatesim.simulator", "simulate_architecture"),
    ("hdl.lower", "repro.hdl.lower", "lower_architecture"),
    ("hdl.netsim", "repro.hdl.netsim", "run_passes"),
    ("hdl.emit_verilog", "repro.hdl.verilog", "emit_verilog"),
    ("verify.architecture", "repro.verify.conformance",
     "verify_architecture"),
    ("explore.verify_frontier", "repro.explore.driver", "verify_frontier"),
    # The search of one grid cell; in the workload process only
    # verify_frontier runs it, to re-derive frontier designs.
    ("explore.rederive", "repro.explore.driver", "_run_job"),
    # The parent's side of the steal pool: it waits on its workers.
    ("explore.pool", "repro.explore.steal", "run_stolen"),
)

#: Layer metric -> profiler stage whose incremental share it reports.
PROFILER_STAGES = {
    "sched.schedule": "schedule",
    "sched.replay": "replay",
    "rtl.arch_build": "arch_build",
    "power.estimate": "power_estimate",
    "power.trace_merge": "trace_merge",
}

#: Every span name, each reported with ``.calls`` and ``.self_s``, so
#: the reported self times and ``unattributed_s`` add up to the wall.
LAYERS = tuple(dict.fromkeys(
    [name for name, _, _ in FUNCTIONS]
    + ["core.moves.apply", "core.binding.clone", "store.get", "store.put"]))


def _observe_reject(tracer, result, exc):
    from repro.errors import ReproError

    if isinstance(exc, ReproError):
        tracer.count("core.moves.apply.rejects")


def _observe_cycles(key):
    def observe(tracer, result, exc):
        if result is not None:
            tracer.count(key, result.total_cycles)
    return observe


def _observe_report(tracer, report, exc):
    if report is not None:
        tracer.count("verify.divergences", len(report.divergences))


def _observe_store_get(tracer, payload, exc):
    # ArtifactStore.get returns None exactly when it counts a miss.
    if exc is None:
        tracer.count("store.hits" if payload is not None else "store.misses")


def _after_run(tracer, engine, result):
    tracer.count("core.search.evaluations", result.history.evaluations)
    total = result.cache_stats["total"]
    tracer.count("core.cache.hits", total["hits"])
    tracer.count("core.cache.misses", total["misses"])


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(worker_dir) -> Tracer:
    """Trace every layer of the already-imported ``repro`` package.

    Steal workers forked by the explore pool inherit the wrappers; each
    writes its own span summary into ``worker_dir`` when it exits.
    """
    from repro.explore import steal
    from repro.core.binding import Binding
    from repro.core.engine import SynthesisEngine
    from repro.core.moves import Move
    from repro.store.artifacts import ArtifactStore

    tracer = Tracer()
    observers = {
        "gatesim.simulate": _observe_cycles("gatesim.simulate.cycles"),
        "hdl.netsim": _observe_cycles("hdl.netsim.cycles"),
        "verify.architecture": _observe_report,
    }
    for name, module, attr in FUNCTIONS:
        tracer.trace_function(name, module, attr, observers.get(name))
    for cls in _subclasses(Move):
        if "apply" in vars(cls):
            tracer.trace_method("core.moves.apply", cls, "apply",
                                _observe_reject)
    tracer.trace_method("core.binding.clone", Binding, "clone")
    tracer.trace_method("store.get", ArtifactStore, "get", _observe_store_get)
    tracer.trace_method("store.put", ArtifactStore, "put")
    tracer.hook(SynthesisEngine, "run", _after_run)

    worker_main = steal._worker_main

    def traced_worker(*args, **kwargs):
        tracer.reset()
        start = time.perf_counter()
        try:
            return worker_main(*args, **kwargs)
        finally:
            spans = attribute(tracer.spans, start, time.perf_counter())
            path = os.path.join(worker_dir, f"{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as out:
                json.dump({"calls": spans["calls"], "self_s": spans["self_s"],
                           "counters": tracer.counters}, out)

    steal._worker_main = traced_worker
    return tracer


def _worker_totals(worker_dir) -> dict:
    totals = {"processes": 0, "calls": {}, "self_s": {}, "counters": {}}
    for entry in sorted(os.listdir(worker_dir)):
        with open(os.path.join(worker_dir, entry), encoding="utf-8") as src:
            worker = json.load(src)
        totals["processes"] += 1
        for key in ("calls", "self_s", "counters"):
            for name, value in worker[key].items():
                totals[key][name] = totals[key].get(name, 0) + value
    return totals


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarize(tracer: Tracer, start: float, end: float, profile: dict,
              worker_dir, extra: dict) -> dict:
    """Per-layer metrics of one traced flow over ``[start, end]``.

    ``profile`` is ``PROFILER.window`` over the flow; ``extra`` the
    flow's own measurements (explore job count).  Every ``.calls`` and
    ``.self_s`` is the workload process's own.  The explore steal
    workers are counted in ``store.hits``/``store.misses`` and in the
    ``store.put.worker_*`` numbers (they are the only processes that
    touch the store here); their full span totals are returned under
    ``workers``.
    """
    spans = attribute(tracer.spans, start, end)
    counters = tracer.counters
    workers = _worker_totals(worker_dir)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = spans["calls"].get(layer, 0)
        metrics[f"{layer}.self_s"] = spans["self_s"].get(layer, 0.0)
    for layer, stage in PROFILER_STAGES.items():
        stats = profile.get(stage, {"calls": 0, "incremental": 0})
        metrics[f"{layer}.incremental_ratio"] = _ratio(stats["incremental"],
                                                       stats["calls"])
    metrics["core.moves.apply.reject_ratio"] = _ratio(
        counters.get("core.moves.apply.rejects", 0),
        metrics["core.moves.apply.calls"])
    hits = counters.get("core.cache.hits", 0)
    metrics["core.cache.hit_ratio"] = _ratio(
        hits, hits + counters.get("core.cache.misses", 0))
    metrics["core.search.evaluations"] = counters.get(
        "core.search.evaluations", 0)
    metrics["core.search.thread_overlap_s"] = spans["overlap_s"]
    for layer in ("gatesim.simulate", "hdl.netsim"):
        cycles = counters.get(f"{layer}.cycles", 0)
        metrics[f"{layer}.cycles"] = cycles
        metrics[f"{layer}.cycles_per_s"] = _ratio(
            cycles, metrics[f"{layer}.self_s"])
    metrics["verify.divergences"] = counters.get("verify.divergences", 0)
    metrics["explore.pool_wait_s"] = spans["inclusive_s"].get("explore.pool",
                                                              0.0)
    metrics["explore.rederive_s"] = spans["inclusive_s"].get(
        "explore.rederive", 0.0)
    metrics["explore.jobs"] = extra.get("jobs", 0)
    for key in ("hits", "misses"):
        metrics[f"store.{key}"] = (counters.get(f"store.{key}", 0)
                                   + workers["counters"].get(f"store.{key}", 0))
    metrics["store.put.worker_calls"] = workers["calls"].get("store.put", 0)
    metrics["store.put.worker_self_s"] = workers["self_s"].get("store.put",
                                                               0.0)
    metrics["unattributed_s"] = spans["unattributed_s"]
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    return {"metrics": metrics, "self_sum_s": self_sum,
            "wall_s": end - start, "workers": workers}
