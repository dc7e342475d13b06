"""The four workloads.

Each workload has a ``prepare(seed, scratch)`` step, which is set-up
(imports and inputs; it ends at the first call into the flow), and a
``run(flow, state)`` step, which is the flow itself.  ``run`` times one
operation at a time through :class:`Flow` and records the outputs that
go into the run's digest.  Failures of any kind count against the op
that hit them; they never stop the flow.

Every workload keeps to ``nproc`` threads or processes, passes
``use_iverilog="off"`` so every machine runs the same backends, and
runs with ``$REPRO_STORE_DIR`` unset (the parent clears it).
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
import traceback
import uuid

#: The paper's six benchmarks, in registry order.
CLASSIC = ("loops", "gcd", "x25_send", "dealer", "cordic", "paulin")

#: The search effort of the headline synthesis suite.
SWEEP_SEARCH = dict(max_depth=4, max_candidates=10, max_iterations=5, seed=0)

#: ``repro explore``'s default search effort and stimulus seed.  The
#: explore flow keeps the default stimulus whatever the workload seed:
#: paulin's loop trip counts come from its inputs, and across stimulus
#: seeds the frontier's size and verified cycle count vary by a quarter
#: and more, wider than any regression bound.
EXPLORE_SEARCH = dict(max_depth=5, max_candidates=12, max_iterations=6, seed=0)
EXPLORE_STIMULUS_SEED = 7

#: ``repro fuzz``'s default search effort and generator knobs.
FUZZ_SEARCH = dict(max_depth=3, max_candidates=8, max_iterations=4, seed=0)
FUZZ_GEN = dict(ops_budget=22, max_depth=3, branch_density=0.30,
                loop_density=0.25, array_density=0.15, n_arrays=1)

#: Programs fuzzed per flow: those of ``repro fuzz --count 12 --seed 0``.
#: Their structure is fixed and the workload seed picks their stimulus.
#: Program cost varies several-fold with structure, so drawing the
#: structures from the seed would make one run's work differ from the
#: next by more than any regression bound.  Some programs' cost still
#: moves by a third with their stimulus; twelve of them average that
#: out better than six.
FUZZ_PROGRAMS = 12


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Flow:
    """Per-op timings, failures and outputs of one flow."""

    def __init__(self) -> None:
        self.ops: list[float] = []
        self.failed = 0
        self.outputs: list = []
        self.extra: dict = {}

    def add(self, seconds: float, ok: bool, output) -> None:
        self.ops.append(seconds)
        self.outputs.append(output)
        self.failed += not ok

    def op(self, label: str, fn) -> None:
        """Time ``fn() -> (ok, output)``; an exception is a failed op."""
        start = time.perf_counter()
        try:
            ok, output = fn()
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            ok, output = False, {"op": label, "error": type(exc).__name__}
        self.add(time.perf_counter() - start, ok, output)

    def bump(self, key: str, amount) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


def verify_tap():
    """A one-function tracer that sees every conformance run's report."""
    from spans import Tracer

    def observe(tracer, report, exc):
        if report is not None:
            tracer.count("cycles", report.total_cycles)

    tap = Tracer()
    tap.trace_function("verify.architecture", "repro.verify.conformance",
                       "verify_architecture", observe)
    return tap


# -- synth_sweep ----------------------------------------------------------------


def synth_prepare(seed: int, scratch):
    import repro.experiments.laxity as laxity
    from repro.core.search import SearchConfig

    return {"seed": seed, "laxity": laxity,
            "search": SearchConfig(**SWEEP_SEARCH)}


def synth_run(flow: Flow, state) -> None:
    x_base, x_apower, overheads = [], [], []

    def sweep_op(name):
        sweep = state["laxity"].run_laxity_sweep(
            name, laxities=(1.0, 2.0, 3.0), n_passes=15, seed=state["seed"],
            search=state["search"])
        flow.bump("evaluations", sweep.evaluations)
        x_base.append(sweep.max_power_reduction_vs_base())
        x_apower.append(sweep.max_power_reduction_vs_a())
        overheads.append(sweep.max_area_overhead())
        points = [[p.laxity, p.base_power_mw, p.a_power_mw, p.i_power_mw,
                   p.base_area, p.i_area_abs, p.a_vdd, p.i_vdd,
                   p.enc_budget, p.a_enc, p.i_enc, p.mismatches]
                  for p in sweep.points]
        output = {"benchmark": name, "points": points,
                  "evaluations": sweep.evaluations}
        return sweep.total_mismatches() == 0, output

    for name in CLASSIC:
        flow.op(name, lambda: sweep_op(name))
    flow.extra["search_s"] = sum(flow.ops)
    if len(x_base) == len(CLASSIC):
        flow.extra["quality"] = {"x_base": x_base, "x_apower": x_apower,
                                 "area_overhead": overheads}


# -- verify_registry --------------------------------------------------------------


def verify_prepare(seed: int, scratch):
    import repro.verify.conformance as conformance
    from repro.benchmarks import BENCHMARKS

    return {"seed": seed, "conformance": conformance,
            "names": list(BENCHMARKS)}


def verify_run(flow: Flow, state) -> None:
    def verify_op(name):
        report = state["conformance"].verify_benchmark(
            name, n_passes=100, seed=state["seed"], use_iverilog="off")
        flow.bump("cycles", report.total_cycles)
        return report.ok, {"name": name, "ok": report.ok,
                           "cycles": report.total_cycles,
                           "divergences": len(report.divergences),
                           "backends": report.backends}

    for name in state["names"]:
        flow.op(name, lambda: verify_op(name))
    flow.extra["verify_s"] = sum(flow.ops)


# -- fuzz_small ---------------------------------------------------------------------


def fuzz_prepare(seed: int, scratch):
    import repro.genprog.fuzz as fuzz
    import repro.genprog.generator as generator
    from repro.core.search import SearchConfig
    from repro.genprog import GenConfig

    return {"seed": seed, "fuzz": fuzz, "generator": generator,
            "template": GenConfig(**FUZZ_GEN).validated(),
            "search": SearchConfig(**FUZZ_SEARCH), "tap": verify_tap()}


def fuzz_run(flow: Flow, state) -> None:
    fuzz, tap = state["fuzz"], state["tap"]
    tap.reset()

    def fuzz_op(index):
        config = dataclasses.replace(state["template"], seed=index)
        program = state["generator"].generate_program(config,
                                                      name=f"fuzz{index}")
        # The stimulus family derives from the config seed; re-seeding it
        # after generation keeps the program and changes its inputs.
        stimulus_seed = state["seed"] * fuzz.SEED_STRIDE + index
        program = dataclasses.replace(program, config=dataclasses.replace(
            program.config, seed=stimulus_seed))
        verdict = fuzz.fuzz_program(program, laxities=fuzz.DEFAULT_LAXITIES,
                                    n_passes=10, search=state["search"],
                                    use_iverilog="off")
        row = verdict.row()
        del row["reproducer"]
        return verdict.ok, row

    for index in range(FUZZ_PROGRAMS):
        flow.op(f"fuzz{index}", lambda: fuzz_op(index))
    flow.extra["programs"] = FUZZ_PROGRAMS
    flow.extra["cycles"] = tap.counters.get("cycles", 0)
    flow.extra["verify_s"] = sum(end - start for start, end, *_ in tap.spans)


# -- explore_paulin -------------------------------------------------------------------


def explore_prepare(seed: int, scratch):
    from repro.core.search import SearchConfig
    from repro.explore import driver

    return {"explore": driver, "scratch": scratch,
            "search": SearchConfig(**EXPLORE_SEARCH), "tap": verify_tap()}


def explore_run(flow: Flow, state) -> None:
    explore, tap = state["explore"], state["tap"]
    tap.reset()
    # A fresh, empty artifact store for every flow: a warm one would let
    # this flow replay the previous flow's work.
    store = state["scratch"] / f"store-{uuid.uuid4().hex}"
    store.mkdir()
    start = time.perf_counter()
    try:
        result = explore.explore("paulin", steal=nproc(), n_passes=20,
                                 stimulus_seed=EXPLORE_STIMULUS_SEED,
                                 search=state["search"], store_dir=str(store))
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        flow.add(time.perf_counter() - start, False,
                 {"op": "explore", "error": type(exc).__name__})
        return
    flow.extra["search_s"] = time.perf_counter() - start
    flow.extra["evaluations"] = result.evaluations
    flow.extra["jobs"] = len(result.jobs)
    flow.extra["hypervolume"] = result.front.hypervolume()
    flow.outputs.append({"frontier": result.rows(),
                         "hypervolume": flow.extra["hypervolume"]})

    start = time.perf_counter()
    try:
        reports = explore.verify_frontier(result, use_iverilog="off")
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        for _ in result.front.points:
            flow.add(elapsed / len(result.front), False,
                     {"op": "verify_frontier", "error": type(exc).__name__})
        return
    # One op per frontier point: its conformance run, as the tap timed it.
    for report, span in zip(reports, tap.spans):
        flow.add(span[1] - span[0], report.ok,
                 {"name": report.name, "ok": report.ok,
                  "cycles": report.total_cycles,
                  "divergences": len(report.divergences)})
    flow.extra["cycles"] = tap.counters.get("cycles", 0)
    flow.extra["verify_s"] = time.perf_counter() - start


@dataclasses.dataclass(frozen=True)
class Workload:
    prepare: object
    run: object
    #: Artifact-store mode every flow runs in (part of the fingerprint).
    store_mode: str


WORKLOADS = {
    "synth_sweep": Workload(synth_prepare, synth_run, "none"),
    "verify_registry": Workload(verify_prepare, verify_run, "none"),
    "fuzz_small": Workload(fuzz_prepare, fuzz_run, "none"),
    "explore_paulin": Workload(explore_prepare, explore_run, "fresh"),
}
