"""IMPACT: the top-level synthesis flow (Figure 7).

1. Behavioral simulation of the CDFG over a typical stimulus records the
   traces and statistics for power estimation.
2. The initial RT architecture is fully parallel (fastest modules, one
   register per variable) and is scheduled with Wavesched at the designer's
   clock period; its ENC is the minimum achievable with the library, so the
   laxity factor times it is the performance budget.
3. The variable-depth iterative-improvement search explores move sequences
   (scheduling, module selection, resource sharing/splitting, multiplexer
   restructuring are all interleaved) until no sequence reduces the cost.

``mode="power"`` optimizes the Vdd-scaled power estimate (what the paper's
I-Power designs minimize); ``mode="area"`` the area model (the paper's
area-optimization mode, used as the comparison base).

:func:`synthesize` is the one-shot convenience wrapper; callers running
several related flows (laxity sweeps, repeated experiments) should hold a
:class:`~repro.core.engine.SynthesisEngine` instead, which keeps the trace
store, the initial design point and the pipeline memo tables warm across
runs.
"""

from __future__ import annotations

from repro.cdfg.graph import CDFG
from repro.core.design import DesignPoint
from repro.core.engine import SynthesisEngine, SynthesisResult
from repro.core.search import SearchConfig
from repro.library.library import ModuleLibrary
from repro.sched.engine import ScheduleOptions
from repro.sim.traces import TraceStore

__all__ = ["SynthesisResult", "SynthesisEngine", "synthesize"]


def synthesize(
    cdfg: CDFG,
    stimulus: list[dict[str, int]],
    *,
    mode: str = "power",
    laxity: float = 1.0,
    library: ModuleLibrary | None = None,
    options: ScheduleOptions | None = None,
    search: SearchConfig | None = None,
    store: TraceStore | None = None,
    initial: DesignPoint | None = None,
    starts: list[DesignPoint] | None = None,
    area_cap: float | None = None,
    caching: bool = True,
) -> SynthesisResult:
    """Run the full IMPACT flow on a CDFG.

    ``store``/``initial`` allow callers sweeping the laxity factor to reuse
    the behavioral simulation and the initial design point across runs.
    ``starts`` adds extra search starting points (e.g. the area-optimized
    design when optimizing power, or the previous laxity point's result);
    the search runs from each and the best final design wins.  ``initial``
    always defines ``enc_min`` (the minimum-ENC parallel design) and is
    always included as a starting point.

    ``caching`` toggles the content-addressed pipeline memo tables
    (bit-identical results either way).
    """
    engine = SynthesisEngine(cdfg, stimulus, library=library, options=options,
                             caching=caching, store=store, initial=initial)
    return engine.run(mode=mode, laxity=laxity, search=search, starts=starts,
                      area_cap=area_cap)
