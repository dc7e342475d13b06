"""Work-stealing job pool for the exploration driver.

N worker processes on one :class:`~repro.service.pool.SupervisedPool`
share a job queue: each pool slot takes ("steals") the next pending job
the moment it goes idle, so the wall clock tracks the sum of job costs
divided by N instead of the slowest pre-assigned share.

Determinism is preserved by construction, not by scheduling: every job
is independently deterministic and the driver merges per-job fronts in
job-index order, so **the frontier is bit-identical to an in-process
run no matter who stole what, or when** — including runs where a worker
was killed mid-job and its job re-ran on a replacement.  The *steal log*
(which slot each job was dispatched to, in dispatch order) is recorded
on the result; replaying it through ``steal_plan`` pins each job to the
same slot's queue, which reproduces the log itself as well as the
frontier.

Checkpointing: when an artifact store is attached, each completed job's
result is published under a content key covering the benchmark CDFG,
stimulus parameters, search config and the job's grid cell.  A later
run over any overlapping grid — same benchmark, a different worker
count, or a *different* benchmark whose registry entry compiles to the
same CDFG — warm-starts from the stored per-job results instead of
re-searching.  Warm hits are counted on the result but never change it:
stored results are the bytes the search would recompute.

Fault injection: a :class:`~repro.faults.plan.FaultPlan`'s
``kill_worker@N`` rides along with the first dispatch of job ``N`` and
fires through :func:`repro.faults.activate`, the seam service jobs use:
the worker SIGKILLs itself, the pool reports :class:`WorkerCrash` and
replaces the process, and the job goes back in the queue clean.  Other
plan kinds are service-core faults and are ignored here.
"""

from __future__ import annotations

import asyncio
import os
from collections import deque
from dataclasses import dataclass, field


@dataclass
class StealOutcome:
    """What the pool hands back to the driver."""

    #: job index -> {"stats": ..., "points": ...} (see ``_job_record``).
    results: dict[int, dict] = field(default_factory=dict)
    #: (job index, slot) in dispatch order, completed attempts marked by
    #: membership in ``results`` (killed attempts appear too).
    log: list[tuple[int, int]] = field(default_factory=list)
    #: Jobs served from the artifact store's explore checkpoints.
    warm_hits: int = 0
    #: Workers spawned over the run (replacements included).
    workers: int = 0


def job_checkpoint_key(cdfg_digest: str, job, search, n_passes: int,
                       stimulus_seed: int) -> str:
    """Content key for one grid cell's result (id-free, topology-free).

    Covers everything the job's outcome is a function of — the compiled
    benchmark (by content digest, so renamed registry entries that parse
    to the same CDFG share checkpoints), the stimulus draw, the search
    config and the cell's objective/laxity/seed.  Worker count and steal
    order are deliberately absent.
    """
    from repro.store import digest_key

    return digest_key((
        "explore-job", cdfg_digest, n_passes, stimulus_seed,
        job.objective, job.laxity, job.seed, search,
    ))


def _run_task(state: dict, task):
    """Run one dispatched job in a steal worker; returns (record, warm).

    ``state`` is the worker's own: the engine (and its caches) is built
    on the first job and shared by every job this worker steals.
    Checkpoint lookups go straight to the artifact store; the job runs
    only on a miss, and publishes its result for the next run.
    """
    from repro.explore.driver import _job_record, _run_job, engine_for_benchmark
    from repro.faults import activate
    from repro.store import STORE_DIR_ENV, cdfg_digest, open_store

    payload, job, faults = task
    with activate(faults):
        if not state:
            engine = engine_for_benchmark(
                payload["benchmark"], n_passes=payload["n_passes"],
                seed=payload["stimulus_seed"], caching=payload["caching"],
                store_dir=payload["store_dir"])
            store_root = payload["store_dir"]
            if store_root is None:
                store_root = os.environ.get(STORE_DIR_ENV)
            state.update(engine=engine, digest=cdfg_digest(engine.cdfg),
                         store=open_store(store_root) if store_root else None)
        store = state["store"]
        key = job_checkpoint_key(state["digest"], job, payload["search"],
                                 payload["n_passes"], payload["stimulus_seed"])
        record = store.get("explore", key) if store is not None else None
        if record is not None:
            return record, True
        local, stats, _ = _run_job(state["engine"], job, payload["search"])
        record = _job_record(local, stats)
        if store is not None:
            store.put_json("explore", key, record)
        return record, False


def _worker_main(conn) -> None:
    """One steal worker process: serve dispatched jobs until the sentinel.

    Every task of one pool carries the same engine recipe, so the engine
    is built once per worker.
    """
    from repro.service.pool import serve

    state: dict = {}
    serve(conn, lambda task: _run_task(state, task))


def run_stolen(payload: dict, jobs, *, workers: int, steal_plan=None,
               fault_plan=None) -> StealOutcome:
    """Run the grid through a work-stealing pool; returns all job results.

    ``payload`` is the engine recipe (benchmark / stimulus / caching /
    store_dir / search) shared by every worker; ``jobs`` the full grid.

    Scheduling: by default all jobs wait in one shared queue in index
    order and each of the ``workers`` pool slots takes the next pending
    job when it goes idle.  With ``steal_plan`` (a recorded
    ``StealOutcome.log``, completed attempts only) each job is queued
    for its recorded slot alone, replaying the assignment exactly.

    Supervision is the pool's: a worker that dies mid-job (fault
    injection, OOM kill) surfaces as :class:`WorkerCrash`, the pool
    replaces the process, and the job goes back in the queue clean
    (worker faults are consumed at first dispatch).  A job that raises
    fails the whole run with :class:`~repro.errors.ExperimentError`.
    """
    from repro.errors import ExperimentError
    from repro.service.errors import WorkerCrash
    from repro.service.pool import SupervisedPool

    if steal_plan:
        plan = [(int(index), int(slot)) for index, slot in steal_plan]
        planned = {index for index, _ in plan}
        missing = [job.index for job in jobs if job.index not in planned]
        if missing:
            raise ValueError(
                f"steal plan does not cover jobs {missing}; replay one "
                f"recorded log entry per job")
        slot_ids = sorted({slot for _, slot in plan})
        queues = [deque(index for index, slot in plan if slot == slot_id)
                  for slot_id in slot_ids]
    else:
        slot_ids = list(range(max(1, workers)))
        shared = deque(job.index for job in jobs)
        queues = [shared] * len(slot_ids)

    by_index = {job.index: job for job in jobs}
    fire = {}  # job index -> [fault payloads], consumed at first dispatch
    if fault_plan is not None:
        for job in jobs:
            faults = [f for f in fault_plan.take_worker_faults(job.index)
                      if f["kind"] == "kill_worker"]
            if faults:
                fire[job.index] = faults

    outcome = StealOutcome()
    pool = SupervisedPool(len(slot_ids), main=_worker_main)

    async def consume(slot: int) -> None:
        pending = queues[slot]
        while pending:
            index = pending.popleft()
            outcome.log.append((index, slot_ids[slot]))
            task = (payload, by_index[index], fire.pop(index, []))
            try:
                status, reply = await pool.run(slot, task)
            except WorkerCrash:
                pending.appendleft(index)
                continue
            if status != "ok":
                type_name, message, _ = reply
                raise ExperimentError(
                    f"explore job {index} failed in a steal worker: "
                    f"{type_name}: {message}")
            outcome.results[index], warm = reply
            outcome.warm_hits += int(warm)

    async def consume_all() -> None:
        await asyncio.gather(*(consume(slot) for slot in range(len(slot_ids))))

    try:
        asyncio.run(consume_all())
    finally:
        pool.shutdown()
    outcome.workers = len(slot_ids) + pool.restarts
    return outcome

