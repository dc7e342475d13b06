"""A supervised process worker pool with known pids and hard kills.

The bare ``ProcessPoolExecutor`` the server first shipped with has two
failure modes a long-running service cannot afford: a worker that dies
(OOM-kill, segfault, injected SIGKILL) breaks the whole pool —
``BrokenProcessPool`` on every later submit — and a hung job occupies
its worker forever, because ``run_in_executor`` cannot cancel running
work.  :class:`SupervisedPool` replaces it with explicitly spawned
workers, one duplex pipe each:

* every worker has a **known pid** (``pids()``), so a timed-out job's
  worker is simply SIGKILLed and respawned — capacity always recovers;
* a worker death surfaces as :class:`WorkerCrash` (EOF on its pipe) on
  exactly the job it owned; the slot is rebuilt and **only** that job is
  affected — the classification/retry layer above decides its fate;
* ``restarts`` counts every rebuild, surfaced in server ``stats``.

Each slot is owned by exactly one consumer task, so there is no work
queue here — the server's bounded queue is the queue; this class only
supervises processes.  Blocking pipe waits run on a private thread pool
(one thread per slot) so the event loop never blocks.  The explore
driver's work-stealing pool (:mod:`repro.explore.steal`) runs on this
class too, with its own worker main.
"""

from __future__ import annotations

import asyncio
import multiprocessing
from concurrent.futures import ThreadPoolExecutor

from repro.service.errors import JobTimeoutError, WorkerCrash


def serve(conn, execute) -> None:
    """Worker-process loop: recv task, ``execute(task)``, send the reply.

    The reply is ``("ok", result)`` or ``("error", (type_name, message,
    class))``.  ``None`` (or a closed pipe) means exit, and the loop
    returns normally.
    """
    from repro.service.errors import classify_exception

    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            conn.close()
            return
        try:
            result = execute(task)
        except BaseException as exc:  # report, never kill the loop
            reply = ("error", (type(exc).__name__, str(exc),
                               classify_exception(exc)))
        else:
            reply = ("ok", result)
        try:
            conn.send(reply)
        except (OSError, ValueError):
            return


def _execute_task(task):
    from repro.service.jobs import execute_job

    job, store_dir, max_cache_entries, faults = task
    return execute_job(job, store_dir, max_cache_entries, faults=faults)


def _worker_main(conn) -> None:
    """The job server's worker process: :func:`serve` job tasks.

    A task is ``(job, store_dir, max_cache_entries, faults)``.  The fault
    payloads are applied by :func:`repro.service.jobs.execute_job` itself
    — a ``kill_worker`` fault SIGKILLs this process mid-loop, which is
    the point.
    """
    serve(conn, _execute_task)


class _Worker:
    """One spawned worker process plus the parent end of its pipe."""

    def __init__(self, ctx, main):
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=main, args=(child,), daemon=True)
        self.proc.start()
        child.close()

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def call(self, task, timeout_s: float | None):
        """Run one task to completion (blocking; runs on a pool thread).

        Raises :class:`JobTimeoutError` when no reply arrives in time
        (the caller must kill+replace this worker — it is still busy)
        and :class:`WorkerCrash` when the process died mid-job.
        """
        try:
            self.conn.send(task)
        except (OSError, ValueError):
            raise WorkerCrash("worker died before the job could be sent")
        if timeout_s is not None and not self.conn.poll(timeout_s):
            raise JobTimeoutError(
                f"job exceeded its {timeout_s:g}s timeout in a worker")
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            raise WorkerCrash("worker died while running the job")

    def kill(self) -> None:
        """SIGKILL the process and reap it; safe on an already-dead worker."""
        try:
            self.proc.kill()
        except Exception:
            pass
        self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Graceful exit: send the sentinel, join, escalate to kill."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


class SupervisedPool:
    """Fixed-size set of supervised worker slots (one consumer each).

    ``main`` is the worker processes' top-level function, called with the
    child end of the slot's pipe; it should answer tasks through
    :func:`serve`.  The default runs job-server jobs.
    """

    def __init__(self, workers: int, *, job_timeout_s: float | None = None,
                 start_method: str | None = None, main=_worker_main):
        self._main = main
        try:
            self._ctx = multiprocessing.get_context(start_method or "fork")
        except ValueError:  # platform without fork: the default context
            self._ctx = multiprocessing.get_context()
        self.job_timeout_s = job_timeout_s
        #: Workers rebuilt after a crash or a hard kill (server stats).
        self.restarts = 0
        self._workers = [_Worker(self._ctx, main) for _ in range(workers)]
        self._threads = ThreadPoolExecutor(max_workers=max(workers, 1),
                                           thread_name_prefix="repro-pool")
        self._closed = False

    def pids(self) -> list[int | None]:
        """Current worker pids, by slot (stats / kill-the-worker tests)."""
        return [worker.pid for worker in self._workers]

    async def run(self, slot: int, task):
        """Run ``task`` on ``slot``'s worker; supervise the outcome.

        On :class:`WorkerCrash` or :class:`JobTimeoutError` the slot's
        worker is hard-killed and respawned *before* the exception
        propagates, so the pool is whole again by the time the caller
        decides whether to retry.
        """
        loop = asyncio.get_event_loop()
        worker = self._workers[slot]
        try:
            return await loop.run_in_executor(
                self._threads, worker.call, task, self.job_timeout_s)
        except (WorkerCrash, JobTimeoutError):
            await loop.run_in_executor(None, self._replace, slot)
            raise

    def _replace(self, slot: int) -> None:
        self._workers[slot].kill()
        self._workers[slot] = _Worker(self._ctx, self._main)
        self.restarts += 1

    def shutdown(self) -> None:
        """Stop every worker and join the wait threads (blocking).

        Call off the event loop (``run_in_executor(None, ...)``) — and
        never from one of this pool's own wait threads.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.stop()
        self._workers = []
        self._threads.shutdown(wait=True)
