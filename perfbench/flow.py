"""One workload flow in a fresh process (started by ``run.py``).

Writes one JSON object to ``--out``: the set-up time (from the parent's
spawn timestamp to the first call into the flow), and unless
``--setup-only``, the flow's wall time, per-op latencies, failures,
output digest, peak RSS and, with ``--trace 1``, its per-layer summary.
Untraced, a :class:`speedprobe.SpeedProbe` samples the host's speed
through set-up and through the flow, and both times are also given on
the reference host (``setup_s``, ``norm_wall_s``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import time

from speedprobe import SpeedProbe


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", type=pathlib.Path, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() at spawn")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # Traced flows go unprobed: the slices would land in the spans.
    probe = None if args.trace else SpeedProbe()
    if probe:
        probe.start()
    import repro  # noqa: F401  (the import is part of set-up)
    from benchmath import digest
    from workloads import WORKLOADS, Flow

    workload = WORKLOADS[args.workload]
    state = workload.prepare(args.seed, args.scratch)
    tracer = None
    if args.trace:
        import layers
        from repro.core.profile import PROFILER

        worker_dir = args.scratch / f"workers-{args.out.stem}"
        worker_dir.mkdir()
        tracer = layers.install(worker_dir)
        profile_since = PROFILER.snapshot()
    setup_wall_s = time.monotonic() - args.spawned_at
    record = {"setup_wall_s": setup_wall_s}
    if probe:
        record.update(probe.lap(setup_wall_s, "setup"))
    if not args.setup_only:
        flow = Flow()
        start = time.perf_counter()
        workload.run(flow, state)
        end = time.perf_counter()
        if probe:
            record.update(probe.lap(end - start, "norm_wall"))
        record.update(
            wall_s=end - start, ops=flow.ops, failed=flow.failed,
            digest=digest(flow.outputs), extra=flow.extra,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            record["layers"] = layers.summarize(
                tracer, start, end, PROFILER.window(profile_since),
                worker_dir, flow.extra)
    if probe:
        probe.stop()
    args.out.write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main()
