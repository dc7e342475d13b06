"""The repo's benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify_registry --seed 1 --seconds 26 --trace 0

Each flow runs in a fresh process with ``$REPRO_STORE_DIR`` unset and
``PYTHONPATH`` pointing at the checkout's ``src``.  An untraced run
(``--trace 0``) repeats the workload's flow while another one fits in
``--seconds`` and reports the end-to-end metrics; a traced run
(``--trace 1``) runs the flow once untraced and twice traced and
reports the per-layer metrics, the tracing overhead and how far the
two traced flows' call counts differ.

Standard output ends with two JSON lines: the full record (machine
fingerprint, outputs digest, every metric with its unit and sample
counts) and the result line
``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

from benchmath import fail_ratio, geomean, latency_summary
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent

#: Set-up samples per untraced run; flows beyond the first give theirs,
#: set-up-only processes make up the rest.
SETUP_SAMPLES = 5

#: A flow process still running after this long is killed.
CHILD_TIMEOUT_S = 150

#: Per-layer numbers counted in these units; the rest are ratios, and
#: those in seconds (``*_s``) go on the result line as a share of the
#: traced wall (``*_share``), which reads 0 for a layer the workload
#: does not use.  The record keeps the seconds.
COUNT_SUFFIXES = ("calls", "cycles", "evaluations", "jobs", "hits",
                  "misses", "divergences", "calls_delta")


class BenchError(Exception):
    """The benchmark itself could not run (not an operation failure)."""


def fingerprint(root: pathlib.Path, args, store_mode: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode())
        source.update(path.read_bytes())
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "store_mode": store_mode,
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "git_commit": commit,
            "source_digest": source.hexdigest()[:16]}


class Runner:
    """Starts flow processes in one scratch directory of the checkout."""

    def __init__(self, root: pathlib.Path, args):
        self.root = root
        self.args = args
        self.scratch = root / ".perfbench" / (
            f"{args.workload}-{args.seed}-{os.getpid()}")
        (self.scratch / "tmp").mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.pop("REPRO_STORE_DIR", None)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["TMPDIR"] = str(self.scratch / "tmp")
        self.count = 0

    def child(self, *, trace: int = 0, setup_only: bool = False) -> dict:
        """Run one flow (or only its set-up) in a fresh process."""
        self.count += 1
        out = self.scratch / f"flow-{self.count}.json"
        cmd = [sys.executable, str(HERE / "flow.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--scratch", str(self.scratch), "--out", str(out),
               "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        spawned = time.monotonic()
        # Its own session, so a timeout kills the explore workers too.
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)],
                                cwd=self.root, env=self.env,
                                stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"flow process timed out after "
                             f"{CHILD_TIMEOUT_S} s") from None
        finally:
            if proc.poll() is None:  # timed out, or we are being stopped
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0:
            raise BenchError(f"flow process exited with code {code}")
        record = json.loads(out.read_text(encoding="utf-8"))
        record["process_s"] = time.monotonic() - spawned
        return record

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            (self.root / ".perfbench").rmdir()
        except OSError:
            pass  # another run's scratch is still there


def _per_flow(flows, num: str, den: str) -> float | None:
    """Median over flows of one ratio of their measurements.

    Flows that failed before measuring it are left out; ``None`` when
    every flow did.
    """
    ratios = [f["extra"][num] / f["extra"][den] for f in flows
              if num in f["extra"] and f["extra"].get(den)]
    return median(ratios) if ratios else None


def end_to_end(flows, setups, workload: str) -> tuple[dict, dict, dict]:
    """Gated and workload-specific metrics (name -> (value, unit)), and
    the op latency summary.  ``setups`` are the records that timed
    set-up: the flows and any set-up-only processes."""
    ops = [t for f in flows for t in f["ops"]]
    latency = latency_summary(ops)
    gated = {
        "setup_s": (median(r["setup_s"] for r in setups), "s"),
        "norm_wall_s": (median([f["norm_wall_s"] for f in flows]), "s"),
        "peak_rss_mb": (median([f["rss_mb"] for f in flows]), "MB"),
    }
    # Op latencies stay off the result line: a run has 6 to 70 ops, so
    # p90 never has ten samples beyond it, and the ops of one flow differ
    # several-fold in size, so the median op jumps between benchmarks
    # from run to run.
    specific = {"wall_s": (median([f["wall_s"] for f in flows]), "s"),
                "setup_wall_s": (median(r["setup_wall_s"] for r in setups),
                                 "s"),
                "op_p50_s": (latency["p50"], "s"),
                "op_p90_s": (latency["p90"], "s")}
    if workload in ("synth_sweep", "explore_paulin"):
        specific["evals_per_s"] = (_per_flow(flows, "evaluations",
                                             "search_s"), "1/s")
    if workload != "synth_sweep":
        specific["sim_cycles_per_s"] = (_per_flow(flows, "cycles",
                                                  "verify_s"), "1/s")
    if workload == "fuzz_small":
        specific["programs_per_s"] = (median(
            [f["extra"]["programs"] / f["wall_s"] for f in flows]), "1/s")
    specific = {name: entry for name, entry in specific.items()
                if entry[0] is not None}
    quality = flows[0]["extra"].get("quality")
    if quality:
        specific["power_x_base"] = (geomean(quality["x_base"]), "x")
        specific["power_x_apower"] = (geomean(quality["x_apower"]), "x")
        specific["area_overhead"] = (max(quality["area_overhead"]),
                                     "fraction")
    if "hypervolume" in flows[0]["extra"]:
        specific["hypervolume"] = (flows[0]["extra"]["hypervolume"], "au")
    return gated, specific, latency


def untraced(runner: Runner, seconds: int) -> dict:
    start = time.monotonic()
    flows = [runner.child()]
    longest = flows[0]["process_s"]
    while time.monotonic() - start + longest <= seconds:
        flows.append(runner.child())
        longest = max(longest, flows[-1]["process_s"])
    setups = list(flows)
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child(setup_only=True))
    gated, specific, latency = end_to_end(flows, setups, runner.args.workload)
    return {"flows": flows, "metrics": gated, "specific": specific,
            "samples": {"flows": len(flows), "setups": len(setups),
                        "walls": [f["wall_s"] for f in flows],
                        "norm_walls": [f["norm_wall_s"] for f in flows],
                        "probes": [f["norm_wall_probe"] for f in flows],
                        "ops": latency}}


def traced(runner: Runner) -> dict:
    plain = runner.child()
    first, second = runner.child(trace=1), runner.child(trace=1)
    layers = first["layers"]
    wall = layers["wall_s"]
    detail = dict(layers["metrics"])
    detail["trace.wall_s"] = wall
    # The plain flow is probed; the traced ones are not.
    detail["trace.overhead_ratio"] = wall / (
        plain["wall_s"] - (plain["norm_wall_probe"] or {}).get("probe_s", 0))
    calls_delta = {
        name: second["layers"]["metrics"][name] - value
        for name, value in layers["metrics"].items()
        if name.endswith("calls")
        and second["layers"]["metrics"][name] != value}
    detail["trace.calls_delta"] = sum(abs(d) for d in calls_delta.values())

    metrics = {"trace.wall_s": (wall, "s")}
    for name, value in detail.items():
        if name == "trace.wall_s" or name.endswith("cycles_per_s"):
            continue  # cycles_per_s: the record has it
        if name.endswith("_s"):
            metrics[name[:-2] + "_share"] = (value / wall, "fraction")
        else:
            metrics[name] = (value, "count" if name.endswith(COUNT_SUFFIXES)
                             else "ratio")
    return {"flows": [plain, first, second], "metrics": metrics,
            "specific": {},
            "trace": {"per_layer_s": detail, "calls_delta": calls_delta,
                      "self_sum_s": layers["self_sum_s"],
                      "identity_error_s": (layers["self_sum_s"]
                                           + detail["unattributed_s"] - wall),
                      "workers": layers["workers"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running flow process and
    # its workers are killed and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    runner = Runner(root, args)
    try:
        result = traced(runner) if args.trace else untraced(runner,
                                                            args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    flows = result["flows"]
    attempted = sum(len(f["ops"]) for f in flows)
    failed = sum(f["failed"] for f in flows)
    digests = sorted({f["digest"] for f in flows})
    correct = failed == 0 and len(digests) == 1
    record = {
        "fingerprint": fingerprint(root, args,
                                   WORKLOADS[args.workload].store_mode),
        "outputs_digest": digests[0] if len(digests) == 1 else digests,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": fail_ratio(attempted, failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in {**result["metrics"],
                                                **result["specific"]}.items()},
    }
    for key in ("samples", "trace"):
        if key in result:
            record[key] = result[key]
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
