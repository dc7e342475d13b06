"""The benchmark's own arithmetic: percentiles, failure counting, span
attribution and output digests.

Everything here is pure (no repro import, no I/O) so the rules the
benchmark reports by can be unit-tested in isolation.
"""

from __future__ import annotations

import hashlib
import json
import math

#: Percentiles tried, highest first, when choosing the tail percentile
#: a sample set can support.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it is reported as
#: resolved.
MIN_TAIL_SAMPLES = 10


def nearest_rank(samples, pct: float) -> tuple[float, int]:
    """The ``pct`` percentile by nearest rank, and its 1-based rank.

    The value is an actual sample: the smallest one with at least
    ``pct`` percent of the samples at or below it.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(samples)
    # Round before ceil so 90 % of 10 samples is rank 9, not 10 through
    # floating-point noise in 0.9 * 10.
    rank = max(1, math.ceil(round(pct * len(ordered) / 100.0, 9)))
    return ordered[rank - 1], rank


def samples_beyond(samples, pct: float) -> int:
    """How many samples lie strictly beyond the ``pct`` percentile's rank."""
    _, rank = nearest_rank(samples, pct)
    return len(samples) - rank


def tail_percentile(samples) -> float | None:
    """The highest ladder percentile with enough samples beyond it.

    Returns ``None`` when even the median has fewer than
    :data:`MIN_TAIL_SAMPLES` samples beyond it.
    """
    for pct in TAIL_LADDER:
        if samples_beyond(samples, pct) >= MIN_TAIL_SAMPLES:
            return pct
    return None


def latency_summary(samples) -> dict:
    """Median and p90 with the sample count and the tail each rests on."""
    p50, _ = nearest_rank(samples, 50.0)
    p90, _ = nearest_rank(samples, 90.0)
    return {
        "n": len(samples),
        "p50": p50,
        "p90": p90,
        "p90_tail_samples": samples_beyond(samples, 90.0),
        "p90_resolved": samples_beyond(samples, 90.0) >= MIN_TAIL_SAMPLES,
        "tail_pct": tail_percentile(samples),
    }


def fail_ratio(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def digest(payload) -> str:
    """A stable hash of JSON-shaped output data (floats by ``repr``)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def attribute(spans, start: float, end: float) -> dict:
    """Split the window ``[start, end]`` among the spans open in it.

    ``spans`` are ``(start, end, name, thread, depth)`` tuples; spans of
    one thread nest properly (``depth`` counts the open spans around
    each one in its thread).  At each instant the innermost open span of
    every thread is charged; when ``k`` threads have a span open, each
    of their innermost spans gets ``1/k`` of that instant, so the self
    times never add up to more than the window.  Returns:

    * ``self_s``: name -> seconds charged to spans of that name;
    * ``calls``: name -> number of spans;
    * ``inclusive_s``: name -> summed span durations;
    * ``unattributed_s``: time no span was open;
    * ``overlap_s``: time spans of two or more threads were open.

    By construction ``sum(self_s.values()) + unattributed_s`` equals
    ``end - start``.
    """
    events = []
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    for s_start, s_end, name, thread, depth in spans:
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + (s_end - s_start)
        s_start, s_end = max(s_start, start), min(s_end, end)
        if s_end < s_start:
            continue
        # At equal times closes go before opens, outer opens before inner
        # and inner closes before outer, so per-thread stacks stay nested.
        events.append((s_start, 1, depth, thread, name))
        events.append((s_end, 0, -depth, thread, name))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    self_s = {name: 0.0 for name in calls}
    stacks: dict[object, list[str]] = {}
    unattributed = overlap = 0.0
    now = start
    for time_, kind, _, thread, name in events + [(end, 0, 0, None, None)]:
        dt = time_ - now
        if dt > 0:
            open_threads = [stack for stack in stacks.values() if stack]
            if not open_threads:
                unattributed += dt
            else:
                share = dt / len(open_threads)
                for stack in open_threads:
                    self_s[stack[-1]] += share
                if len(open_threads) > 1:
                    overlap += dt
            now = time_
        if thread is None:
            break
        stack = stacks.setdefault(thread, [])
        if kind == 1:
            stack.append(name)
        else:
            stack.pop()
    return {"self_s": self_s, "calls": calls, "inclusive_s": inclusive,
            "unattributed_s": unattributed, "overlap_s": overlap}
