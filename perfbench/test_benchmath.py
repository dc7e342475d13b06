"""Tests of the benchmark's own arithmetic (no repro import)."""

import math
import sys
import threading
import time
import types

import pytest

from benchmath import (
    attribute,
    digest,
    fail_ratio,
    latency_summary,
    nearest_rank,
    samples_beyond,
    tail_percentile,
)
from spans import Tracer, patch_everywhere
from speedprobe import REFERENCE_SLICE_S, SpeedProbe


def span(start, end, name, thread=1, depth=0):
    return (start, end, name, thread, depth)


# -- self time, overlap, unattributed ---------------------------------------------


def test_nested_spans_charge_only_the_innermost():
    spans = [span(0.0, 10.0, "outer"),
             span(2.0, 5.0, "inner", depth=1),
             span(3.0, 4.0, "leaf", depth=2),
             span(6.0, 7.0, "inner", depth=1)]
    out = attribute(spans, 0.0, 10.0)
    assert out["self_s"] == pytest.approx({"outer": 6.0, "inner": 3.0,
                                           "leaf": 1.0})
    assert out["calls"] == {"outer": 1, "inner": 2, "leaf": 1}
    assert out["inclusive_s"]["inner"] == pytest.approx(4.0)
    assert out["unattributed_s"] == pytest.approx(0.0)
    assert out["overlap_s"] == 0.0


def test_time_outside_every_span_is_unattributed():
    spans = [span(1.0, 2.0, "a"), span(4.0, 4.5, "b")]
    out = attribute(spans, 0.0, 5.0)
    assert out["unattributed_s"] == pytest.approx(3.5)
    assert sum(out["self_s"].values()) + out["unattributed_s"] == \
        pytest.approx(5.0)


def test_spans_of_two_threads_share_the_overlap():
    # Thread 1 runs a over [0, 4]; thread 2 runs b over [2, 6].  During
    # [2, 4] both are open, so each is charged half of it.
    spans = [span(0.0, 4.0, "a", thread=1), span(2.0, 6.0, "b", thread=2)]
    out = attribute(spans, 0.0, 8.0)
    assert out["self_s"] == pytest.approx({"a": 3.0, "b": 3.0})
    assert out["overlap_s"] == pytest.approx(2.0)
    assert out["unattributed_s"] == pytest.approx(2.0)
    assert sum(out["self_s"].values()) + out["unattributed_s"] == \
        pytest.approx(8.0)


def test_nested_spans_in_two_threads():
    spans = [span(0.0, 6.0, "search", thread=1),
             span(1.0, 3.0, "schedule", thread=1, depth=1),
             span(2.0, 4.0, "search", thread=2)]
    out = attribute(spans, 0.0, 6.0)
    # [1, 2]: schedule alone; [2, 3]: schedule and thread 2's search
    # split; [3, 4]: the two searches split.
    assert out["self_s"]["schedule"] == pytest.approx(1.5)
    assert out["self_s"]["search"] == pytest.approx(1.0 + 0.5 + 1.0 + 2.0)
    assert out["overlap_s"] == pytest.approx(2.0)
    assert out["unattributed_s"] == pytest.approx(0.0)


def test_spans_are_clipped_to_the_window():
    spans = [span(-1.0, 1.0, "a"), span(9.0, 12.0, "b")]
    out = attribute(spans, 0.0, 10.0)
    assert out["self_s"] == pytest.approx({"a": 1.0, "b": 1.0})
    assert out["unattributed_s"] == pytest.approx(8.0)


def test_spans_touching_at_one_instant_keep_their_nesting():
    spans = [span(0.0, 2.0, "outer"), span(0.0, 1.0, "inner", depth=1),
             span(2.0, 3.0, "next")]
    out = attribute(spans, 0.0, 3.0)
    assert out["self_s"] == pytest.approx({"outer": 1.0, "inner": 1.0,
                                           "next": 1.0})


def test_tracer_records_real_nesting_across_threads():
    tracer = Tracer()
    leaf = tracer.wrapper("leaf", lambda: None)
    outer = tracer.wrapper("outer", lambda: leaf())
    worker = threading.Thread(target=outer)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    outer()
    assert sorted((s[2], s[4]) for s in tracer.spans) == [
        ("leaf", 1), ("leaf", 1), ("outer", 0), ("outer", 0)]
    threads = {s[3] for s in tracer.spans}
    assert len(threads) == 2


def test_observe_sees_results_and_exceptions():
    seen = []
    tracer = Tracer()

    def fails():
        raise KeyError("x")

    ok = tracer.wrapper("ok", lambda: 3, lambda t, r, e: seen.append((r, e)))
    bad = tracer.wrapper("bad", fails, lambda t, r, e: seen.append((r, e)))
    assert ok() == 3
    with pytest.raises(KeyError):
        bad()
    assert seen[0] == (3, None)
    assert isinstance(seen[1][1], KeyError)
    assert [s[2] for s in tracer.spans] == ["ok", "bad"]


def test_patch_everywhere_rebinds_every_alias_and_undoes():
    def original():
        return "original"

    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")
    home.f = original
    user.g = original  # as after `from fakepkg.home import f as g`
    sys.modules["fakepkg.home"] = home
    sys.modules["fakepkg.user"] = user
    try:
        undo = patch_everywhere(original, lambda: "traced", prefix="fakepkg")
        assert home.f() == user.g() == "traced"
        for module, key, value in undo:
            setattr(module, key, value)
        assert home.f is original and user.g is original
    finally:
        del sys.modules["fakepkg.home"], sys.modules["fakepkg.user"]


# -- percentiles and the sample-count rule -----------------------------------------


def test_nearest_rank_picks_a_sample():
    samples = [float(v) for v in range(1, 11)]  # 1..10
    assert nearest_rank(samples, 50.0) == (5.0, 5)
    assert nearest_rank(samples, 90.0) == (9.0, 9)
    assert nearest_rank(samples, 100.0) == (10.0, 10)
    assert nearest_rank([7.0], 90.0) == (7.0, 1)
    with pytest.raises(ValueError):
        nearest_rank([], 50.0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(list(range(100)), 90.0) == 10
    assert tail_percentile(list(range(100))) == 90.0
    assert tail_percentile(list(range(99))) == 75.0
    assert tail_percentile(list(range(1000))) == 99.0
    assert tail_percentile(list(range(20))) == 50.0
    assert tail_percentile(list(range(19))) is None


def test_latency_summary_states_its_sample_count():
    summary = latency_summary([0.1 * v for v in range(1, 12)])
    assert summary["n"] == 11
    assert summary["p50"] == pytest.approx(0.6)
    assert summary["p90"] == pytest.approx(1.0)
    assert summary["p90_tail_samples"] == 1
    assert summary["p90_resolved"] is False
    assert summary["tail_pct"] is None


# -- failures, digest --------------------------------------------------------


def test_fail_ratio_counts_failures_against_attempts():
    assert fail_ratio(16, 0) == 0.0
    assert fail_ratio(16, 4) == 0.25
    for attempted, failed in ((0, 0), (3, 4), (3, -1)):
        with pytest.raises(ValueError):
            fail_ratio(attempted, failed)


def test_digest_is_exact_on_floats_and_key_order():
    assert digest({"a": 1, "b": [0.1]}) == digest({"b": [0.1], "a": 1})
    assert digest([0.1]) != digest([0.1 + math.ulp(0.1)])


# -- host-speed scaling ------------------------------------------------------


def test_lap_scales_probe_free_time_to_the_reference_host():
    probe = SpeedProbe()
    probe.slices = [2 * REFERENCE_SLICE_S, 2 * REFERENCE_SLICE_S]
    probe.probe_s = 0.5
    lap = probe.lap(10.5, "flow")
    # A host twice as slow as the reference: half the probe-free time.
    assert lap["flow_s"] == pytest.approx(5.0)
    assert lap["flow_probe"]["slices"] == 2
    # The next lap starts empty; an unsampled interval stays as measured.
    assert probe.lap(0.01, "flow") == {"flow_s": 0.01, "flow_probe": None}


def test_probe_samples_while_the_main_thread_runs():
    probe = SpeedProbe(every=0.005)
    probe.start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    lap = probe.lap(0.2, "spin")
    assert lap["spin_probe"]["slices"] > 0
    assert 0 < lap["spin_probe"]["probe_s"] < 0.2
