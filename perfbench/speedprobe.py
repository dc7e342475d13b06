"""How fast the host runs Python while a flow runs.

On a shared host the same flow's wall time moves by a fifth and more
within minutes, because other tenants take the cores' time and caches.
:class:`SpeedProbe` samples that speed throughout the flow: a timer
interrupts the flow every ``every`` seconds and times one fixed slice
of interpreter work (:func:`kernel`).  The mean slice time over the
flow says how slow the host was while the flow ran, so

    norm_wall_s = (wall_s - probe_s) * REFERENCE_SLICE_S / mean_slice_s

is the flow's wall time on a host whose slice takes
``REFERENCE_SLICE_S``; ``probe_s``, the time spent in the probe itself,
is taken out first.  Set-up time is scaled the same way.  A change to
the program moves ``norm_wall_s`` as it moves the wall time; the host's
changing speed moves both the wall time and the slices, and cancels.

Only the main thread takes the timer signal.  While a slice runs, the
thread switch interval is raised so that no other thread of the flow
runs inside it.
"""

from __future__ import annotations

import signal
import sys
import time

#: Slice time, in seconds, of the reference host: about the median slice
#: on a shared 2-core Intel Xeon VM, so normalized times there read
#: close to wall times.
REFERENCE_SLICE_S = 0.0015

#: Loop iterations of one slice.
KERNEL_ITERATIONS = 6000


def kernel(n: int = KERNEL_ITERATIONS) -> int:
    """Fixed interpreter work: integer arithmetic, dict, list, calls."""
    table: dict = {}
    items: list = []
    acc = 0
    for i in range(n):
        key = i & 63
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + (i ^ key)) & 0xFFFFFF
        if key == 0:
            items.append(len(table))
    return acc + sum(items)


class SpeedProbe:
    """Times one :func:`kernel` slice every ``every`` seconds."""

    def __init__(self, every: float = 0.05) -> None:
        self.every = every
        self.slices: list[float] = []
        self.probe_s = 0.0
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, *_) -> None:
        entered = time.perf_counter()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        start = time.perf_counter()
        kernel()
        self.slices.append(time.perf_counter() - start)
        sys.setswitchinterval(interval)
        self.probe_s += time.perf_counter() - entered

    def lap(self, wall_s: float, name: str) -> dict:
        """``wall_s``, the wall time since the last lap, on the reference
        host as ``<name>_s``, with the samples behind it as
        ``<name>_probe``; the next lap starts now."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        slices, probe_s = self.slices, self.probe_s
        self.slices, self.probe_s = [], 0.0
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        if not slices:  # too short to be sampled
            return {f"{name}_s": wall_s, f"{name}_probe": None}
        mean_slice_s = sum(slices) / len(slices)
        return {f"{name}_s": ((wall_s - probe_s) * REFERENCE_SLICE_S
                              / mean_slice_s),
                f"{name}_probe": {"slices": len(slices), "probe_s": probe_s,
                                  "mean_slice_s": mean_slice_s}}
