"""Host facts and controls: CPU pinning, peak resident set, the stamp.

Imports nothing beyond the standard library, so :func:`pin_cpu` can
run before NumPy starts any thread.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import NamedTuple


def pin_cpu() -> "tuple[int, list[int]]":
    """Pin this process (and every thread or process it starts later)
    to the highest-numbered CPU it may use; returns ``(cpu, before)``.
    """
    before = sorted(os.sched_getaffinity(0))
    cpu = before[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu, before


def fix_malloc_thresholds() -> bool:
    """Fix glibc's mmap threshold at 1 MiB and trim threshold at 64 MiB.

    Left dynamic, glibc raises the mmap threshold when a large block is
    freed, so whether a later 16 MB temporary is mapped afresh or
    carved from a heap that still holds an earlier one depends on when
    the collector and the event loop happened to free things; the peak
    resident set then lands 15 MB apart from run to run.  With the
    thresholds fixed, every array of 1 MiB or more is its own mapping,
    returned on free, and small per-call temporaries stay on a heap
    that is not trimmed between calls.  Returns whether glibc took the
    settings.
    """
    import ctypes
    import ctypes.util

    name = ctypes.util.find_library("c")
    if name is None:
        return False
    try:
        libc = ctypes.CDLL(name)
        m_trim_threshold, m_mmap_threshold = -1, -3
        return bool(libc.mallopt(m_mmap_threshold, 1 << 20)
                    and libc.mallopt(m_trim_threshold, 64 << 20))
    except (OSError, AttributeError):
        return False


#: Probe length between measured slices.
PROBE_SLICE_S = 0.2
#: Probe length just before and just after the set-ups.
PROBE_SETUP_S = 0.5


class HostProbe:
    """Times fixed reference work to gauge the host's current speed.

    An iteration does ``loops`` interpreter-bound dictionary updates,
    then binary searches for ``queries`` random keys in the run's 16 MB
    key array.  None of it is repo code, so a change to the program
    cannot move it; what moves it is the shared host, whose speed
    drifts by tens of percent over seconds to minutes.  ``nominal`` is
    the rate on the host the bounds were tuned on.  See :func:`probes`
    for the two mixes in use.
    """

    def __init__(self, keys, loops: int, queries: int,
                 nominal: float) -> None:
        import numpy as np

        self.keys = keys
        self.loops = loops
        self.nominal = nominal
        rng = np.random.default_rng(0)
        self.queries = rng.integers(keys[0], keys[-1], queries,
                                    dtype=np.uint64, endpoint=True)

    def rate(self, seconds: float) -> float:
        """Reference iterations per second over ``seconds``."""
        import time

        import numpy as np

        n = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            d: "dict[int, int]" = {}
            for i in range(self.loops):
                d[i & 63] = d.get(i & 63, 0) + i
            np.searchsorted(self.keys, self.queries)
            n += 1
        return n / (time.perf_counter() - start)

    def speed(self, rates) -> float:
        """Host speed over nominal from rates taken around a span."""
        import math

        return math.prod(rates) ** (1.0 / len(rates)) / self.nominal


class Probes(NamedTuple):
    setup: HostProbe
    serving: HostProbe


def probes(keys) -> Probes:
    """The probe timed around the set-ups and the one timed around the
    measured slices.

    Set-up builds 16 MB arrays and faults their pages in, and tracks
    memory speed: its probe spends 96% of its time in the binary
    searches.  Serving tracks per-core speed: its probe spends about 70%
    of its time in the interpreter.  Timed between the same runs, each
    mix steadied its own figures and not the other's (the spreads are
    in ``README.md``).
    """
    return Probes(setup=HostProbe(keys, loops=512, queries=4096,
                                  nominal=470.0),
                  serving=HostProbe(keys, loops=8192, queries=1024,
                                    nominal=540.0))


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current resident set."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """``VmHWM`` of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(cpu: int, before: "list[int]") -> "dict[str, object]":
    import numpy as np

    return {
        "host": platform.node(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_before": before,
        "pinned_cpu": cpu,
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
    }
