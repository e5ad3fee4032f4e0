"""Host-speed reference: every end-to-end time is scaled to a steady host.

The benchmark shares a few cores of a host with other tenants.  Their load
slows everything a run does, by up to 60%, for stretches that last from
seconds to minutes, so the same call reads 0.10 s in one run and 0.16 s in
the next.  Process CPU time slows just as much, so it does not help.

A run cannot wait for a quiet host; instead it measures how fast the host
is at each timed call.  A fixed reference kernel, which uses nothing from
the library, runs right before and right after the call.  Each part of the
kernel, timed over its ``NOMINAL_S``, gives a slowdown; their mean over the
parts and the two runs of the kernel is the host's slowdown at that
moment.  The call's time divided by the slowdown is its *scaled* time: what
the call would take on the host the kernel was tuned on, at its usual
speed.

The parts are the kinds of work the library's calls do: an interpreter
loop, small numpy calls whose cost is mostly dispatch (as in k = 9
inference and EM), and passes over arrays larger than L2, which slow with
the other tenants' use of the shared cache (as the k = 125 and k = 512
models' tensor contractions do).  A workload chooses the parts its calls
resemble; see the benchmark's README for the traces behind the choice.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of each part on the host it was tuned on (2 vCPUs of a shared
# Xeon, 2 MB of L2 per core).
NOMINAL_S = {"loop": 0.0038, "small": 0.0025, "cache": 0.0025}
INTERPRETER = ("loop", "small")
WITH_CACHE = ("loop", "small", "cache")

_LOOP = 20_000  # integer arithmetic and dict stores
_SMALL_OPS = 500  # 9 x 9 matrix-vector steps, as in k = 9 inference
_CACHE_DOUBLES = 1 << 20  # 8 MB in, 8 MB out: more than L2 holds
_CACHE_PASSES = 3


class HostClock:
    """Times calls and scales each by the host's slowdown around it."""

    def __init__(self, parts=WITH_CACHE, tracer=None):
        self.parts = tuple(parts)
        self.tracer = tracer
        self.slowdowns: list[float] = []
        self._matrix = np.random.default_rng(0).random((9, 9))
        if "cache" in self.parts:
            self._src = np.ones(_CACHE_DOUBLES)
            self._dst = np.empty(_CACHE_DOUBLES)

    def _part(self, name: str) -> None:
        if name == "loop":
            total = 0
            slots = {}
            for i in range(_LOOP):
                total += i * 3 % 7
                slots[i & 1023] = total
        elif name == "small":
            v = np.ones(9)
            for _ in range(_SMALL_OPS):
                v = self._matrix @ v
                v = v / v.sum()
        else:
            for _ in range(_CACHE_PASSES):
                np.multiply(self._src, 1.0001, out=self._dst)

    def reference(self) -> float:
        """Run the kernel's parts once; return the mean slowdown of the parts."""
        slowdown = 0.0
        for name in self.parts:
            t0 = time.perf_counter()
            self._part(name)
            slowdown += (time.perf_counter() - t0) / NOMINAL_S[name]
        return slowdown / len(self.parts)

    def _bracket(self) -> float:
        if self.tracer is None:
            return self.reference()
        with self.tracer.span("bench.reference"):
            return self.reference()

    def time(self, fn, *args, **kwargs):
        """Call ``fn``; return ``(result, seconds, scaled seconds)``."""
        before = self._bracket()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        slowdown = (before + self._bracket()) / 2.0
        self.slowdowns.append(slowdown)
        return out, seconds, seconds / slowdown
