"""Reference kernel: fixed work that measures how fast the host runs right now.

The shared VMs this benchmark runs on change speed by tens of percent, for
plain Python as much as for numpy, and can drift by 30% within one 30 s
run. `run.py` times this kernel right after every operation and scales
that operation's time by `NOMINAL_MS` over the kernel's time, which takes
most of that drift out of the gated metrics. The kernel uses only Python
and numpy, never the package, so a change to the package leaves its work
unchanged. Its three parts are the kinds of work the package does: a
Python loop, a scatter-min into an image-sized buffer and sorts of 2 MB
arrays. It allocates nothing per call, so its time does not depend on the
state the package's allocations left the heap in; it holds about 6 MB.
Arrays of that size follow the package's slow phases, which are partly
memory-bound: a variant with 1 MB of cache-resident arrays cut the spread
of pick-tabletop's latency over ten seeds only from 0.083 to 0.069 of the
median, where this one cut it from 0.119 to 0.024.
"""

from __future__ import annotations

import time

import numpy as np

# About the median of `run_once` on the machine the baseline was recorded
# on (2-core Intel Xeon KVM guest, Python 3.11, numpy 2.4), so scaled times
# there read close to wall times. A fixed constant: changing it shifts every scaled
# metric, so it changes only with a new baseline.
NOMINAL_MS = 17.0

_WIDTH, _HEIGHT = 640, 480
_LOOP = 100_000
_SORTS = 4


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20230525)
        self._idx = rng.integers(0, _WIDTH * _HEIGHT, 60_000)
        self._val = rng.random(60_000)
        self._vec = rng.random(250_000)
        self._buf = np.empty(_WIDTH * _HEIGHT)
        self._work = np.empty_like(self._vec)
        self.run_once()  # first call pays the lazy set-up of numpy's ufuncs

    def run_once(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(_LOOP):
            acc += i * i
        self._buf.fill(np.inf)
        np.minimum.at(self._buf, self._idx, self._val)
        for _ in range(_SORTS):
            self._work[:] = self._vec
            self._work.sort()
        elapsed = time.perf_counter() - t0
        if acc <= 0 or not np.isfinite(self._buf[self._idx[0]]):
            raise AssertionError("reference kernel computed a wrong result")
        return elapsed


def scaled(latencies, ref_times) -> list[float]:
    """Each operation's time at nominal host speed; `ref_times[i]` ran right after it."""
    return [t * NOMINAL_MS / (1e3 * r) for t, r in zip(latencies, ref_times, strict=True)]
