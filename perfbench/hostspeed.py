"""Timing corrected for the speed of a shared host.

On a shared host the same code runs up to 1.8x slower for minutes at a
time, and CPU time rises with wall time, so the slowdown is in the speed of
each instruction (neighbours on the same cores and caches), not in waiting
for a core; it also changes within seconds.  A fixed reference loop, which
lives here and never calls ``dcex``, is timed before, during (once a second)
and after each measured call.  Its time says how fast the host was; each
stretch of the call between two reference loops, divided by their mean
time, is that stretch's cost in reference loops, and their sum times
``REF_SECONDS`` is the call's time in seconds on a host where the reference
loop takes ``REF_SECONDS``.  A faster ``dcex`` lowers the corrected time in
proportion; a host slowed by its neighbours raises it far less than
it raises wall time.

Nothing here imports ``dcex``.
"""

from __future__ import annotations

import random
import signal
import time

import numpy as np

# About the reference loop's median time on one core of a shared 2.1 GHz
# Intel Xeon host; it only sets the scale of the corrected seconds.
REF_SECONDS = 0.07

_PY_STEPS = 60000
_NP_SIZE = 100000
_NP_ROUNDS = 16
_GATHER_SIZE = 1 << 20  # two 8 MiB arrays, beyond a core's L2 cache
_GATHER_ROUNDS = 5
_gather_arrays: tuple[np.ndarray, np.ndarray] | None = None

SAMPLE_PERIOD_S = 1.0


def reference_loop() -> float:
    """The fixed reference work; returns a checksum so it is not elided.

    It mixes what the workloads do: interpreted loops over lists, dicts and
    random floats (as the chains do), whole-array numpy work on cached data
    (as graph construction and null-graph sampling do), and random reads
    over arrays larger than L2 (as the 10k-node graph does), whose speed
    falls when neighbours compete for the shared cache and memory.
    """
    global _gather_arrays
    if _gather_arrays is None:
        rng = np.random.default_rng(54321)
        _gather_arrays = (rng.permutation(_GATHER_SIZE), rng.random(_GATHER_SIZE))
    order, values = _gather_arrays
    rng = random.Random(12345)
    pool = list(range(512))
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(_PY_STEPS):
        u = rng.random()
        j = int(u * 512)
        k = i & 511
        pool[j], pool[k] = pool[k], pool[j]
        counts[pool[j]] = counts.get(pool[j], 0) + 1
        acc += u * u
    arr = np.arange(_NP_SIZE, dtype=np.float64)
    for _ in range(_NP_ROUNDS):
        arr = np.sort(arr[::-1]) + 1.0
    for _ in range(_GATHER_ROUNDS):
        acc += float(values[order].sum())
    return acc + float(arr[0]) + len(counts)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def corrected(segments) -> float:
    """Seconds on a host where the reference takes REF_SECONDS.

    ``segments`` holds ``(wall s, reference before, reference after)`` for
    each stretch of a call between two reference loops; each stretch is
    rescaled by the mean of the two references around it.
    """
    return sum(w * REF_SECONDS / ((a + b) / 2.0) for w, a, b in segments)


class HostClock:
    """Times calls with the reference loop run around them and inside them.

    The reference runs before and after each call, and every
    ``SAMPLE_PERIOD_S`` during it, from a SIGALRM handler (Python runs it
    between bytecodes, so a long numpy call only delays it).  The handler's
    own time is cut out of the call's wall time.  The reference after one
    call is the reference before the next.
    """

    def __init__(self):
        time_reference()  # warm-up: first-call allocations are not timed
        self.last_ref = time_reference()
        self.refs = [self.last_ref]
        self._samples: list[tuple[float, float, float]] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self._samples.append((t0, t1, t1 - t0))

    def time(self, fn):
        """Run ``fn()``; returns ``(result or exception, wall s, corrected s)``.

        Wall seconds exclude the reference loops run during the call.
        """
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            out = fn()
        except Exception as exc:  # the caller counts it as a failure
            out = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        after = time_reference()
        segments = []
        seg_start, ref = t0, self.last_ref
        for s_start, s_end, s_ref in self._samples:
            segments.append((s_start - seg_start, ref, s_ref))
            seg_start, ref = s_end, s_ref
        segments.append((t1 - seg_start, ref, after))
        self.refs += [r for _, _, r in self._samples] + [after]
        self.last_ref = after
        return out, sum(w for w, _, _ in segments), corrected(segments)
