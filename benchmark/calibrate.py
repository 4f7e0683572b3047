"""Host-speed calibration: a fixed kernel timed between calls.

The hosts this benchmark runs on change speed by up to 2.3x over seconds to
minutes (README.md, Steadiness), and calls of a millisecond or more slow
down together with this kernel; shorter calls and process start-up follow
it only in part.
So the worker times this kernel, which is the benchmark's own fixed code and
never calls the program, at most every ``PERIOD_S`` between calls, and the
parent scales each call's latency by ``REF_MS`` over the kernel's time around
that call.  A scaled latency is the latency the call would have had while the
kernel took ``REF_MS``: the same unit, with the host's speed taken out.

The kernel mixes, in about equal shares of its time, the kinds of work the
program does: small-integer interpreter steps (function calls, adds,
compares), a list used as a stack (as the reference machines keep their
frames), multiplies of ~9,500-bit integers and decrements of a 19,729-digit
one.  Its only container is one list per run, so it triggers the garbage
collector about once in 700 runs and barely depends on the program's heap.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: The kernel's time, in ms, on the reference host (a 2-vCPU Xeon VM at
#: 2.1 GHz, Python 3.11, in its fast phase).  It sets the scale of every
#: scaled metric and nothing else; changing it invalidates stored medians.
REF_MS = 0.6
#: Time the kernel at most this often, between calls.
PERIOD_S = 0.05
#: A call is scaled by the median kernel time from ``WINDOW_S`` before it
#: starts to ``WINDOW_S`` after it ends, over at least ``MIN_SAMPLES``
#: samples: where there are fewer (between long calls), the nearest ones.
WINDOW_S = 0.25
MIN_SAMPLES = 5

_BIG = 3**6000
_BITS = _BIG.bit_length()
_HUGE = 2**65536


def _add(a: int, b: int) -> int:
    return a + b


def kernel() -> int:
    s = 0
    for i in range(1500):  # interpreter steps on small integers
        s = _add(s, i & 7)
        if s > 100000:
            s -= 100000
    frames = []
    for i in range(1500):  # a list used as a stack
        frames.append(i ^ s)
        if len(frames) > 40:
            frames.pop()
            frames.pop()
    x = _BIG
    for _ in range(4):  # multiplies of ~9,500-bit integers
        x = (x * _BIG) >> _BITS
    y = _HUGE
    for _ in range(60):  # decrements of a 19,729-digit integer
        y -= 1
    return s + len(frames) + (x & 1) + (y & 1)


def sample_ms() -> float:
    """One timed run of the kernel, in ms."""
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3


class Sampler:
    """Kernel samples ``[seconds since start, ms]``, taken at most every PERIOD_S."""

    def __init__(self, start: float):
        self.start = start
        self.samples = []
        self._last = float("-inf")

    def maybe(self, now: float) -> None:
        if now - self._last >= PERIOD_S:
            self.samples.append([now - self.start, sample_ms()])
            self._last = time.perf_counter()


def scaled_ms(latencies_ms, starts_s, samples) -> list[float]:
    """Each latency times REF_MS over the median kernel time around its call."""
    if not samples:
        raise ValueError("no calibration samples")
    times = [t for t, _ in samples]
    want = min(MIN_SAMPLES, len(samples))
    out = []
    for latency, t0 in zip(latencies_ms, starts_s):
        t1 = t0 + latency / 1e3
        lo = bisect.bisect_left(times, t0 - WINDOW_S)
        hi = bisect.bisect_right(times, t1 + WINDOW_S)
        while hi - lo < want:  # widen towards the nearer sample outside
            if hi == len(times) or (lo > 0 and t0 - times[lo - 1] <= times[hi] - t1):
                lo -= 1
            else:
                hi += 1
        local = statistics.median(ms for _, ms in samples[lo:hi])
        out.append(latency * REF_MS / local)
    return out


def host_speed(samples) -> float:
    """REF_MS over the median kernel time: 1.0 on the reference host's fast phase."""
    return REF_MS / statistics.median(ms for _, ms in samples)
