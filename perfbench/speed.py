"""Machine-speed sampling, to rescale timings to a reference speed.

The benchmark shares a small machine whose speed drifts by tens of per cent
within a minute (other tenants on the same cores): the same pass can take 5 s
or 8 s.  To take that drift out of the end-to-end times, a fixed
calibration kernel (pure-Python bytecode: attribute access, calls, small
integers, a generator; no code of the package) is timed in thread CPU time
five times per second while a time is measured, by a ``SIGALRM`` handler in
the benchmark process and in every process forked from it meanwhile (the
sweep's pool workers).  Timings are then divided by

    slowdown = mean kernel time while measuring / REFERENCE_S

so they read as on a machine that runs the kernel in REFERENCE_S, the
kernel's typical time on the 2-core machine where the benchmark was defined.
A program change does not move the kernel, so it moves the rescaled times as
much as the raw ones.

Samples taken in forked workers reach the parent through a shared anonymous
mapping with one slot per process.  The handler's own time is kept per slot,
so the benchmark can take it out of the timings.
"""

from __future__ import annotations

import gc
import mmap
import os
import signal
import struct
import time

INTERVAL_S = 0.2
REFERENCE_S = 0.0015
SLOTS = 64
# Per process: kernel thread-CPU seconds, samples, handler wall seconds.
_SLOT = struct.Struct("ddd")


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


_PAIRS = [_Pair(i, i + 1) for i in range(64)]
_BITS = frozenset(range(5))


def _mix(pair: _Pair, x: int) -> int:
    return (pair.a * x + pair.b) & 1023


def kernel_seconds() -> float:
    """Thread CPU time of one run of the calibration kernel, with the GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        s = 0
        for i in range(1500):
            s += _mix(_PAIRS[i & 63], i) + sum(1 << j for j in _BITS if j & 1)
            s ^= (i, s & 7)[1]
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


class Reading:
    """What the sampler saw between one start() and stop()."""

    def __init__(self, slots: list[tuple[float, float, float]]) -> None:
        kernel = sum(s[0] for s in slots)
        samples = sum(s[1] for s in slots)
        self.samples = int(samples)
        self.slowdown = kernel / samples / REFERENCE_S if samples else 1.0
        self.own_wall_s = slots[0][2]  # handler time in the benchmark process
        self.cpu_s = kernel  # handler CPU time, all processes (kernel dominates)


class SpeedSampler:
    """Samples the kernel in this process and its forks between start() and stop()."""

    def __init__(self) -> None:
        self._shared = mmap.mmap(-1, SLOTS * _SLOT.size)
        self._slot = 0
        self._forks = 0
        self._active = False
        self._busy = False
        signal.signal(signal.SIGALRM, self._on_alarm)
        os.register_at_fork(before=self._before_fork, after_in_child=self._after_fork_in_child)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy or self._slot >= SLOTS:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            spent = kernel_seconds()
            offset = self._slot * _SLOT.size
            kernel, samples, wall = _SLOT.unpack_from(self._shared, offset)
            _SLOT.pack_into(self._shared, offset, kernel + spent, samples + 1,
                            wall + time.perf_counter() - start)
        finally:
            self._busy = False

    def _before_fork(self) -> None:
        if self._active:
            self._forks += 1

    def _after_fork_in_child(self) -> None:
        # The child inherits the handler but not the timer.
        self._slot = self._forks if self._active else SLOTS
        if self._active and self._slot < SLOTS:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def start(self) -> None:
        self._shared[:] = bytes(len(self._shared))
        self._slot = self._forks = 0
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> Reading:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._active = False
        used = min(self._forks + 1, SLOTS)
        return Reading([_SLOT.unpack_from(self._shared, i * _SLOT.size) for i in range(used)])
