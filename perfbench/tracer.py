"""Outside-in tracer for the r2subfield package.

The tracer replaces module-level names of the package with wrappers and puts
the originals back afterwards; the package's own code is not changed.  A
wrapped name is traced in one of three modes:

* ``SPAN``: every call records a span (id, parent id, request id, name,
  start, end) kept in memory, and adds to the name's self time and call count;
* ``TIMED``: for hot calls, the same self time and call count but no span
  record;
* ``COUNTED``: the call count only, for calls too hot to time (their time
  stays in the caller's self time).

A name's self time is its wall time minus the wall time of the traced calls
it made.  Self times telescope: for each root span (one ``cli.main`` call)
the self times gathered during the call add up to the span's duration
exactly, in integer nanoseconds, and :meth:`Tracer.root` checks this.

A process forked while the tracer is installed (a worker of the sweep's
process pool) keeps tracing.  Each span that ends at the bottom of a
worker's stack copies the worker's totals into the worker's slot of a shared
anonymous mapping, and :meth:`Tracer.take` adds the slots to the parent's
totals.  Worker span records stay in the worker, and worker self times add up to their
busy time, not to the parent's span.
"""

from __future__ import annotations

import mmap
import os
import struct
import time
from collections import Counter

SPAN, TIMED, COUNTED = "span", "timed", "counted"
SLOTS = 64  # worker processes with a slot in one traced pass

_now = time.perf_counter_ns


class TraceError(RuntimeError):
    """The trace does not account for the time it covers."""


class Tracer:
    def __init__(self, names) -> None:
        """``names`` lists every trace name a worker may report."""
        # (span id, parent span id, request id, name, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.units: Counter[str] = Counter()
        self.absent: list[str] = []
        # Frames are [child ns, span id, request id]; the bottom frame has no span.
        self._stack: list[list[int]] = [[0, 0, 0]]
        self._next_id = 1
        self._installed: list[tuple[object, str, object]] = []
        self._names = tuple(names)
        # Per worker and name: self ns, calls, units.
        self._layout = struct.Struct(f"{3 * len(self._names)}q")
        self._shared = mmap.mmap(-1, SLOTS * self._layout.size)
        self._slot = 0  # 0 in the tracing process, 1.. in its workers
        self._forks = 0
        os.register_at_fork(before=self._before_fork, after_in_child=self._after_fork_in_child)

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn, unit):
        stack, spans = self._stack, self.spans
        self_ns, calls, units = self.self_ns, self.calls, self.units

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            request = parent[2] or span_id
            frame = [0, span_id, request]
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                parent[0] += end - start
                self_ns[name] += end - start - frame[0]
                calls[name] += 1
                spans.append((span_id, parent[1], request, name, start, end))
            if unit is not None:
                units[name] += unit(args, result)
            if self._slot and len(stack) == 1:
                self._publish()
            return result

        return wrapper

    def _timed(self, name, fn):
        stack, self_ns, calls = self._stack, self.self_ns, self.calls

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0, parent[1], parent[2]]
            stack.append(frame)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                stack.pop()
                parent[0] += elapsed
                self_ns[name] += elapsed - frame[0]
                calls[name] += 1

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, name, fn):
        """Wrap an entry point; each call checks that self times sum to its span."""
        inner = self._span(name, fn, None)

        def call(*args, **kwargs):
            before = sum(self.self_ns.values())
            try:
                return inner(*args, **kwargs)
            finally:
                _, _, _, _, start, end = self.spans[-1]
                covered = sum(self.self_ns.values()) - before
                if covered != end - start:
                    raise TraceError(
                        f"self times of one {name} span sum to {covered} ns, "
                        f"the span lasted {end - start} ns"
                    )

        return call

    # ------------------------------------------------------- installation

    def install(self, module, attr: str, name: str, mode=SPAN, unit=None) -> None:
        """Replace ``module.attr`` by a traced wrapper; a missing name is noted as absent.

        ``unit(args, result)`` of a ``SPAN`` call adds to the name's unit count.
        """
        original = getattr(module, attr, None)
        if original is None:
            if f"{module.__name__}.{attr}" not in self.absent:
                self.absent.append(f"{module.__name__}.{attr}")
            return
        if mode == SPAN:
            wrapper = self._span(name, original, unit)
        elif mode == TIMED:
            wrapper = self._timed(name, original)
        else:
            wrapper = self._count(name, original)
        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # ------------------------------------------------------------ workers

    def _before_fork(self) -> None:
        if self._installed:
            self._forks += 1

    def _after_fork_in_child(self) -> None:
        if not self._installed or self._forks >= SLOTS:
            self.uninstall()
            return
        self._slot = self._forks
        del self._stack[1:]
        self._stack[0][0] = 0
        self.spans.clear()
        for counter in (self.self_ns, self.calls, self.units):
            counter.clear()

    def _publish(self) -> None:
        """Copy this worker's totals into its slot."""
        values = []
        for name in self._names:
            values += [self.self_ns[name], self.calls[name], self.units[name]]
        self._layout.pack_into(self._shared, self._slot * self._layout.size, *values)

    def _gather(self) -> None:
        """Add the workers' slots to this process's totals and clear them."""
        for slot in range(1, min(self._forks + 1, SLOTS)):
            values = self._layout.unpack_from(self._shared, slot * self._layout.size)
            for i, name in enumerate(self._names):
                self.self_ns[name] += values[3 * i]
                self.calls[name] += values[3 * i + 1]
                self.units[name] += values[3 * i + 2]
        self._shared[:] = bytes(len(self._shared))
        self._forks = 0

    # ------------------------------------------------------------ results

    def take(self) -> tuple[Counter, Counter, Counter]:
        """Self ns, calls and units gathered since the last take, then reset them.

        Worker totals are included.  Span records are kept: they are written
        out once, at the end.
        """
        self._gather()
        taken = (Counter(self.self_ns), Counter(self.calls), Counter(self.units))
        for counter in (self.self_ns, self.calls, self.units):
            counter.clear()
        return taken
