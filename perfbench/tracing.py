"""Spans recorded from outside the program, by rebinding its public functions.

A :class:`Tracer` wraps a function so that every call appends one span
``[name, start, end, parent, rows]`` to an in-memory list; ``parent`` is the
index of the enclosing span (-1 at top level) and ``rows`` an optional work
count taken from the arguments.  :func:`rebound` installs wrappers on module
or class attributes for the duration of a ``with`` block and puts every
original back on exit, even when the block raises.

A layer's self time is its spans' duration minus the part covered by child
spans.  The program runs single-threaded, so children never overlap and
their coverage is the sum of their durations.

:class:`Pace` is the timing side: a clock in seconds at a fixed reference
speed of the CPU, so that runs on a host whose speed changes compare.
"""

from __future__ import annotations

import functools
import statistics
from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable

import numpy as np

NAME, START, END, PARENT, ROWS = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, rows: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    rows(*args, **kwargs) if rows else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, rows, total and self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict[str, float]] = {}
        for s, covered in zip(spans, child):
            agg = out.setdefault(s[NAME], {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0})
            dur = s[END] - s[START]
            agg["calls"] += 1
            agg["rows"] += s[ROWS]
            agg["total_s"] += dur
            agg["self_s"] += dur - covered
        return out


def reference_kernel() -> None:
    """A fixed mix of interpreter work and small BLAS calls.

    It takes 1-1.5 ms on a shared 2-vCPU Xeon.  It shares no code with
    htlab, so a change to htlab leaves its duration alone, and only the
    host's speed moves it.
    """
    d: dict[int, int] = {}
    pairs = []
    for i in range(1500):
        k = i % 97
        d[k] = d.get(k, 0) + 1
        pairs.append((k, i))
    pairs.sort()
    for _ in range(20):
        np.tanh(_REF_X @ _REF_W)


_REF_X = np.random.default_rng(0).standard_normal((64, 51))
_REF_W = np.random.default_rng(1).standard_normal((51, 32))


class Pace:
    """A clock that reads seconds at a fixed reference speed of the CPU.

    The shared hosts this benchmark runs on change speed by up to 2x, for
    seconds or for hours, so raw seconds from different runs measure the
    host's load as much as the program.  At most every ``every`` seconds, at
    the next call of :meth:`now`, the clock runs :func:`reference_kernel` and
    takes the median duration of its last ``window`` runs as the host's
    current speed.  Between calls it advances by the elapsed seconds times
    ``NOMINAL_S / median``: the seconds the work would have taken on a CPU
    that runs the kernel in ``NOMINAL_S``.  The kernel's own time is not
    counted; :attr:`raw` sums the same intervals unscaled.

    Calls of :meth:`now` come from the wrappers :meth:`wrap` installs, so a
    long stretch without a wrapped call is scaled by the speed measured
    before it.
    """

    NOMINAL_S = 1e-3

    def __init__(self, every: float = 0.05, window: int = 7) -> None:
        self.every = every
        self.window: deque[float] = deque(maxlen=window)
        self.kernel_s: list[float] = []
        self.paced = self.raw = 0.0
        for _ in range(window):
            self._sample()
        self._last = perf_counter()
        self._due = self._last + every

    def _sample(self) -> None:
        t = perf_counter()
        reference_kernel()
        d = perf_counter() - t
        self.window.append(d)
        self.kernel_s.append(d)
        self._scale = self.NOMINAL_S / statistics.median(self.window)

    def now(self) -> float:
        t = perf_counter()
        self.raw += t - self._last
        self.paced += (t - self._last) * self._scale
        self._last = t
        if t >= self._due:
            self._sample()
            self._last = perf_counter()
            self._due = self._last + self.every
        return self.paced

    def wrap(self, name: str, fn: Callable, rows: Callable | None = None) -> Callable:
        now = self.now

        @functools.wraps(fn)
        def paced(*args, **kwargs):
            now()
            try:
                return fn(*args, **kwargs)
            finally:
                now()

        return paced


@contextmanager
def rebound(targets: Iterable[tuple[object, str, Callable[[Callable], Callable]]]):
    """Replace ``owner.attr`` with ``make(original)`` for each target."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, make in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
