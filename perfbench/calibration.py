"""Timing at a nominal machine speed.

On a shared host the same work runs up to twice as slow for stretches of
seconds to minutes, which is more than a benchmark run lasts, so no median
or best time within one run can remove it.  The slowdown is the core's own:
a gauge run at the same time on the other core does not see it.  The
benchmark therefore times a fixed kernel between stretches of the library's
work and scales each stretch by ``NOMINAL_S`` over the kernel's time on
either side of it: timings are reported at one nominal machine speed.  The
kernel mixes the kinds of work the library does (an interpreted loop, numpy
on arrays of a quadrature panel's size, numpy on large arrays) and does not
call maxvar, so a change to the library cannot move it.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

# the kernel's best time on a 2-core VM (Intel Xeon) when the host is quiet
NOMINAL_S = 5.0e-3
CALLS = 3       # a gauge is the best of this many calls
CHUNK_S = 0.2   # seconds of timed work between two gauges
SMOOTH = 2      # neighbours on each side in the gauges' running median

_PANEL = np.linspace(0.0, 1.0, 96)
_LARGE = np.linspace(0.0, 1.0, 100_000)


def kernel() -> float:
    acc = 0.0
    for i in range(8000):
        acc += math.sin(i * 1e-3) * (i & 7)
    for i in range(160):
        y = np.sqrt(_PANEL * _PANEL + i) * np.cos(_PANEL + i)
        acc += float(np.dot(y, _PANEL))
    for i in range(2):
        acc += float(np.sum(np.sqrt(_LARGE * _LARGE + i) * np.cos(_LARGE)))
    return acc


def gauge() -> float:
    """``NOMINAL_S`` over the kernel's time now: below 1 when the machine runs slow."""
    best = math.inf
    for _ in range(CALLS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return NOMINAL_S / best


class Meter:
    """Times operations in pieces, with a gauge after every ``CHUNK_S`` of work.

    A gauge is taken between operations, or inside one at a
    :meth:`checkpoint`, once ``CHUNK_S`` seconds of timed work have passed
    since the last; its own time is left out.  A piece is the work between
    two gauges, and :meth:`scaled` multiplies its seconds by the geometric
    mean of the smoothed gauges on either side.
    """

    def __init__(self):
        self.gauges = [gauge()]
        self._since_gauge = 0.0
        self._pieces = []
        self._t0 = None
        self._speed = None

    def time(self, fn, arg):
        """(result or the exception it raised, pieces) of ``fn(arg)``.

        The pieces are (seconds, index of the gauge before them), for
        :meth:`scaled` once :meth:`finish` has been called.
        """
        self._pieces = []
        self._t0 = time.perf_counter()
        try:
            result = fn(arg)
        except Exception as exc:   # counted as a failed operation
            result = exc
        self._cut()
        self._t0 = None
        if self._since_gauge >= CHUNK_S:
            self._gauge()
        return result, self._pieces

    def checkpoint(self) -> None:
        """Inside an operation: take a gauge if one is due."""
        if self._t0 is not None and \
                self._since_gauge + time.perf_counter() - self._t0 >= CHUNK_S:
            self._cut()
            self._gauge()
            self._t0 = time.perf_counter()

    def _cut(self) -> None:
        dt = time.perf_counter() - self._t0
        self._pieces.append((dt, len(self.gauges) - 1))
        self._since_gauge += dt

    def _gauge(self) -> None:
        self.gauges.append(gauge())
        self._since_gauge = 0.0

    def finish(self) -> None:
        """Close the last stretch of work with a gauge and smooth the gauges."""
        if self._since_gauge > 0.0:
            self._gauge()
        g = self.gauges
        self._speed = [statistics.median(g[max(0, k - SMOOTH):k + SMOOTH + 1])
                       for k in range(len(g))]

    def scaled(self, pieces) -> float:
        """Seconds of ``pieces`` at nominal speed."""
        speed = self._speed
        return sum(dt * math.sqrt(speed[k] * speed[k + 1]) for dt, k in pieces)

    @contextmanager
    def checkpoints_in(self, module: str, name: str):
        """Make each call of ``module.name`` a checkpoint while in the block.

        Only calls through that module's own binding are seen: for
        ``("maxvar.search", "search")``, a sweep's per-point searches.
        """
        mod = importlib.import_module(module)
        original = getattr(mod, name)

        def hooked(*args, **kwargs):
            self.checkpoint()
            return original(*args, **kwargs)

        setattr(mod, name, hooked)
        try:
            yield
        finally:
            setattr(mod, name, original)
