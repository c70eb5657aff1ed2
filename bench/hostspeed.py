"""Host speed probe: a fixed reference kernel timed throughout a run.

The shared 2-vCPU host this benchmark was built on drifts between speed
states that last seconds to minutes, with no steal time: the same gradient
check took 1.2 to 2.5 s within six minutes, and every stage's throughput
over ten 35-s windows of one process spread (IQR / median) 0.23 to 0.36.
So a :class:`Sampler` runs the probe every ``INTERVAL_S`` from a timer
signal, and :meth:`Sampler.steady` rescales the time of a piece of work by
the host's slowness while it ran: the mean probe time over the probes
inside it and the nearest one on each side, over ``NOMINAL_S``. Probe time
inside the work is taken out first.

The probe uses neither hsimvt nor BLAS, so no change to the program (its
thread settings included) changes the probe. It has two halves timed as
one: tiny numpy ops driven from Python, which track the interpreter-bound
stages, and passes over an 8 MB array, which track the memory-bound ones.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

NOMINAL_S = 0.018  # probe time in the fastest state seen on the 2-vCPU Xeon guest
INTERVAL_S = 0.25

_rng = np.random.default_rng(0)
_SMALL = [_rng.standard_normal((2, 9, 8)) for _ in range(8)]
_WEIGHT = _rng.standard_normal((8, 8))
_BIG = _rng.standard_normal(1 << 20)


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents=()):
        self.value = value
        self.parents = parents


def probe() -> float:
    """Seconds one run of the reference kernel takes now."""
    started = time.perf_counter()
    for i in range(300):
        x = _Node(_SMALL[i % 8])
        y = _Node((x.value[..., None, :] * _WEIGHT).sum(axis=-1), (x,))
        z = _Node(np.maximum(y.value, 0.0), (y,))
        e = np.exp(z.value - z.value.max(axis=-1, keepdims=True))
        float(_Node(e / e.sum(axis=-1, keepdims=True), (z,)).value.sum())
    for _ in range(4):
        float((_BIG * 1.0001).sum())
    return time.perf_counter() - started


class Sampler:
    """Probes at entry, every INTERVAL_S of wall time while running, and at exit.

    The probe runs in the main thread from a SIGALRM handler, between two
    bytecodes of whatever is running; each probe is kept as (start, end) and
    its seconds are passed to ``listener``, if one is set.
    """

    def __init__(self):
        self.starts = []
        self.ends = []
        self.listener = None
        self._previous = None

    def _probe(self, *_):
        started = time.perf_counter()
        probe()
        ended = time.perf_counter()
        self.starts.append(started)
        self.ends.append(ended)
        if self.listener is not None:
            self.listener(ended - started)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.siginterrupt(signal.SIGALRM, False)  # restart system calls it interrupts
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def steady(self, started, ended):
        """Seconds of the work between two perf_counter readings, without the probes
        run inside it, at ``NOMINAL_S`` probe speed."""
        first = bisect.bisect_left(self.starts, started)
        last = bisect.bisect_right(self.ends, ended)
        inside = [e - s for s, e in zip(self.starts[first:last], self.ends[first:last])]
        near = [self.ends[i] - self.starts[i] for i in (first - 1, last)
                if 0 <= i < len(self.starts)]
        probes = inside + near
        if not probes:
            raise RuntimeError("no probe ran near the work")
        return (ended - started - sum(inside)) * NOMINAL_S * len(probes) / sum(probes)
