"""Host speed, measured while the program runs.

The speed of a shared host moves in phases of seconds to minutes: on the
2-vCPU machine of results/seed-baseline.json the same pass of the
modules workload took 1.2 s in one minute and 2.2 s a few minutes later,
and a phase can outlast a whole run.  No statistic taken over the
program's own times removes a phase that lasts the run.

So a fixed reference computation, the probe, runs on a timer signal
every ``INTERVAL_S`` seconds while the program runs, in the same thread.
Its time is taken out of the program's wall time, and the program's time
is given in units of the probe's mean time over the same window;
``scaled`` turns that ratio back into seconds at the probe's reference
time.  The probe does not depend on the package under test, so a change
to the program moves the ratio by its own effect only.

A probe tracks the program only as far as the two slow down alike under
load, and code of different shapes does not: row reduction with NumPy
and arithmetic on nested lists of Python integers each followed its own
kind of work within 1.5% over 20-second windows, and a mix of the two
followed neither (4%).  So there is one probe per kind of work, and a
workload uses the one for the layer that takes most of its time.
"""

from __future__ import annotations

import random
import signal
import time

import numpy as np

from modgen import inverse_mod

# seconds between probes; a probe takes about 3 ms, so about 1.5% of a run
INTERVAL_S = 0.2

_RNG = random.Random("perfbench/probe")


def _invertible(p: int, n: int) -> np.ndarray:
    while True:
        g = np.array([[_RNG.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if inverse_mod(g, p) is not None:
            return g


_MATS = [(p, _invertible(p, 24)) for p in (2, 3, 5)]


def rref_probe() -> None:
    """Gauss-Jordan over F_p with NumPy row operations, as fplin does."""
    for p, g in _MATS:
        inverse_mod(g, p)


# Z/5^30 and a tower of two degree-4 steps over it, with fixed monic
# defining polynomials and two fixed elements of the top
_M = 5 ** 30
_POLY1 = [_RNG.randrange(_M) for _ in range(4)]
_POLY2 = [[_RNG.randrange(_M) for _ in range(4)] for _ in range(4)]
_X, _Y = ([[_RNG.randrange(_M) for _ in range(4)] for _ in range(4)] for _ in range(2))


def _mul1(x, y):
    conv = [0] * 7
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            conv[i + j] = (conv[i + j] + a * b) % _M
    for i in range(6, 3, -1):
        for j in range(4):
            conv[i - 4 + j] = (conv[i - 4 + j] - conv[i] * _POLY1[j]) % _M
    return conv[:4]


def _add1(x, y):
    return [(a + b) % _M for a, b in zip(x, y)]


def _mul2(x, y):
    conv = [[0] * 4 for _ in range(7)]
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            conv[i + j] = _add1(conv[i + j], _mul1(a, b))
    for i in range(6, 3, -1):
        for j in range(4):
            conv[i - 4 + j] = _add1(conv[i - 4 + j], [-c for c in _mul1(conv[i], _POLY2[j])])
    return conv[:4]


def tower_probe() -> None:
    """Products in a two-step tower over Z/5^30 on nested lists of Python
    integers, the shape of padic's arithmetic."""
    for _ in range(6):
        _mul2(_X, _Y)


# the probe for each kind of work, and its median time when run alone on
# the machine of results/seed-baseline.json; the time only converts probe
# units to seconds
PROBES = {"fplin": (rref_probe, 0.0025), "padic": (tower_probe, 0.0031)}


class HostClock:
    """Runs the probe on SIGALRM while active and keeps its total time.

    ``probe_s`` only grows, so a caller that times a span of the program
    subtracts the growth of ``probe_s`` over that span.
    """

    def __init__(self, kind: str) -> None:
        self._probe, self._ref_s = PROBES[kind]
        self.probe_s = 0.0
        self.probes = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._probe()
        self.probe_s += time.perf_counter() - t0
        self.probes += 1

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, program_s: float) -> float:
        """``program_s`` in seconds at the probe's reference time."""
        if not self.probes:
            raise ValueError("no probe ran")
        return program_s / (self.probe_s / self.probes) * self._ref_s
