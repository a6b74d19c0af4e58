"""Host-speed calibration.

On a shared host the speed of one core drifts by up to 2x within seconds,
and CPU time tracks wall time, so neither clock escapes it.  A fixed unit of pure-Python
work, timed right before and right after each operation, measures the
speed the operation ran at.  Dividing by it turns a wall time into
"seconds at reference speed": the time the operation would take on a host
that runs one unit in ``REFERENCE_S``.

The unit touches no library code and nothing the library could change
(its own tiny class, ints, tuples and a dict), so a change to supercircle
cannot speed it up or slow it down.
"""

from __future__ import annotations

import math
import signal
import time

REFERENCE_S = 0.00025  # one unit at reference speed
perf = time.perf_counter


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mul(self, other):
        return _Pair(self.a * other.a - self.b * other.b,
                     self.a * other.b + self.b * other.a)


def _unit() -> int:
    acc = {}
    x = _Pair(1, 2)
    for i in range(1, 160):
        z = x.mul(_Pair(i % 13 - 6, i % 7 - 3))
        key = (i % 17, z.a % 5)
        acc[key] = acc.get(key, 0) + math.gcd(z.a, z.b) % 11
        x = _Pair(z.a % 1009 + 1, z.b % 1013)
    return len(acc)


def measure() -> float:
    """Wall seconds for one unit of reference work, now."""
    start = perf()
    _unit()
    return perf() - start


def warm() -> None:
    """Let the interpreter specialise the unit before it is timed."""
    for _ in range(20):
        _unit()


def to_reference(seconds: float, units) -> float:
    """A wall time scaled to reference speed, by the units timed around and
    during it (each unit samples the speed at one moment)."""
    return seconds * sum(REFERENCE_S / u for u in units) / len(units)


class Sampler:
    """Times one unit every `interval` seconds from a SIGALRM handler, so
    that an op lasting seconds is calibrated throughout."""

    def __init__(self, interval: float = 0.025):
        self.interval = interval
        self.units = []

    def _tick(self, signum, frame):
        self.units.append(measure())

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False
