"""Host-speed calibration of operation times.

The shared machines this benchmark runs on change speed by up to 2x within
tens of seconds to minutes, so raw wall times of the same code spread far
more between runs than any change worth measuring.  The ratio of an
operation's time to a fixed reference task timed right around it stays
within a few percent.  ``Clock`` therefore times the reference task after
every operation, outside its timed interval, and scales the operation's
wall time by the reference task's time on the reference host over the mean
of its times just before and just after the operation.  The result is the
operation's time on the reference host.

Two reference tasks, because in-process work and process start follow
different parts of the host's speed:

- in-process operations (``plan-ladder``, ``exact-core``): ``kernel``,
  which uses no relaydof code, only the kinds of work relaydof does:
  ``Fraction`` sums, big-integer products and remainders, building dicts
  of lists and ``json.dumps(indent=2)``.  Its host time is ``REF_S``.
- spawned processes (``cli-cold``, ``setup_s``): a bare interpreter start,
  ``python -c pass``, timed by ``run.py``.  Its host time is
  ``REF_START_S``.

Neither task runs relaydof code, so a change to relaydof moves calibrated
times exactly as it moves raw ones.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

REF_S = 0.005  # kernel time on the reference host
REF_START_S = 0.080  # bare interpreter start on the reference host


def kernel() -> int:
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, i + 7)
    text = json.dumps({i: [i] * 8 for i in range(600)}, indent=2)
    x, modulus = 3**2000, 5**1900
    for i in range(50):
        x = (x * 7 + i) % modulus
    return len(text) + total.denominator.bit_length() + x.bit_length()


def measure() -> float:
    began = time.perf_counter()
    kernel()
    return time.perf_counter() - began


class Clock:
    """Turns wall times into reference-host times, one operation at a time.
    ``measure`` times the reference task once; ``ref`` is its time on the
    reference host."""

    def __init__(self, measure=measure, ref: float = REF_S):
        self.measure, self.ref = measure, ref
        self.last = measure()

    def factor(self) -> float:
        """Scale for the operation that just ended: ``ref`` over the mean of
        the reference times measured just before and just after it."""
        after = self.measure()
        scale = 2 * self.ref / (self.last + after)
        self.last = after
        return scale
