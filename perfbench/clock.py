"""Machine-normalized time.

The shared machines this benchmark runs on change speed by tens of percent
within seconds, because other tenants load the same cores.  A pure-Python
CPU loop on one such machine varied by 20 % between 10-second windows, which
would swamp any change worth measuring.  So every timed interval is paired
with a fixed reference unit of pure-Python exact rational arithmetic (the
kind of work frobext does) measured right next to it, and is reported as

    raw seconds * REF_NOMINAL_S / (reference seconds at that moment),

that is, in seconds on a machine that runs the reference unit in
REF_NOMINAL_S.  Dividing by the local reference time (not one figure for the
whole run) cut the spread of a fixed frobext op mix between 2-second windows
from 27 % to 4 % on a 2-CPU shared VM; an integer-only reference left 9 %.
The reference is the benchmark's own code and does not touch frobext, so a
change to frobext moves only the numerator.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REF_NOMINAL_S = 0.0036  # the reference unit's typical time on a 2-CPU VM
REF_EVERY_S = 0.1       # at most this much measured time between references


def reference_unit():
    """Fixed exact rational arithmetic: products of polynomials with
    Fraction coefficients, typically REF_NOMINAL_S (3.6 ms) of one CPU."""
    a = [Fraction(i + 1, i + 2) for i in range(24)]
    acc = [Fraction(1)]
    for _ in range(3):
        out = [Fraction(0)] * (len(acc) + len(a) - 1)
        for i, x in enumerate(acc):
            for j, y in enumerate(a):
                out[i + j] += x * y
        acc = out[:24]
    return acc


class Clock:
    """Reference samples taken between measured intervals.  An interval
    that started after sample i is scaled by the mean of samples i and
    i + 1, the two that bracket it."""

    def __init__(self):
        self.refs: list[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> int:
        """Take a reference sample if REF_EVERY_S has passed since the last
        one (or if forced); return the index of the latest sample."""
        if force or time.perf_counter() - self._last >= REF_EVERY_S:
            # with the collector off, the sample does not pay for garbage
            # the program left behind or for the size of its live heap
            enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter()
                reference_unit()
                self._last = time.perf_counter()
            finally:
                if enabled:
                    gc.enable()
            self.refs.append(self._last - t0)
        return len(self.refs) - 1

    def scale(self, i: int) -> float:
        after = self.refs[i + 1] if i + 1 < len(self.refs) else self.refs[i]
        return REF_NOMINAL_S / ((self.refs[i] + after) / 2)
