"""A clock in reference seconds, which cancels contention from other tenants.

On a shared host the speed of this process drifts with the load of other
tenants: a fixed pure-Python loop timed on a 2-vCPU Xeon guest ran up to
1.5 times slower for stretches of tens of seconds, so raw seconds of the
same run spread by 20% and more between runs.  The clock samples that speed
while the program runs.  Every ``INTERVAL`` seconds a SIGALRM handler times
a fixed calibration loop, and the clock advances at
``NOMINAL / median(recent loop times)`` reference seconds per second; it
stands still while the handler runs.  One reference second is thus one
second of a machine on which the loop takes ``NOMINAL`` seconds, close to
the idle speed of that guest.  Raw seconds are kept alongside for reports.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL = 0.1
LOOP_N = 8000
NOMINAL = 0.0005  # seconds for LOOP_N iterations on the idle reference guest
WINDOW = 5


def _loop() -> int:
    s = 0
    for i in range(LOOP_N):
        s += i * i % 7
    return s


class RefClock:
    """Call to read reference seconds; ``start`` before use, ``stop`` after."""

    def __init__(self) -> None:
        self.spent = 0.0  # raw seconds spent in the calibration handler
        self._recent: list[float] = []
        # (reference reading, raw time it was taken, current rate), replaced
        # as one tuple so a reading never mixes two handler updates
        self._state = (0.0, perf_counter(), 1.0)

    def _sample(self) -> float:
        t0 = perf_counter()
        _loop()
        self._recent = (self._recent + [perf_counter() - t0])[-WINDOW:]
        return t0

    def _tick(self, signum: int, frame: object) -> None:
        t0 = self._sample()
        ref, t_at, rate = self._state
        now = perf_counter()
        self._state = (ref + (t0 - t_at) * rate, now, NOMINAL / statistics.median(self._recent))
        self.spent += now - t0

    def start(self) -> None:
        for _ in range(WINDOW):
            self._sample()
        self._state = (0.0, perf_counter(), NOMINAL / statistics.median(self._recent))
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __call__(self) -> float:
        ref, t_at, rate = self._state
        return ref + (perf_counter() - t_at) * rate
