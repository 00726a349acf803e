"""Host speed sampling, and the clock every benchmark timing reads.

On a shared 2-CPU x86-64 VM the host switches between fast and slow
periods every few seconds, with no steal: the medians of two ten-run
sets of the same code differed by up to 38%.  A calibration pass between rounds
missed most of it, because the periods also change inside a round.

So while a round runs, a SIGALRM handler runs a fixed pure-Python loop
(:func:`kernel`) every :data:`PERIOD_S` seconds and records how long it
took.  The handler runs between two bytecodes of whatever the loop was
doing and never yields to asyncio, so it cannot change the order in
which sessions run — only the wall time, and :func:`clock` leaves the
handler's own time out.  The mean kernel time over a round is that
round's host speed; ``run.py`` turns it into the round's scale.

The kernel is the benchmark's own code and never changes, so a change
to the program does not move it.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

#: seconds between two kernel passes while sampling.
PERIOD_S = 0.025

_perf_counter = time.perf_counter
#: handler seconds so far: the clock leaves them out.
_stolen = 0.0
#: kernel seconds of every pass since the last take().
_samples: list[float] = []


def clock() -> float:
    """``time.perf_counter`` minus the time spent sampling."""
    stolen = _stolen
    return _perf_counter() - stolen


def kernel() -> None:
    """The fixed CPU loop: about 0.6 ms on a 2-CPU x86-64 VM."""
    total = 0
    for i in range(10_000):
        total += i * i


def _tick(signum, frame) -> None:
    global _stolen
    start = _perf_counter()
    kernel()
    elapsed = _perf_counter() - start
    _samples.append(elapsed)
    _stolen += elapsed


@contextmanager
def sampling():
    """Sample the host every PERIOD_S seconds inside the block."""
    previous = signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)


def take() -> list[float]:
    """The kernel times sampled since the last call."""
    global _samples
    samples, _samples = _samples, []
    return samples


def calibrate(passes: int = 40) -> float:
    """Median of ``passes`` back-to-back kernel passes, for the record."""
    times = []
    for _ in range(passes):
        start = _perf_counter()
        kernel()
        times.append(_perf_counter() - start)
    times.sort()
    return times[len(times) // 2]
