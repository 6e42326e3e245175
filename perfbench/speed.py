"""Host-speed reference: every timing is scaled to a fixed host speed.

On a shared host the speed of the same single-threaded code changes by
up to 2x in episodes of seconds, and process CPU time changes with it.
So each timed interval is bracketed by a fixed loop of the benchmark's
own code (never the package's), run in the same process right before
and right after it.  The interval is reported as

    wall time * REF_S / (mean time of the loop around it)

that is, as the time it would have taken at the speed where the loop
takes REF_S.  A change to the package cannot move the loop, so a scaled
time moves with the package and not with the host.  The result file
records the range of the factors a run saw.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

# the loop's time on the README's host in a fast episode
REF_S = 0.004
# reference readings inside a long call, one every PERIOD_S
PERIOD_S = 0.1


def _loop() -> float:
    """Time one pass of the reference loop: Fraction arithmetic, tuple
    keys and dict updates, as in the package.  GC is off, so the size of
    the caller's heap cannot change the loop's time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        seen: dict = {}
        for i in range(1000):
            f = Fraction(i % 17 + 1, i % 13 + 2)
            acc += f * f
            key = (i % 97, i % 5)
            seen[key] = seen.get(key, 0) + 1
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def ref_s(loops: int = 3) -> float:
    """Median time of ``loops`` passes of the reference loop."""
    return statistics.median(_loop() for _ in range(loops))


def factor(before: float, after: float) -> float:
    """Multiplier that takes a wall time between two reference readings
    to the reference speed."""
    return 2 * REF_S / (before + after)


def timed(fn, *args, mark=None):
    """Call ``fn(*args)``; return its result, its time at the reference
    speed, and the mean factor that took it there.

    A call can outlast a speed episode, so a timer signal interrupts it
    every PERIOD_S for a reference reading.  The readings' own time is
    left out, and each stretch of the call is scaled by the readings at
    its two ends.  ``mark``, a Tracer's ``span``, wraps each reading in
    a ``speed.reading`` span, so that span self times leave it out too.
    """
    readings = [ref_s()]
    stretches: list[float] = []
    resumed = 0.0

    def tick(signum, frame):
        nonlocal resumed
        stretches.append(time.perf_counter() - resumed)
        with mark("speed.reading", -1) if mark else contextlib.nullcontext():
            readings.append(_loop())
        resumed = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    old = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
    try:
        resumed = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    stretches.append(end - resumed)
    readings.append(ref_s())
    scaled = sum(
        s * factor(a, b) for s, a, b in zip(stretches, readings, readings[1:])
    )
    return result, scaled, scaled / sum(stretches)
