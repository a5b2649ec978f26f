"""Machine-speed probe: a fixed dict-and-integer loop, timed in-process.

On a shared host the same work runs up to twice as slow for stretches of
seconds, and the slow stretches are shared by everything on one CPU.  The
benchmark therefore runs its children on the CPU it runs on itself, times
this probe right before and right after every job, and reports each job's
time multiplied by ``scale(before, after)``: seconds on a machine on which
the probe takes REFERENCE_S.  The probe does not touch hibi, so a change to
the program cannot move it.
"""

import time

LOOPS = 100_000
REFERENCE_S = 0.0125


def probe():
    """Seconds one probe takes now."""
    start = time.perf_counter()
    counts = {}
    for i in range(LOOPS):
        key = i % 1009
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


def scale(before, after):
    """Factor from measured seconds to seconds at the reference speed."""
    return 2 * REFERENCE_S / (before + after)
