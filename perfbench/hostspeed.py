"""Host-speed correction for timings taken on a shared machine.

On the shared 2-core host the benchmark was defined on, the same command ran
up to half again as slow for minutes at a time, with nothing changed but
the other tenants' load.  The benchmark therefore times a fixed pure-Python
reference loop right before and right after each sample, and reports the
sample scaled to a host on which that loop takes ``REFERENCE_S`` seconds:

    reported = measured * REFERENCE_S / mean(loop before, loop after)

A slow phase lengthens the loop and the command alike, so it cancels; a
change to the program does not touch the loop, so it shows in full.  On an
uncontended core of the 2-core Xeon host the benchmark was defined on, the
loop takes about ``REFERENCE_S``, so reported seconds are close to that
host's fast-phase wall-clock seconds.

Imports nothing but ``time``, so the set-up probe can load it before it
starts timing the CLI's imports.
"""

import time

#: Iterations of the reference loop.
REFERENCE_ITERATIONS = 600_000
#: Reference-loop seconds of the host the reported times are scaled to.
REFERENCE_S = 0.05


def reference_s() -> float:
    """Time one run of the reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def corrected(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between reference loops of ``before`` and
    ``after`` seconds, scaled to the reference host."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
