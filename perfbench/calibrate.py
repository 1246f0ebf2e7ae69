"""Host-speed reference: a fixed piece of work timed next to every operation.

On a shared virtual machine the same operation can take 60% longer for
minutes at a time while neighbours load the host, so raw wall times of
runs made a few minutes apart are not comparable. The benchmark times
`reference_work` before and after every operation and at set-up, and
reports times scaled to a nominal host on which the reference takes
NOMINAL_REFERENCE_S: scaled = raw * NOMINAL_REFERENCE_S / reference.
A change to privagg moves the scaled time as it moves the raw time, while
a change of host speed moves both the operation and the reference.

The reference mixes the kinds of work the workloads do (interpreted float
arithmetic, float-to-text formatting, small numpy passes) and stays small
in memory so that it leaves peak RSS alone.
"""

import time

import numpy as np

NOMINAL_REFERENCE_S = 0.012
REPEATS = 3

_VALUES = [i * 0.5 for i in range(10_000)]


def reference_work() -> float:
    acc = 0.0
    for _ in range(16):
        for x in _VALUES:
            acc = acc + x * 1.0000001
    text = ",".join(map(repr, _VALUES))
    a = np.arange(100_000, dtype=np.float64)
    for _ in range(16):
        a = a * 1.0000001 + 1.0
    return acc + len(text) + float(a[-1])


def reference_s() -> float:
    """Fastest of a few timings of reference_work, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best
