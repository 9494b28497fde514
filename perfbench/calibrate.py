"""Machine-speed calibration of the timing metrics.

The reference machine is a shared 2-vCPU virtual machine whose speed drifts
by 10 to 30% over minutes, and the drift moves every operation of a run by
nearly the same factor.  So every timing metric is divided by a speed
factor: the median wall time of a fixed pure-Python kernel, timed in the
same process between operations, over the kernel's time on the reference
machine at its usual speed.  The kernel does not touch latmoment, so a
change to the program moves the metrics in full; what is removed is the
machine's drift.  The raw figures are kept in the run record.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# median kernel time on the reference machine (2-vCPU Intel Xeon VM,
# Python 3.11.7); `python3 perfbench/calibrate.py` prints it for this machine
KERNEL_REF_S = 0.024
# the worker times the kernel once per this many seconds of operations
SAMPLE_EVERY_S = 1.0


def kernel() -> int:
    """Integer, Fraction, float and dict work in the proportions of the
    package's own Python code."""
    acc = 0
    q = Fraction(0)
    table = {}
    for i in range(1, 8001):
        acc = (acc * 31 + i * i) % 1_000_003
        q += Fraction(i % 7 + 1, i % 5 + 2)
        table[i % 97] = math.sqrt(i) * 1.5
    return acc + int(q) + len(table)


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    """How much slower than the reference the machine ran (1.2 = 20% slower)."""
    return statistics.median(samples) / KERNEL_REF_S


if __name__ == "__main__":
    kernel()
    times = [kernel_seconds() for _ in range(200)]
    print(f"kernel median {statistics.median(times):.5f} s over {len(times)} runs")
