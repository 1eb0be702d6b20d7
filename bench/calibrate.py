"""Calibration kernel, run in a process of its own.

    python3 bench/calibrate.py

Each line read on standard input names a CPU; the process moves to that
CPU, times a fixed kernel that uses no library code (small numpy products,
scipy's log_ndtr and a Python loop, the mix the library's hot paths are
made of), moves back to all its CPUs and writes the seconds as one line.
It exits at the end of its input.

``run.py`` keeps one such process for a run and asks it for a timing
between experiments, on the CPU its own process is running on (the two
CPUs of a shared machine can run at different speeds at the same moment).
The kernel tracks how fast the machine runs, which drifts by tens of
percent within minutes, and being a separate process that never imports
the library, it sees nothing of the state the library leaves behind in the
benchmark's own process (heap size, threads, numpy settings).
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
from scipy import special


def kernel():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((332, 3))
    y = (rng.random(332) < 0.5).astype(float)
    beta, acc = np.zeros(3), 0.0
    t0 = time.perf_counter()
    for i in range(2000):
        eta = x @ beta
        acc += float(np.sum(y * special.log_ndtr(eta)
                            + (1.0 - y) * special.log_ndtr(-eta)))
        beta = beta + 1e-4 * rng.standard_normal(3)
        acc += {"i": i}["i"] * 1e-9
    return time.perf_counter() - t0


def main():
    kernel()  # warm-up, not reported
    cpus = os.sched_getaffinity(0)
    for line in sys.stdin:
        os.sched_setaffinity(0, {int(line)})
        seconds = kernel()
        os.sched_setaffinity(0, cpus)
        print(repr(seconds), flush=True)


if __name__ == "__main__":
    main()
