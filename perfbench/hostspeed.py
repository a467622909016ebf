"""Host speed, sampled while a benchmark process works.

The benchmark runs on shared machines whose speed swings by a quarter and
more within minutes (other tenants' load), so the same pass can take 19 s
or 29 s.  A SIGALRM handler times a fixed pure-Python kernel every
``INTERVAL_S``; the kernel does the kind of work jetcalc does (exact
`Fraction` arithmetic on big integers) but never calls jetcalc, so no
change to jetcalc changes it.  Of the kernels tried (dict updates with big
integers, Fractions, and both mixed), the Fraction kernel followed the
host's swings closest on all three workloads (2 shared vCPUs, Python 3.11):
scaled pass times stayed within 3.5% of their median where raw ones varied
by up to 23%.  A phase's time is scaled to the reference host speed, on
which the kernel takes ``REFERENCE_KERNEL_S``:

    scaled = measured * mean(REFERENCE_KERNEL_S / kernel time)

The mean of the ratios weights each sample by the time it stands for, and a
kernel slowed by a stall of the host counts for little.  The time spent in
the handler is kept apart, and `wall`/`cpu` are clocks that exclude it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import Dict, List

INTERVAL_S = 0.025
REFERENCE_KERNEL_S = 2.5e-4
KERNEL_ROUNDS = 30


def kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, KERNEL_ROUNDS + 1):
        acc += Fraction(i * 7919, i * i + 1) * Fraction(3, i + 2)
    return acc


class HostSpeed:
    """Samples the kernel from a timer signal; `take` ends a phase."""

    def __init__(self):
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._wall: List[float] = []
        self._cpu: List[float] = []

    def _sample(self, *_) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        collecting = gc.isenabled()
        gc.disable()  # a collection the program's allocations are due is not the kernel's
        k0, kc0 = time.perf_counter(), time.process_time()
        kernel()
        k1, kc1 = time.perf_counter(), time.process_time()
        if collecting:
            gc.enable()
        self._wall.append(k1 - k0)
        self._cpu.append(kc1 - kc0)
        self.spent_wall += time.perf_counter() - w0
        self.spent_cpu += time.process_time() - c0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def wall(self) -> float:
        """`time.perf_counter` without the time spent sampling."""
        return time.perf_counter() - self.spent_wall

    def cpu(self) -> float:
        """`time.process_time` without the time spent sampling."""
        return time.process_time() - self.spent_cpu

    def take(self) -> Dict[str, float]:
        """Scale factors of the phase since the last call, and its sample count."""
        self._sample()  # a phase shorter than the interval still gets a sample
        out = {"wall": statistics.fmean(REFERENCE_KERNEL_S / x for x in self._wall),
               "cpu": statistics.fmean(REFERENCE_KERNEL_S / max(x, 1e-9) for x in self._cpu),
               "samples": len(self._wall)}
        self._wall, self._cpu = [], []
        return out
