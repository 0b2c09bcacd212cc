"""Wall times rescaled to a reference machine speed.

On a shared VM the same Python code can run up to 2x faster or slower over
seconds to minutes, because it contends for the host's cores (steal time
stays small).  A fixed pure-Python kernel slows down along with the
program.  The benchmark therefore times that kernel *during* each timed
operation, and rescales the operation's wall time to the reference speed:
the speed at which one kernel run takes KERNEL_REF_S.
"""

from __future__ import annotations

import signal
import statistics
import time

KERNEL_N = 2000
KERNEL_REF_S = 0.0005
SAMPLE_EVERY_CPU_S = 0.05  # about 1% of the process's CPU time goes to sampling
MIN_SAMPLES = 5


def kernel() -> list:
    counts: dict = {}
    for i in range(KERNEL_N):
        key = (i & 255, i & 7, "k")
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def reference_seconds(wall: float, kernel_samples: list[float]) -> float:
    return wall * KERNEL_REF_S / statistics.median(kernel_samples)


class SpeedProbe:
    """Times the kernel from a SIGPROF handler every SAMPLE_EVERY_CPU_S of
    process CPU time, so the samples cover the operation that is running."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that lands inside the kernel is dropped
            return
        self._busy = True
        try:
            took = time_kernel()
        finally:
            self._busy = False
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_CPU_S, SAMPLE_EVERY_CPU_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def begin(self) -> None:
        self.samples.clear()
        self.spent = 0.0

    def rescale(self, wall: float) -> float:
        """`wall` of the operation since `begin`, less the sampling, at reference speed."""
        net = wall - self.spent
        while len(self.samples) < MIN_SAMPLES:  # a short operation: sample right after it
            self._sample()
        return reference_seconds(net, self.samples)
