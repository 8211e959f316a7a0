"""Wall time rescaled to a reference machine speed.

The shared 2-vCPU host this benchmark was built on drifts in speed by
+-20 % over tens of seconds with no steal time reported: a fixed
pure-Python loop ran 35 to 54 times per second within one minute.  Raw
wall times of whole runs therefore spread more than any useful bound.

A :class:`ReferenceClock` runs a short fixed calibration kernel at every
mark and scales each segment between two marks by ``ref_s`` over the
mean kernel time at its two ends.  A segment therefore reads as the time
it would have taken on a machine where the kernel takes ``ref_s``.  The
kernels are written here, call nothing in swarmchain and allocate
almost no Python containers (so they do not trigger the cyclic GC), so a
change to the program cannot speed them up or slow them down.  Kernel time is
excluded from every segment.
"""
from __future__ import annotations

from time import perf_counter
from typing import Callable


def interpreter_kernel() -> int:
    """Integer arithmetic and dict stores: tracks interpreter-bound work."""
    acc = 0
    slots = dict.fromkeys(range(256), 0)
    for i in range(20_000):
        acc += i * i
        slots[i & 255] = acc
    return acc


def memory_kernel() -> float:
    """Fault in and fill 64 MB of fresh pages: tracks allocation-bound numpy work."""
    import numpy as np

    block = np.empty(8_000_000)
    block.fill(1.0)
    return float(block[-1])


# kernel name -> (kernel, its duration in seconds on the reference machine)
KERNELS: dict[str, tuple[Callable[[], object], float]] = {
    "interpreter": (interpreter_kernel, 2.5e-3),
    "memory": (memory_kernel, 18e-3),
}


class ReferenceClock:
    """Accumulates raw and reference-speed time between successive marks."""

    def __init__(self, kernel: str) -> None:
        self._kernel, self._ref_s = KERNELS[kernel]
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._last_cal = self._calibrate()
        self._last = perf_counter()

    def _calibrate(self) -> float:
        start = perf_counter()
        self._kernel()
        return perf_counter() - start

    def mark(self) -> float:
        """Close the segment since the previous mark; return reference seconds so far."""
        segment = perf_counter() - self._last
        cal = self._calibrate()
        self.raw_s += segment
        self.ref_s += segment * self._ref_s / ((self._last_cal + cal) / 2)
        self._last_cal = cal
        self._last = perf_counter()
        return self.ref_s
