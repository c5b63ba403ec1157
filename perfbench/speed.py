"""Machine-speed probe: rescales timings to a reference speed.

On a shared host the same code can run 1.5 to 1.9 times slower for
minutes at a time, while other tenants load the physical cores; no
statistic inside one run removes a slow period that outlasts the run.
So the benchmark times a fixed *kernel* next to the program: interpreter
work and numpy calls on 4x4 complex matrices, the mix that dominates a
``design()`` call.  The kernel is the benchmark's own code, so no change
to the package moves it.  Before a timed part, when the last probe is
older than ``PROBE_INTERVAL_S``, the kernel is timed once more, and
again after a part that outlasted that interval.  The part then counts
at its raw time x ``REF_KERNEL_S`` / (median of the last
``PROBE_WINDOW`` kernel times), averaged over the scales before and
after it.  That is the time the part would take at the speed at which
the kernel takes ``REF_KERNEL_S``.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter

import numpy as np

# The kernel's fastest time on the 2-vCPU Intel Xeon (KVM) machine the
# benchmark was built on; it only sets the scale of reported times.
REF_KERNEL_S = 0.9e-3
PROBE_INTERVAL_S = 0.2
PROBE_WINDOW = 5

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_EYE = np.eye(4)


def kernel() -> float:
    """Fixed work: Hermitian eigen- and singular-value decompositions,
    products and a Python-level reduction on 4x4 complex matrices."""
    acc = 0.0
    for k in range(30):
        h = _A @ _A.conj().T + (k + 1.0) * _EYE
        w, v = np.linalg.eigh(h)
        s = np.linalg.svd(v * w, compute_uv=False)
        acc += float(s[0]) + sum(float(x) for x in w)
    return acc


class SpeedProbe:
    """Kernel times of one process, and the scale they imply."""

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=PROBE_WINDOW)
        self.samples: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.recent.append(end - start)
        self.samples.append(end - start)
        self._last = end

    def scale(self) -> float:
        """Factor from raw seconds to reference seconds, probing when due."""
        if perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.probe()
        return REF_KERNEL_S / statistics.median(self.recent)

    def timed(self, fn, *args, **kwargs):
        """(result, raw seconds, seconds at the reference speed) of one call."""
        before = self.scale()
        start = perf_counter()
        out = fn(*args, **kwargs)
        raw = perf_counter() - start
        return out, raw, raw * (before + self.scale()) / 2.0

    def overall_scale(self) -> float:
        """The scale implied by the median of every kernel time so far."""
        return REF_KERNEL_S / statistics.median(self.samples)
