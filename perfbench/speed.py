"""Host speed probe: times measured on a shared host, stated at a fixed speed.

The cores this benchmark runs on are shared, and their speed drifts by up to
a factor of two over seconds to minutes (a 2-core x86-64 VM at 2.0 GHz, its
steal time near zero: the drift is in how fast the core runs, not in how
long the process waits for it).  A raw CPU time therefore says as much about
the host as about the program.

The probe runs a small fixed kernel, ``reference``, every ``PERIOD_S`` of CPU
time while a measurement is open (``SIGPROF`` from ``setitimer``), so the
kernel's time tracks the core's speed while the measured code runs.  A
measurement reports the measured code's thread CPU time net of the probe's
own, and ``normalized`` states it at the speed where one kernel call takes
``REFERENCE_S``: net time * ``REFERENCE_S`` / mean kernel time.  Only the unit
depends on ``REFERENCE_S``; the ratio of two normalized times does not.

The kernel uses numpy and the interpreter the way adagof's code does (short
sorts, integer binning, a cosine basis, a Python loop), and nothing from
adagof, so a change to adagof never changes the yardstick.  Thread CPU time
is used because the process clock drops to tick resolution while a process
CPU timer is armed; every measured section runs on one thread.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Seconds between probe samples, counted in the process's CPU time.
PERIOD_S = 0.02
#: The kernel's CPU time at the reference speed, which sets the unit of a
#: normalized time: a round figure near the kernel's median as sampled while
#: the workloads ran on the 2-core x86-64 host (2.0 GHz) the benchmark was
#: written on, where that median ranged over roughly 0.3-0.5 ms.
REFERENCE_S = 400e-6

_ROWS = np.random.default_rng(12345).random((8, 100))
_FREQUENCIES = np.arange(1, 5)[:, None]
_BIN_WEIGHTS = np.arange(6.0)


def reference() -> float:
    """The fixed kernel whose time measures the core's speed."""
    acc = 0.0
    for row in _ROWS:
        y = np.sort(row)
        bins = np.minimum((y * 6).astype(np.int64), 5)
        acc += float(np.bincount(bins, minlength=6) @ _BIN_WEIGHTS)
        acc += float(np.cos(np.pi * _FREQUENCIES * y).sum())
        for v in y[:10]:
            acc += v * v
    return acc


class Measurement:
    """One measured stretch of code: its thread CPU time net of the probe's
    own (``net_s``) and the kernel times sampled while it ran."""

    def __init__(self, probe: "SpeedProbe") -> None:
        self._probe = probe
        self.samples: list[float] = []
        self.net_s = float("nan")

    def __enter__(self) -> "Measurement":
        self._probe._open = self
        self._start = time.thread_time()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self.net_s = time.thread_time() - self._start - sum(self.samples)
        self._probe._open = None
        self._probe.samples.extend(self.samples)

    def scale(self, fallback_s: float | None = None) -> float:
        """The factor that states a CPU time of this stretch at the reference
        speed.  A stretch too short to be sampled takes the kernel time
        ``fallback_s``."""
        kernel_s = statistics.fmean(self.samples) if self.samples else fallback_s
        return REFERENCE_S / kernel_s

    def normalized(self, fallback_s: float | None = None) -> float:
        """``net_s`` at the reference speed."""
        return self.net_s * self.scale(fallback_s)


class SpeedProbe:
    """Owns the ``SIGPROF`` handler; ``measure()`` opens a measurement.
    ``samples`` keeps every kernel time of every measurement."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._open: Measurement | None = None
        for _ in range(20):  # warm the kernel's code and data
            reference()
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame) -> None:
        if self._open is None:
            return
        t0 = time.thread_time()
        reference()
        self._open.samples.append(time.thread_time() - t0)

    def measure(self) -> Measurement:
        return Measurement(self)

    def kernel_s(self) -> float:
        """Median kernel time over every measurement so far."""
        return statistics.median(self.samples)
