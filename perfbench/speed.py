"""Host-speed sampling, so that study time is measured at a fixed speed.

On a shared host the speed of one core moves by up to 1.4x within
seconds, as other tenants load the physical core behind it; the guest
sees no stolen time, so CPU seconds move with it.  A `SpeedSampler`
runs a small fixed probe (a Python loop and a few hundred small numpy
calls, the mix the studies spend their time in) every 0.1 s of a run,
from a SIGALRM handler on the running core, and before and after it.

    scaled seconds = (wall seconds - probe seconds) * mean(REFERENCE_S / probe_i)

is the run's time at the core speed at which the probe takes
REFERENCE_S.  The probe is this file's own code, so no change to spdelab
moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# about the probe's time on an idle core of the Xeon (family 6 model 143,
# 2.0 GHz) this benchmark was written on; any fixed value would do
REFERENCE_S = 0.002

_SMALL = np.linspace(0.0, 1.0, 64)


def probe() -> float:
    """Seconds the fixed probe takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    x = _SMALL
    for _ in range(150):
        x = np.sqrt(x * 1.0001 + 1.0) - 0.5
    return time.perf_counter() - t0


class SpeedSampler:
    """Probe the core at start(), every INTERVAL_S until stop(), and at stop().

    `spent_s` is the time the probes took between start() and stop(),
    which the caller takes off the wall time it measured in between.
    """

    def __init__(self):
        self.samples: list = []
        self.spent_s = 0.0
        self._old = None

    def _on_alarm(self, *_):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent_s += time.perf_counter() - t0

    def start(self) -> None:
        for _ in range(3):  # warm the probe's code and arrays
            probe()
        self.samples.append(probe())
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(probe())

    def speed(self) -> float:
        """Mean speed over the samples, relative to the reference speed."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples)
