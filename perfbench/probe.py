"""Host-speed probe: scales wall times to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x over tens of seconds while the benchmark's own process sees no stolen
time (its CPU time equals its wall time).  A median over a 20 s run cannot
average that out: ten runs of the same code spread by up to 30%.

So the benchmark runs a fixed probe before every operation and after the
last one.  The probe is the benchmark's own code, not the package's: a
Python integer loop, a bilinear gather on a 256x256 array, 2-D FFTs and a
pass over an 8 MB array, i.e. the kinds of work the package does.  For
workloads that start a process per operation it also starts one Python
process that does nothing, because process start follows the host's speed
differently from computing in a warm process: in one slow phase starting
Python took twice as long, and the estimate in a warm process 1.2 times.

An operation's time is split into the part spent computing in a started
process and the rest (process start, imports, exit).  Each part is scaled
by the reference time over the mean of the matching probes on either side
of the operation: the time it would have taken on a host on which the
probes take their reference times.  A change to the package moves the
scaled time as it moves the wall time; a change in host speed moves the
probes too and largely cancels.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Reference times of the probes inside benchmark runs on a 2-vCPU Intel
# Xeon VM (Python 3.11, numpy 2.4): the compute probe's median, and a value
# between the process-start medians of a fast and a slow phase (62 and
# 117 ms).  They only set the scale, so that scaled times read as
# milliseconds on such a host.
REFERENCE_MS = 12.0
SPAWN_REFERENCE_MS = 90.0
SPAWN_TIMEOUT_S = 60

_rng = np.random.default_rng(0)
_IMAGE = _rng.random((256, 256))
_POINTS = _rng.random((65536, 2)) * 254.0
_BIG = _rng.random(1 << 20)


def _python_loop() -> int:
    total = 0
    for i in range(20_000):
        total += i * i
    return total


def _gather() -> float:
    x, y = _POINTS[:, 0], _POINTS[:, 1]
    x0, y0 = np.floor(x).astype(int), np.floor(y).astype(int)
    fx, fy = x - x0, y - y0
    value = (_IMAGE[y0, x0] * (1 - fx) * (1 - fy) + _IMAGE[y0, x0 + 1] * fx * (1 - fy)
             + _IMAGE[y0 + 1, x0] * (1 - fx) * fy + _IMAGE[y0 + 1, x0 + 1] * fx * fy)
    return float(value.sum())


def _fft() -> float:
    return float(np.fft.fft2(np.fft.fft2(_IMAGE)).real[0, 0])


def _stream() -> float:
    return float((_BIG * 1.5 + _BIG).sum())


class Probe:
    """The compute probe, and a process start if ``spawn``."""

    def __init__(self, spawn: bool = False):
        self.spawn = spawn

    def __call__(self) -> tuple[float, float]:
        """Wall ms of the compute probe and of the process start (0 without ``spawn``)."""
        start = time.perf_counter()
        _python_loop()
        _gather()
        _fft()
        _stream()
        computing = (time.perf_counter() - start) * 1e3
        if not self.spawn:
            return computing, 0.0
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=SPAWN_TIMEOUT_S)
        return computing, (time.perf_counter() - start) * 1e3

    def scaled(self, seconds: float, computing: float, before, after) -> float:
        """``seconds`` of wall time, of which ``computing`` in a started process,
        scaled to a host where the probes take their reference times."""
        scaled = computing * REFERENCE_MS / ((before[0] + after[0]) / 2.0)
        if seconds > computing:
            scaled += (seconds - computing) * SPAWN_REFERENCE_MS / ((before[1] + after[1]) / 2.0)
        return scaled
