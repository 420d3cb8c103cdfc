"""The host's pace: how slowly this host runs a fixed reference kernel.

On a shared VM the host runs the same code at speeds up to 1.6x apart,
for seconds to minutes at a time, so raw timings of one commit spread
across runs by more than any useful bound. The end-to-end times are
therefore reported at a fixed host speed: a measured time is divided by
the pace, a measured rate multiplied by it. The pace is the median time
of a reference kernel sampled while the measured work runs, over
REFERENCE_S, the kernel's time at pace 1. The kernel mixes the kinds of
work beamprint does: a Python loop, small matrix products (MLP fit), a
sort of a large array (dataset sweeps), numpy calls on tiny arrays
(tree prediction) and parsing a JSON line and sorting its tuples
(reading measurement lines). It uses no beamprint code, so a change to
beamprint does not move it.

During the measured phase a SIGALRM timer runs the kernel every
PERIOD_S from a signal handler (between bytecodes of the measured
work), about 1.5 % of the phase. An interval of the phase is scaled by
the samples taken during it and MARGIN_S either side, so a change of
host speed within a run is followed. Set-up, which can be too short to
sample that way, is scaled by the samples taken during it together
with a burst of BURST kernels run right after it.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from typing import List

import numpy as np

REFERENCE_S = 1.5e-3
PERIOD_S = 0.1
MARGIN_S = 1.0
BURST = 31

_rng = np.random.default_rng(0)
_A = _rng.random((64, 256))
_B = _rng.random((256, 64))
_C = _rng.random(60_000)
_V = _rng.random(64)
_IDX = np.arange(40)
_LINE = json.dumps({"x": 1.5, "y": 2.5, "meas": [[i % 24, i % 32, -80.123456 - i / 7] for i in range(120)]})


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i
    for _ in range(6):
        _A @ _B
    np.sort(_C)
    idx = _IDX
    for _ in range(60):
        keep = _V[idx % 64] <= 0.5
        idx = idx[keep] if keep.any() else _IDX
    meas = [(c, b, float(r)) for c, b, r in json.loads(_LINE)["meas"]]
    meas.sort(key=lambda m: (-m[2], m[0], m[1]))
    return time.perf_counter() - t0


def burst_pace(samples: List[float]) -> float:
    """The pace over `samples` and a burst of BURST kernels run now."""
    return statistics.median(samples + [kernel_s() for _ in range(BURST)]) / REFERENCE_S


class Sampler:
    """Runs the kernel every PERIOD_S while the `with` block runs."""

    def __init__(self) -> None:
        self.times: List[float] = []  # perf_counter at the start of each sample
        self.samples: List[float] = []

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.times.append(time.perf_counter())
        self.samples.append(kernel_s())

    def pace(self) -> float:
        """The pace over the whole block."""
        return statistics.median(self.samples) / REFERENCE_S

    def duration(self, a: float, b: float) -> float:
        """The interval from a to b (perf_counter) at pace 1."""
        window = [s for t, s in zip(self.times, self.samples) if a - MARGIN_S <= t <= b + MARGIN_S]
        return (b - a) * REFERENCE_S / statistics.median(window or self.samples)
