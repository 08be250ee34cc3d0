"""Host speed probe: express measured times at the reference machine's speed.

The reference machine shares its host with other tenants. For seconds to
minutes at a time it runs the same code about 1.75x slower: there are two
distinct speeds, and s3and queries and the probe below switch between them
together. Over two minutes of 20-query windows, the raw query time spread
by 60% of its median and the ratio of query time to probe time by 7%.

So the benchmark times a fixed probe right before and right after each
window of measured operations, and multiplies every time measured in the
window by ``REFERENCE_S`` over the mean of the two probes. When the two
probes disagree, the host changed speed inside the window and the caller
may time the window again. A change to the program moves the scaled time
exactly as it moves the raw one; the probe is part of the benchmark, not of
the program, and a change of host speed moves both. Raw times and every
factor are kept in the run record.
"""

from __future__ import annotations

import time

import numpy as np

# Probe seconds on the reference machine (2-vCPU Intel Xeon at 2.0 GHz,
# Python 3.11.7, NumPy 2.4.6) at its faster speed. Scaled times therefore
# read as seconds on that machine when it is not slowed down.
REFERENCE_S = 0.0061

# Two probes of one window that differ by more than this share mean the host
# changed speed inside the window, so the factor fits none of its times.
STEADY_TOLERANCE = 0.15

_WORDS = np.arange(1, 65, dtype=np.uint64)


def _kernel() -> int:
    # The program's mix: interpreter work, dict stores, small-array NumPy.
    table = {}
    total = 0
    for i in range(1500):
        table[i % 97] = i
        row = _WORDS[i % 60 : i % 60 + 4]
        total += int(np.all((row & _WORDS[:4]) == _WORDS[:4]))
    return total


def probe() -> float:
    """Seconds of the fastest of three kernel runs (about 20 ms in all)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class ScaledClock:
    """Times operations in windows that start and end with a probe."""

    def __init__(self) -> None:
        self.factors: list[float] = []
        self.steady = True  # whether the last window's probes agreed
        self._before = 0.0
        self._raw: list[float] = []

    def begin(self) -> None:
        self._before = probe()
        self._raw = []

    def time(self, fn, *args):
        """Call ``fn`` and record its wall time; returns its result."""
        t0 = time.perf_counter()
        out = fn(*args)
        self._raw.append(time.perf_counter() - t0)
        return out

    def end(self) -> tuple[list[float], list[float]]:
        """Close the window; returns its (scaled, raw) times in call order."""
        after = probe()
        self.steady = abs(after - self._before) <= STEADY_TOLERANCE * min(after, self._before)
        factor = REFERENCE_S / ((self._before + after) / 2.0)
        self.factors.append(factor)
        return [s * factor for s in self._raw], self._raw
