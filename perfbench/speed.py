"""Follow the machine's current speed with fixed reference work.

On a shared machine the same trial can take 1.5x longer from one half-minute
to the next, and process time moves with wall time, so the slowdown is the
CPU's, not scheduling. The benchmark therefore runs reference work that does
not depend on the program next to what it times, and scales every timing to
the speed at which the reference takes its ``REFERENCE`` time. A scaled time
reads as the wall time the same work takes on this machine when it is not
contended; the raw wall times are printed beside it.

Items are scaled by a calibration loop sampled between them. Set-up time is
scaled by a fresh interpreter importing numpy, dpe's one dependency, run in
turn with the one importing dpe: process start-up and shared-library loading
slow down differently from interpreted loops.
"""

from __future__ import annotations

import statistics
import subprocess
import time

import numpy as np

#: Calibration loop time on an uncontended 2-core Xeon under Python 3.11.
REFERENCE_S = 0.0016

#: A fresh interpreter's ``import numpy`` on the same machine.
REFERENCE_IMPORT_S = 0.17

_DATA = bytes(range(256)) * 16
_PAIRS = list(_DATA[:1200])
_WIDE = np.frombuffer(bytes(range(256)) * 1024, dtype=np.uint8)
_SYMBOLS = tuple(_DATA[:6000:3] * 3)
_MASK = tuple(i % 97 == 0 for i in range(len(_SYMBOLS)))


def calibration_s() -> float:
    """Seconds one pass of the loop takes now.

    The loop mixes what an item spends its time on: interpreted integer
    bytecode, tuple, list, set and dict churn, bytes searches and numpy
    compares over an array larger than the first-level caches.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(6_000):
        acc += _DATA[i & 4095] * i % 7
    counts: dict = {}
    for pair in zip(_PAIRS, _PAIRS[1:]):
        counts[pair] = counts.get(pair, 0) + 1
    for i in range(0, 1200, 4):
        acc += _DATA.find(_DATA[i : i + 5], i + 1)
    for k in range(1, 4):
        acc += int(np.count_nonzero(_WIDE[k:] != _WIDE[:-k]))
    keep = [i for i in range(len(_SYMBOLS)) if not _MASK[i]]
    kept = bytes(tuple(_SYMBOLS[i] for i in keep))
    acc += len({kept[i : i + 3] for i in range(0, len(kept) - 3, 3)})
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibration samples taken between timed pieces of work."""

    def __init__(self):
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.samples.append(calibration_s())

    def scale(self, first: int, last: int) -> float:
        """Factor that turns a wall time into reference time, from samples first..last."""
        return REFERENCE_S / statistics.fmean(self.samples[first : last + 1])


def _wall_s(cmd, cwd) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=cwd, check=True)
    return time.perf_counter() - t0


def scaled_import_s(cmd, reference_cmd, cwd, repeats: int) -> tuple[float, float]:
    """(median scaled, median raw) seconds of ``cmd``, each run paired with the reference."""
    _wall_s(cmd, cwd)  # compiles bytecode and warms the file cache
    _wall_s(reference_cmd, cwd)
    scaled, raw = [], []
    for _ in range(repeats):
        wall = _wall_s(cmd, cwd)
        raw.append(wall)
        scaled.append(wall / _wall_s(reference_cmd, cwd) * REFERENCE_IMPORT_S)
    return statistics.median(scaled), statistics.median(raw)
