"""Machine-speed calibration for the end-to-end timings.

The benchmark was written on a shared two-core virtual machine whose speed
drifts by a quarter and more within minutes, for every program alike.  So
a run interleaves chunks of a fixed kernel, independent of ccscatter, with
its work: one on either side of each set-up probe, one before the first
pass, one after every ``INTERVAL_S`` seconds of calls and one at the end of
each pass.  The run's speed factor is the median chunk time over
``REFERENCE_S``; timings are reported divided by it, at the reference
speed.  The raw timings are printed beside them.

The kernel mixes what the library spends its time on: elementwise
transcendental functions over a block of 2x2 complex matrices, a Python
loop of small batched matrix products (the shape of a Magnus sweep), and
interpreter-bound dictionary and float work (the shape of the CLI and the
phase loops).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.08  # median chunk time on the machine the benchmark was written on
INTERVAL_S = 0.4  # seconds of calls between chunks

_BLOCK = (16, 2048, 2, 2)
_PY_ROUNDS = 75000


def _kernel(blocks: np.ndarray, keys: tuple[str, ...]) -> float:
    c = np.cosh(np.sqrt(blocks))
    m = c[:, 0]
    for i in range(1, blocks.shape[1]):
        m = c[:, i] @ m
        if i % 64 == 0:
            m = m / np.abs(m).max()
    acc: dict[str, float] = {}
    for i in range(_PY_ROUNDS):
        key = keys[i % len(keys)]
        acc[key] = acc.get(key, 0.0) + math.sin(i * 1e-3)
    return float(np.abs(m).sum()) + sum(acc.values())


class Calibration:
    """Chunk timings of one run."""

    reference = REFERENCE_S
    interval = INTERVAL_S

    def __init__(self):
        rng = np.random.default_rng(0)
        self._blocks = rng.random(_BLOCK) + 1j * rng.random(_BLOCK)
        self._keys = tuple(f"k{i}" for i in range(97))
        self.samples: list[float] = []
        self.chunk()  # the first call pays page faults and lazy set-up
        self.samples.clear()

    def chunk(self) -> None:
        start = time.perf_counter()
        _kernel(self._blocks, self._keys)
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Slowness of the run relative to the reference: above 1 is slower."""
        return statistics.median(self.samples) / REFERENCE_S
