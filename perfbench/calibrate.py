"""Fixed calibration kernels that track how fast the machine runs right now.

On a shared host the same code can run up to twice as slow for tens of
seconds when neighbours are busy, and the slowdown shows in CPU time as well
as in wall time. A run therefore times a fixed kernel right before and right
after every timed phase and scales the phase's time by ``REFERENCE_S[kind] /
kernel_time``: the phase's time at the machine's reference speed. The kernel
resembles the phase's own mix of work, since interpreter-bound and
memory-bound code slow down by different amounts.

The kernels use only NumPy and the standard library, never ``bontea``, so a
change to the program cannot change them.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Kernel times on the unloaded reference machine (2 cores, Python 3.11.7,
#: NumPy 2.4.6), in seconds: the lower decile of 300 calls.
REFERENCE_S = {"python": 0.0115, "numpy": 0.025}


class Calibrator:
    """Holds the kernels' inputs, so a call times only the work."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20260)
        self._groups = rng.standard_normal((100, 64))
        self._lines = [json.dumps({"rewards": row.tolist()}) for row in self._groups]
        self._block_seed = 20261

    def _python(self) -> float:
        """Per-group JSON decode, sort, tail statistics and JSON encode."""
        total = 0.0
        for line in self._lines:
            rewards = np.asarray(json.loads(line)["rewards"], dtype=float)
            top = np.sort(rewards)[-16:]
            values = np.where(rewards >= top[0], (rewards - top.mean()) / (top.std() + 1e-6), 0.0)
            total += len(json.dumps({"values": (values - values.mean()).tolist()}))
        return total

    def _numpy(self) -> float:
        """One lab-like block: draw, partition by row, shape and reduce."""
        z = np.random.default_rng(self._block_seed).standard_normal((512, 1024))
        top = np.partition(z, 768, axis=1)[:, 768:]
        r = top.min(axis=1)[:, None]
        shaped = np.where(z >= r, (z - r) + 0.5 * (z - top.mean(axis=1)[:, None]) ** 2, 0.0)
        return float(shaped.sum())

    def time(self, kind: str) -> float:
        """Seconds one call of the ``kind`` kernel takes now."""
        kernel = self._python if kind == "python" else self._numpy
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start


def scaled(seconds: list[float], kernel_seconds: list[float], kind: str) -> list[float]:
    """Phase times at the reference speed, from the kernel times around each."""
    return [t * REFERENCE_S[kind] / k for t, k in zip(seconds, kernel_seconds)]
