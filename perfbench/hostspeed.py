"""Wall times scaled by the host's momentary speed.

On the shared 2-CPU cloud VM (Intel Xeon) where this benchmark was built, the
same code runs up to a third faster or slower for minutes at a time as other
tenants come and go.  That swing is wider than the bounds in BENCHMARK.json.
So every timed interval is bracketed by a fixed reference kernel, numpy work
on 4x4 arrays of the kind paraquat does, and reported as

    scaled = raw * REFERENCE_S / mean(kernel before, kernel after)

``REFERENCE_S`` is the kernel's usual duration on that VM, so scaled seconds
read as ordinary seconds there.  The kernel does not touch paraquat: no
change to the program can change it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.0065
_G = np.eye(4) + np.arange(16.0).reshape(4, 4) / 160


def reference_kernel() -> float:
    """Seconds for a fixed batch of small-array numpy work: array building
    from lists, symmetry and finiteness checks, inverse, determinant, einsum."""
    start = perf_counter()
    for _ in range(150):
        g = np.asarray([[_G[i, j] for j in range(4)] for i in range(4)], dtype=float)
        np.abs(g - g.T).max()
        np.all(np.isfinite(g))
        np.linalg.det(g)
        np.einsum("kl,lij->kij", np.linalg.inv(g), np.stack([g, g, g, g]))
    return perf_counter() - start


class ScaledClock:
    """Scales consecutive timed intervals by the kernel runs around each."""

    def __init__(self) -> None:
        self._before = reference_kernel()

    def scale(self, raw: float) -> float:
        """Call right after an interval of ``raw`` seconds ends."""
        after = reference_kernel()
        scaled = raw * REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return scaled
