"""The host's speed, from a fixed reference computation timed between ops.

The benchmark runs on a few cores of a shared host.  Other tenants on the
same cores change its speed by up to a factor of two within seconds, and
every op and import slows by the same factor.  ``reference()`` is a fixed
computation of the kind ergokit does (small dense NumPy products and norms
in a Python loop) that never changes with the package.  Its time beside an
op measures the host's speed at that moment, and ``scaled`` turns a wall
time into the time it would take at the speed where the reference takes
``REFERENCE_S``: about the median speed of the 2-vCPU host of the baseline
in README.md.  A change to the package moves the scaled times; a change of
the host's load mostly does not.

Changing anything in this file changes every end-to-end time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 2.8e-3
_A = np.random.default_rng(0).random((12, 12))
_A /= _A.sum(axis=0)


def reference() -> float:
    """Wall seconds of one run of the reference computation."""
    t0 = time.perf_counter()
    acc = 0.0
    B = _A
    for _ in range(240):
        B = _A @ B
        acc += float(np.abs(B - _A).sum(axis=0).max())
        acc += sum(k * 0.5 for k in range(60))
    return time.perf_counter() - t0


def reference_burst(previous: float) -> list[float]:
    """Reference times taking about 1% of the previous op's ``previous``
    seconds, 1 to 8 of them: a long op needs a sharper snapshot of the speed."""
    return [reference() for _ in range(min(8, max(1, round(previous / 0.3))))]


def scaled(wall: float, refs: list[float]) -> float:
    """``wall`` at reference speed, given reference times taken around it."""
    return wall * REFERENCE_S / statistics.median(refs)
