"""Calibrating walls against the host's current speed.

The speed of a shared host drifts by tens of percent within seconds, and
a busy host slows object-heavy Python code, which is what the repair
pipeline runs, more than it slows plain arithmetic.  A fixed object-churn
kernel therefore serves as the yardstick: timed around every measured
window to rescale the window's walls, and timed at length once to score
a machine in a committed baseline.
"""

from __future__ import annotations

import statistics
import time

#: Median wall of :func:`kernel_s` on the reference machine (a 2-CPU VM
#: running Python 3.11), so calibrated times read as seconds there.
KERNEL_REF_S = 0.0045


def _churn() -> int:
    table = {}
    for i in range(12_000):
        table[(i, i % 7)] = (i, str(i))
    return len(sorted(table.values(), key=lambda value: value[1]))


def kernel_s() -> float:
    """Median wall of five runs of the kernel."""
    walls = []
    for _ in range(5):
        started = time.perf_counter()
        _churn()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def calibration_s() -> float:
    """Wall of 200 runs of the kernel (about a second on the reference)."""
    started = time.perf_counter()
    for _ in range(200):
        _churn()
    return time.perf_counter() - started


class Calibration:
    """Scales walls to seconds at the reference machine's speed.

    The kernel is timed at both edges of every timed window, and a wall
    measured inside the window is scaled by :data:`KERNEL_REF_S` over the
    mean of the two kernel walls.  A change to the program moves the wall
    and not the kernel, so it moves the calibrated time alike.
    """

    def __init__(self) -> None:
        self.edge = kernel_s()

    def factor(self) -> float:
        """Close the current window, open the next; the closed one's factor."""
        edge = kernel_s()
        factor = 2 * KERNEL_REF_S / (self.edge + edge)
        self.edge = edge
        return factor
