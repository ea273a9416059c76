"""Machine-speed calibration of the benchmark's timings.

On a shared 2-vCPU Intel Xeon VM (Python 3.11) the machine's speed
drifts with its neighbours' load: the same pure-Python code takes up to
~45% longer for tens of seconds at a time, so a whole run can be slow and
medians within a run do not remove it.  A fixed calibration loop run
right before and right after each operation slows down by nearly the
same factor.  Over 120 s of alternating samples, medians of 20 engine
runs varied from 0.67 to 1.17 of their overall median, while their ratio
to this loop stayed within 0.88-1.07.

So every timing is reported as measured and then rescaled to a reference
machine speed:

    reported = measured * REFERENCE_NS / calibration_ns

where calibration_ns is the mean of the two calibrations around the
timed interval.  The raw timings and scale factors are kept in the
result log.  The loop is the benchmark's own code, so a change to the
package cannot move it.
"""

from __future__ import annotations

import time

ROUNDS = 40
# The loop's time on that VM when undisturbed (the fastest 5% of
# its samples); it only sets the scale of the reported figures.
REFERENCE_NS = 11_000_000


class _Node:
    __slots__ = ("key", "tag", "nxt")

    def __init__(self, key, tag):
        self.key = key
        self.tag = tag
        self.nxt = None


def calibrate() -> int:
    """Nanoseconds for one run of a fixed interpreter-bound loop over small
    objects: slot reads and writes, list indexing and integer arithmetic,
    the mix the package's pure-Python engines spend their time on.  Of the
    loops tried, this one tracked the engines' slowdown most closely."""
    t0 = time.perf_counter_ns()
    nodes = [_Node(i, i * 7 % 13) for i in range(2000)]
    head = [-1] * 64
    acc = 0
    for r in range(ROUNDS):
        for i, node in enumerate(nodes):
            j = node.tag & 63
            if head[j] != i:
                head[j] = i
                acc += node.key
            node.nxt = nodes[(i * 31 + r) % 2000]
    return time.perf_counter_ns() - t0


def scale(before_ns: int, after_ns: int) -> float:
    """Factor that rescales a timing taken between two calibrations."""
    return REFERENCE_NS / ((before_ns + after_ns) / 2)
