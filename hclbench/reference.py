"""A fixed reference task that gauges the machine's speed during a run.

A shared host changes speed by up to a factor of two, for seconds to
minutes at a time. Process CPU time leaves out the time the host gives to
other guests, but not the slowdown that comes from sharing caches and
memory bandwidth with them. The reference task is a small mix of the kinds
of work hcl does (dense products, elementwise updates over arrays larger
than the caches, row sorts and an interpreter loop) on fixed inputs. It is
part of the benchmark, not of hcl, so a change to hcl cannot change it.

:class:`Gauge` runs one reference pass after each timed step and scales
the step's CPU time by ``NOMINAL_SECONDS`` over the mean of the passes just
before and just after it. A scaled time is thus the time the step would
take on a machine on which one reference pass takes ``NOMINAL_SECONDS``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ROWS, HIDDEN, CLASSES = 64, 800, 584

# about one pass on an idle 2-core x86-64 VM with numpy on one BLAS thread
NOMINAL_SECONDS = 0.1


class Reference:
    """Fixed inputs, built once; :meth:`seconds` times one pass over them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((ROWS, HIDDEN))
        self.w = rng.standard_normal((HIDDEN, CLASSES)) * 0.01
        self.m = np.zeros_like(self.w)
        self.v = np.zeros_like(self.w)
        self.scores = rng.standard_normal((8 * ROWS, CLASSES))
        self.parents = [max(0, (i - 1) // 8) for i in range(CLASSES)]

    def run(self) -> float:
        """One pass; returns a checksum so the work cannot be skipped."""
        total = 0.0
        w, m, v = self.w, self.m, self.v  # every pass starts from the same state
        for _ in range(8):
            s = self.x @ w
            g = self.x.T @ (1.0 / (1.0 + np.exp(-s)) - 0.5)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w = w - 1e-3 * m / (np.sqrt(v) + 1e-8)
        order = np.lexsort((np.broadcast_to(np.arange(CLASSES), self.scores.shape),
                            -self.scores), axis=1)
        total += float(order[:, 0].sum())
        for i in range(4 * ROWS):
            a, b = i % CLASSES, (7 * i) % CLASSES
            while a != b:
                a, b = (self.parents[a], b) if a > b else (a, self.parents[b])
            total += a
        return total

    def seconds(self) -> float:
        """CPU time of one pass."""
        t0 = time.process_time()
        self.run()
        return time.process_time() - t0


class Gauge:
    """Reference passes between timed steps, and the scale factor of each step."""

    def __init__(self):
        self.reference = Reference()
        self.reference.run()  # warm-up, not recorded
        self.passes = [self.reference.seconds()]

    def __call__(self) -> float:
        """Run a pass now; return the factor for the step since the last pass."""
        self.passes.append(self.reference.seconds())
        return NOMINAL_SECONDS / statistics.fmean(self.passes[-2:])
