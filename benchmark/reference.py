"""Host-speed reference: a fixed numpy kernel timed throughout a run.

The machine this benchmark was built on is a 2-vCPU VM that shares its
host with other tenants.  The host's speed moves by up to 1.8x within
minutes, and it moves every timing together, process CPU time included (so
it is not time stolen from the VM, which CPU time would leave out).  Raw
wall times of the same code then spread by 0.2-0.5 of their median over
ten runs, past any bound the benchmark can set.

So the end-to-end times are reported in reference seconds.  A fixed kernel
that is independent of provex (the same mix of 784-wide matrix-vector
products and small-array Python work that the searches do) runs for about
1.4 ms every ``PERIOD_S`` of wall time, from a ``SIGALRM`` handler that
interrupts the searches between bytecodes.  A span's time is then scaled by
``REFERENCE_S / mean(passes during the span)``, with the slowest tenth of
the passes left out of the mean.  It reads as the span's seconds on a host
that runs one reference pass in ``REFERENCE_S``.  The handler's own time is
taken out of every span it interrupts.  A change to provex moves the span
and leaves the reference where it was, so it shows in full.  The host's
speed flips between a fast and a slow mode within a second, so the mean,
which weighs the two modes by their share of the span, tracks the searches;
a median would jump to whichever mode holds the majority.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Nominal time of one reference pass: its trimmed mean over a run on the
# 2-vCPU machine the baseline figures were taken on ranged from 1.1 to 1.7 ms.
REFERENCE_S = 1.4e-3
PERIOD_S = 0.2
# A span with fewer passes than this is scaled by the whole run's passes.
MIN_PASSES = 5
# Share of the slowest passes left out of the mean: a pass the scheduler
# preempted says nothing about the host's speed.
TRIM = 0.1

_rng = np.random.default_rng(0)
_WIDE = [_rng.standard_normal((200, 784))] + [_rng.standard_normal((200, 200)) for _ in range(3)]
_SMALL = [_rng.standard_normal((50, 100)), _rng.standard_normal((10, 50))]


def reference_pass() -> float:
    """One interval pass through a wide sigmoid net and fifteen through a
    small relu net, with per-element Python work; returns its seconds."""
    t0 = time.perf_counter()
    lo, hi = np.zeros(784), np.ones(784)
    for w in _WIDE:
        mid, rad = (lo + hi) / 2, (hi - lo) / 2
        c, r = w @ mid, np.abs(w) @ rad
        lo, hi = np.tanh(c - r) * 0.01, np.tanh(c + r) * 0.01
    for _ in range(15):
        lo, hi = np.full(100, -0.1), np.full(100, 0.1)
        for w in _SMALL:
            mid, rad = (lo + hi) * 0.5, (hi - lo) * 0.5
            c, r = w @ mid, np.abs(w) @ rad
            lo, hi = np.maximum(c - r, 0.0), np.maximum(c + r, 0.0)
        sorted(float(v) for v in hi)
    return time.perf_counter() - t0


def scale(passes: list[float]) -> float:
    """Factor from seconds on this host to reference seconds."""
    kept = sorted(passes)[: max(1, round(len(passes) * (1 - TRIM)))]
    return REFERENCE_S / statistics.fmean(kept)


class HostSpeed:
    """Context manager that runs a reference pass every ``PERIOD_S`` seconds.

    ``passes`` holds every pass's duration in order; ``spent`` is the total
    time the handler took, to be taken out of the spans it interrupted.
    """

    def __init__(self):
        self.passes: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a late tick while the last pass still runs
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.passes.append(reference_pass())
        finally:
            self.spent += time.perf_counter() - t0
            self._busy = False

    def mark(self) -> tuple[int, float]:
        return len(self.passes), self.spent

    def since(self, mark: tuple[int, float]) -> tuple[list[float], float]:
        """Passes taken and handler seconds spent since ``mark``."""
        count, spent = mark
        return self.passes[count:], self.spent - spent
