"""Speed correction: every reported time is scaled to a reference CPU speed.

The box this benchmark runs on is a shared virtual machine whose CPU
speed moves by up to 30 % and holds for tens of seconds (a fixed Python
loop takes 105 ms, then 145 ms for 20 s, then 112 ms; no steal time is
reported).  A run is at most 30 s long, so no run length averages that
out, and uncorrected medians spread by 0.10-0.25 from run to run.

The benchmark therefore times a fixed calibration kernel — interpreter
bytecode plus the numpy sort/gather/search the evaluator is made of,
nothing of the program under test — before and after every timed batch,
and multiplies the batch's times by ``REFERENCE_S / kernel time``.  On
identical cold passes this took the quartile spread from 0.19 to 0.035
per single pass.  A reported ``ms`` is thus "ms on this box at its
reference speed"; the factors of a run are printed so the raw times can
be recovered.  Counts, bytes and ratios are never corrected.
"""

from __future__ import annotations

import time

import numpy as np

#: what one kernel unit takes on the box the bounds were measured on
REFERENCE_S = 0.0105
_KEYS = np.random.default_rng(0).integers(0, 1 << 30, size=60_000)


def unit() -> float:
    """Seconds one fixed piece of interpreter + numpy work takes."""
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    order = np.argsort(_KEYS, kind="stable")
    ordered = _KEYS[order]
    np.cumsum(ordered)
    np.searchsorted(ordered, _KEYS[:20_000])
    return time.perf_counter() - t0


def kernel() -> float:
    """The fastest of three units: a pre-emption lengthens one unit,
    the CPU's current speed lengthens all three."""
    return min(unit() for _ in range(3))


class Speed:
    """Chained calibration.  ``start()`` runs the kernel and starts the
    clock; ``stop()`` returns the factor of the batch that just ended —
    from the kernel runs on either side of it — and starts the next
    batch, so adjacent batches share a kernel run."""

    def __init__(self):
        self.factors: list[float] = []
        self._kernel = 0.0
        self._started = 0.0

    def start(self) -> None:
        self._kernel = kernel()
        self._started = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """``(corrected seconds since start, factor)``."""
        raw = time.perf_counter() - self._started
        after = kernel()
        factor = REFERENCE_S / ((self._kernel + after) / 2.0)
        self.factors.append(factor)
        self._kernel = after
        self._started = time.perf_counter()
        return raw * factor, factor

    def summary(self) -> str:
        """The run's factors, for the report (raw = reported / factor)."""
        factors = sorted(self.factors)
        return (f"median {factors[len(factors) // 2]:.3f} "
                f"(min {factors[0]:.3f}, max {factors[-1]:.3f})")
