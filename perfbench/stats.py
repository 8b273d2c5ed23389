"""Order statistics used by every workload's report."""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction
from typing import Sequence

# Percentiles a tail may be reported at, lowest first.
TAIL_CANDIDATES = (75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with pct% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank pct-th of count samples."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail_percentile(count: int) -> float:
    """Highest candidate percentile with TAIL_MIN_BEYOND samples beyond it.

    100 (the maximum) when even p75 leaves fewer samples above it.
    """
    chosen = 100.0
    for pct in TAIL_CANDIDATES:
        if beyond(count, pct) >= TAIL_MIN_BEYOND:
            chosen = pct
    return chosen


def summarize(inputs: dict[object, list[float]], min_samples: int) -> dict:
    """Latency summary of one stream.

    ``inputs`` maps each distinct input to its samples, one per pass.  The
    median and the tail are taken over all samples; the tail percentile is
    chosen from ``min_samples``, the count every run reaches, so that it is
    the same in every run.  The total and the mean count each input once,
    at the median of its samples, so that a burst that slows one sample
    does not move them.
    """
    samples = [t for values in inputs.values() for t in values]
    medians = [median(values) for values in inputs.values()]
    pct = tail_percentile(min_samples)
    return {
        "inputs": len(medians),
        "samples": len(samples),
        "p50": median(samples),
        "tail_pct": pct,
        "tail": percentile(samples, pct),
        "tail_beyond": beyond(len(samples), pct),
        "total": sum(medians),
        "mean": sum(medians) / len(medians),
    }


# --- machine-speed reference --------------------------------------------------

# The machine the bounds were set on shifts between two speeds, often
# several times a second, so every timed call is scaled by kernel readings
# taken around and during it (SpeedClock) and reported at the speed where
# the kernel takes REFERENCE_NOMINAL_S (see NOTES.md).
REFERENCE_NOMINAL_S = 0.0020
REFERENCE_REPEATS = 3
_ROWS, _COLS = 6, 12


def _reference_kernel() -> None:
    """Exact rational elimination of a fixed 6 x 12 matrix, stdlib only.

    Its instruction mix (Fraction arithmetic inside list comprehensions)
    is the one that dominates the package's solver, so a slower machine
    slows both alike.
    """
    rows = [
        [Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 5 + 1) for j in range(_COLS)]
        for i in range(_ROWS)
    ]
    rank = 0
    for col in range(_COLS):
        pivot = next((i for i in range(rank, _ROWS) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(_ROWS):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == _ROWS:
            break


def reference_seconds(repeats: int = REFERENCE_REPEATS) -> float:
    """Median wall time of the reference kernel, measured now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return median(times)


SAMPLE_SPAN = "bench.speed_sample"  # not a layer: left out of layer totals


class SpeedClock:
    """Factors to reference speed for consecutive timed intervals.

    ``tick()`` reads the kernel and returns the factor for the interval
    since the previous tick: the mean of REFERENCE_NOMINAL_S / reading over
    the readings at both ends and any taken during the interval.  Calls
    made through ``run`` are also sampled every SAMPLE_INTERVAL_S, from a
    SIGALRM handler, so that a call lasting seconds is scaled by the speed
    the machine had while it ran, not only at its ends; the handler's own
    time is left out of the call's time and, when ``tracer`` is set,
    recorded as a span so that it is left out of its parent's self time.
    """

    SAMPLE_INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.readings = [reference_seconds()]
        self.kernel_s = list(self.readings)  # every reading, for the report
        self._stolen = 0.0
        self.tracer = None  # when set, each in-call reading is a span

    def tick(self) -> float:
        now = reference_seconds()
        self.kernel_s.append(now)
        self.readings.append(now)
        factor = sum(REFERENCE_NOMINAL_S / r for r in self.readings) / len(
            self.readings
        )
        self.readings = [now]
        return factor

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        span = self.tracer.begin(SAMPLE_SPAN) if self.tracer else None
        reading = reference_seconds(repeats=1)
        self.readings.append(reading)
        self.kernel_s.append(reading)
        if span:
            self.tracer.end(span)
        self._stolen += time.perf_counter() - start

    def run(self, fn, *args):
        """``fn(*args)`` with in-call sampling; returns (result, seconds)."""
        self._stolen = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_INTERVAL_S, self.SAMPLE_INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start - self._stolen
            signal.signal(signal.SIGALRM, previous)
        return result, seconds
