"""Statistics and accounting helpers shared by the workloads.

Everything here is independent of the program and checked by
``selftest.py`` (which ``run.py`` also runs before every measurement).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    """Median of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2)


def describe(values, scale: float = 1.0, unit: str = "") -> str:
    """``n``, quartiles and relative spread of timing samples, for reports."""
    values = [v * scale for v in values]
    if len(values) < 2:
        return f"n={len(values)} " + " ".join(f"{v:.4g}{unit}" for v in values)
    q1, q2, q3 = quartiles(values)
    return (f"n={len(values)} q1 {q1:.4g}{unit} median {q2:.4g}{unit} "
            f"q3 {q3:.4g}{unit} (spread {relative_spread(values):.1%})")


def tail(values) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest supported tail percentile.

    A percentile is supported when at least :data:`MIN_BEYOND` samples lie
    beyond its nearest rank; ``None`` when not even the median is.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return pct, float(ordered[rank - 1])
    return None


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's durations.

    ``spans`` is a sequence of ``(name, start, end, parent)`` rows (extra
    fields ignored), where ``parent`` is the index of the enclosing span
    or ``None``.  Children of one parent never overlap (they run on the
    parent's thread, one after another).
    """
    own = [span[2] - span[1] for span in spans]
    out = list(own)
    for span, duration in zip(spans, own):
        parent = span[3]
        if parent is not None:
            out[parent] -= duration
    return out


def same_result(a, b, fields) -> bool:
    """Whether two results agree exactly on every named field."""
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)


def energies_ok(problem, sigmas, energies) -> bool:
    """Whether each reported energy is the one its configuration has.

    Compared as cuts, exactly: every benchmark instance has dyadic weights,
    so both sides are exact in floating point.
    """
    return all(
        problem.cut_value(sigma) == problem.cut_from_energy(float(energy))
        for sigma, energy in zip(sigmas, energies)
    )


def overhead_share(pairs) -> float:
    """Median of ``(traced - untraced) / untraced`` over paired samples."""
    return median((traced - untraced) / untraced for untraced, traced in pairs)


#: Seconds :func:`kernel` takes at the reference host speed: its fastest
#: time on the two-core Xeon host the bounds were set on (Python 3.11,
#: numpy 2.4).
KERNEL_REFERENCE_S = 3.0e-3

_KERNEL_DATA = np.arange(4096.0)
_KERNEL_INDEX = np.arange(0, 4096, 3)


def kernel() -> float:
    """Seconds one pass of a fixed interpreter and small-array kernel takes.

    The kernel calls nothing of the program, so a change to the program
    never changes it; it mixes the two kinds of work the workloads spend
    their time in, Python bytecode and many small numpy calls.
    """
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    data = _KERNEL_DATA.copy()
    for _ in range(150):
        data[_KERNEL_INDEX] += 1.0
        float(data @ data)
    return time.perf_counter() - start


class HostSpeed:
    """How slow the host runs, from :func:`kernel` timed before each unit.

    Shared hosts change speed by a third and more for seconds to minutes
    at a time, and CPU time slows down with wall time there.  A unit of
    work and the kernel pass just before it see the same host, so the
    end-to-end times are divided by the kernel's slowness over
    :data:`KERNEL_REFERENCE_S`: a change to the program moves them in
    full, a change of host speed mostly cancels.  The kernel runs while
    the program is idle between units.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the kernel twice, keep the faster pass: the first one also
        pays for caches the preceding unit of work left cold."""
        self.samples.append(min(kernel(), kernel()))

    def fastest(self) -> float:
        """Slowness from the fastest pass; pairs with fastest-unit figures."""
        return min(self.samples) / KERNEL_REFERENCE_S

    def median(self) -> float:
        """Slowness from the median pass; pairs with median figures."""
        return median(self.samples) / KERNEL_REFERENCE_S


class Tally:
    """Attempted/failed operation counts and the error rate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record ``what`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def merge(self, other: "Tally") -> None:
        """Add another tally's counts."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes)

    @property
    def error_rate(self) -> float:
        """Failed or mismatched operations over attempted ones."""
        return self.failed / self.attempted if self.attempted else 0.0


class Outcome:
    """What one workload run hands back to ``run.py``."""

    def __init__(self, e2e, counters, tally, lines, setups, requests,
                 quality_ops=(), due_times=None, serial_iterations=0) -> None:
        self.e2e = e2e
        self.counters = counters
        self.tally = tally
        self.lines = lines
        self.setups = setups
        self.requests = requests
        self.quality_ops = set(quality_ops)
        #: Open-loop due time per job id (``serve-open`` only).
        self.due_times = due_times or {}
        #: Iterations of the serial annealer in the timed phase.
        self.serial_iterations = serial_iterations
