"""Self-test of the benchmark's statistics and accounting helpers.

``run.py`` runs these checks before every measurement, so a broken helper
stops the run before it prints a result.  Standalone::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from types import SimpleNamespace

from measure import (
    KERNEL_REFERENCE_S,
    HostSpeed,
    Tally,
    describe,
    median,
    overhead_share,
    quartiles,
    relative_spread,
    same_result,
    self_times,
    tail,
)
from tracing import Tracer

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def check_percentile_rule() -> None:
    # 20 samples: the median has exactly 10 beyond it, p75 only 5.
    assert tail(range(1, 21)) == (50.0, 10.0)
    # 19 samples support no percentile at all.
    assert tail(range(19)) is None
    # 100 samples: p90 (rank 90) leaves 10 beyond, p95 only 5.
    assert tail(range(1, 101)) == (90.0, 90.0)
    # 1000 samples: p99 (rank 990) leaves 10 beyond, p99.9 only 1.
    assert tail(range(1, 1001)) == (99.0, 990.0)
    # Order of the input does not matter.
    assert tail(list(range(100, 0, -1))) == (90.0, 90.0)


def check_median_and_quartiles() -> None:
    assert median([3, 1, 2]) == 2.0
    assert median([4, 1, 3, 2]) == 2.5
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == (11.75, 14.5, 17.25)
    assert abs(relative_spread(values) - (17.25 - 11.75) / 14.5) < 1e-12
    assert describe(values, 1e3, " ms") == (
        "n=10 q1 1.175e+04 ms median 1.45e+04 ms q3 1.725e+04 ms (spread 37.9%)"
    )
    for bad in ([], [1.0]):
        try:
            quartiles(bad)
        except ValueError:
            continue
        raise AssertionError("quartiles accepted fewer than two values")


def check_self_time() -> None:
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9].
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # Self times of a tree add up to the root's duration.
    assert sum(self_times(spans)) == 10.0


def check_error_rate() -> None:
    tally = Tally()
    assert tally.error_rate == 0.0
    assert tally.check(True, "ok")
    assert not tally.check(False, "mismatch")
    tally.check(True, "ok")
    tally.check(True, "ok")
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.error_rate == 0.25
    assert tally.notes == ["mismatch"]
    other = Tally()
    other.check(False, "late")
    tally.merge(other)
    assert (tally.attempted, tally.failed, tally.error_rate) == (5, 2, 0.4)


def check_result_helpers() -> None:
    a = SimpleNamespace(energy=-3.0, sigma=[1, -1, 1])
    assert same_result(a, SimpleNamespace(energy=-3.0, sigma=[1, -1, 1]),
                       ("energy", "sigma"))
    assert not same_result(a, SimpleNamespace(energy=-3.0, sigma=[1, 1, 1]),
                           ("energy", "sigma"))
    # Overhead is the median of the paired relative differences.
    pairs = [(1.0, 1.1), (2.0, 2.0), (1.0, 1.5)]
    assert abs(overhead_share(pairs) - 0.1) < 1e-12


def check_host_speed() -> None:
    """Slowness is a kernel time over the reference, fastest or median."""
    host = HostSpeed()
    host.samples = [2 * KERNEL_REFERENCE_S, KERNEL_REFERENCE_S, 4 * KERNEL_REFERENCE_S]
    assert host.fastest() == 1.0 and host.median() == 2.0
    host.samples = []
    host.sample()
    assert len(host.samples) == 1 and host.samples[0] > 0.0


def check_tracer_toggle() -> None:
    """Wrappers come off for the untraced half of a pair and on again."""

    class Layer:
        def work(self, x):
            return 2 * x

    original = Layer.__dict__["work"]
    tracer = Tracer(HostSpeed())
    tracer.wrap(Layer, "work", "layer.work")
    result, seconds = tracer.paired("run", lambda: Layer().work(3))
    assert result == 6 and seconds >= 0.0
    assert len(tracer.spans) == 1 and len(tracer.pairs["run"]) == 1
    assert len(tracer.host.samples) == 1 and tracer.host.fastest() > 0.0
    assert Layer.__dict__["work"] is not original
    tracer.restore()
    assert Layer.__dict__["work"] is original


def check_metric_lists() -> None:
    """The metrics the run prints are exactly those BENCHMARK.json names."""
    from run import END_TO_END

    spec = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    try:
        import layers
    except ImportError:  # the program itself is checked by run.py
        return
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [tuple(row) for row in layers.PER_LAYER]


def run_all() -> None:
    check_percentile_rule()
    check_median_and_quartiles()
    check_self_time()
    check_error_rate()
    check_result_helpers()
    check_host_speed()
    check_tracer_toggle()
    check_metric_lists()


if __name__ == "__main__":
    run_all()
    print("perfbench self-test passed")
