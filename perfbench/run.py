#!/usr/bin/env python3
"""The annealer's benchmark: three workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload tiled-gset --seed 1 --seconds 10 --trace 0

Workloads (see each module's docstring):

* ``tiled-gset`` (``tiled.py``): the paper's tiled in-situ machine on
  ``R2000-0`` and ``T3000-0`` — layout race, tile programming, per-tile
  crossbar evaluation, serial Algorithm 1;
* ``replica-sweep`` (``sweep.py``): 32-replica batch solves of a 20k-node
  graph on the packed and the sparse float backends;
* ``serve-open`` (``serve_open.py``): an open-loop job schedule into one
  in-process ``SolverService``.

``--trace 0`` prints the end-to-end metrics, measured with no wrapper
installed.  ``--trace 1`` wraps every layer's entry points (``layers.py``)
and runs each set-up and each timed unit of work twice with the same
inputs, untraced and then traced; it prints the per-layer metrics from the
traced halves and the tracing overhead as the median of the paired
differences, and writes the spans to ``perfbench/out/``.

End-to-end metrics (every workload reports each one):

* ``setup_s``: median over several set-ups spread through the run;
* ``anneal_iters_per_s``: replica-iterations per second, from the fastest
  sample of each unit of work (an execute, a batch solve) or, for
  ``serve-open``, the median burst;
* ``cut_ratio``: mean best cut over a stored reference (see the modules);
* ``peak_rss_mb``: peak resident memory of the process.

The two times are in reference-host seconds: host time divided by the
host's slowness, measured with a fixed kernel before every unit
(``measure.HostSpeed``; a median pairs with the median kernel pass, a
fastest unit with the fastest pass).  Hosts with shared cores
change speed by a third and more for seconds to minutes at a time, which
no estimator over one run's host times can remove; the run also prints
the plain host-time figures.

Every workload checks its outputs (see the modules); a failed check counts
in ``failed`` and makes ``correct`` false.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One process, the service's one worker thread, and no BLAS thread pools:
# the load stays within a two-core host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: (name, unit) of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s"),
    ("anneal_iters_per_s", "1/s"),
    ("cut_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]

WORKLOADS = {
    "tiled-gset": ("tiled", 3),
    "replica-sweep": ("sweep", 15),
    "serve-open": ("serve_open", 15),
}


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(module, seed, seconds, setup_reps, trace, env):
    """Run one workload; returns (end-to-end metrics, per-layer or None, outcome)."""
    from measure import KERNEL_REFERENCE_S, HostSpeed, describe, median
    from tracing import NullTracer, Tracer

    host = HostSpeed()
    if not trace:
        outcome = module.run(seed, seconds, setup_reps, NullTracer(host))
        raw = outcome.e2e
        outcome.lines.append(
            f"host speed: kernel fastest {min(host.samples) * 1e3:.3f} ms, "
            f"median {median(host.samples) * 1e3:.3f} ms over {len(host.samples)} "
            f"(reference {KERNEL_REFERENCE_S * 1e3:g} ms); host-time setup_s "
            f"{raw['setup_s']:.6g} s, anneal_iters_per_s {raw['anneal_iters_per_s']:.6g}"
        )
        e2e = dict(
            raw,
            setup_s=raw["setup_s"] / host.median(),
            anneal_iters_per_s=raw["anneal_iters_per_s"]
            * getattr(host, module.THROUGHPUT_FROM)(),
            peak_rss_mb=peak_rss_mb(),
        )
        return e2e, None, outcome

    import layers

    tracer = Tracer(host)
    cap = layers.install(tracer)
    try:
        traced = module.run(seed, seconds, setup_reps, tracer)
    finally:
        tracer.restore()
    values = layers.per_layer(tracer.totals(), tracer.pairs, cap, traced)
    for kind, pairs in tracer.pairs.items():
        shares = [(t - u) / u for u, t in pairs]
        traced.lines.append(f"tracing overhead, {kind} pairs: {describe(shares)}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{module.__name__}-seed{seed}.json", "w") as fh:
        json.dump({"environment": env,
                   "fields": ["index", "name", "start", "end", "parent", "op",
                              "phase", "thread"],
                   "spans": tracer.ordered()}, fh)
    return traced.e2e, values, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if src.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import selftest

    selftest.run_all()
    module_name, setup_reps = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    env = environment()
    e2e, layer_values, outcome = measure(
        module, args.seed, args.seconds, setup_reps, bool(args.trace), env
    )
    tally = outcome.tally

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in outcome.lines:
        print("  " + line)
    units = dict(END_TO_END)
    for name, unit in END_TO_END:
        if name in e2e:
            print(f"  {name:<22} {e2e[name]:14.6g} {unit}")
    print(f"  error_rate             {tally.error_rate:14.6g} "
          f"({tally.failed}/{tally.attempted})")
    for note in tally.notes[:20]:
        print(f"  FAILED: {note}")

    if layer_values is None:
        metrics = {name: {"value": e2e[name], "unit": units[name]}
                   for name, _ in END_TO_END}
    else:
        import layers

        metrics = {}
        for name, unit, _ in layers.PER_LAYER:
            metrics[name] = {"value": float(layer_values[name]), "unit": unit}
            print(f"  {name:<40} {layer_values[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
