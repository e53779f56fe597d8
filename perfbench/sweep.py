"""``replica-sweep``: the Monte-Carlo protocol as vectorised replica batches.

A fixed 20k-node, degree-6 random graph, once with ±1 weights (``auto``
promotes it to the packed backend) and once with mixed dyadic weights
(sparse float backend), each solved with ``replicas=32`` by ``insitu``
and ``sa`` at ``t`` = 1 and 4.  One request is one round of those eight
batch solves under one seed drawn from the workload seed.

``cut_ratio`` here is a short-budget progress figure, not solution
quality: 500 iterations flip at most 2000 of the 20k spins per replica,
so the anneal is still in its first steps from a random start (about
0.027 of the best-known cut).  Fixed seeds make it repeat exactly, so it
pins the trajectory: a change that alters the anneal moves it, a pure
speed-up does not.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np
from instances import reference_cuts, sweep_problems
from measure import Outcome, Tally, describe, energies_ok, median, same_result

import repro.core.plan as plan_mod
from repro.ising.sparse import as_backend

REPLICAS = 32
#: Which kernel pass the throughput pairs with (see ``measure.HostSpeed``).
THROUGHPUT_FROM = "fastest"
ITERATIONS = 500
METHODS = ("insitu", "sa")
FLIPS = (1, 4)
QUALITY_ROUNDS = 4
SETUPS_PER_ROUND = 2
PROBE_REPLICAS = 4
PROBE_ITERATIONS = 60


def _configs(problems):
    return [(v, m, t) for v in problems for m in METHODS for t in FLIPS]


#: Every array a batch result reports.
BATCH_FIELDS = ("best_energies", "best_sigmas", "final_energies",
                "final_sigmas", "accepted")


def run(seed: int, seconds: float, setup_reps: int, tracer) -> Outcome:
    tracer.phase = "inputs"
    rng = np.random.default_rng(seed)
    problems = sweep_problems()
    refs = reference_cuts()
    configs = _configs(problems)
    tally = Tally()

    def compile_all():
        tracer.phase = "setup"
        built = {v: p.to_ising(backend="auto") for v, p in problems.items()}
        compiled = {
            (v, m, t): plan_mod.compile_plan(
                built[v], method=m, replicas=REPLICAS, flips_per_iteration=t
            )
            for v, m, t in configs
        }
        return built, compiled

    def set_up():
        compiled, elapsed = tracer.paired("setup", compile_all)
        setup_times.append(elapsed)
        return compiled

    setup_times = []
    models, plans = set_up()

    # Gate before timing: the ±1 instance runs bit-identically on the
    # packed and the sparse float backends.
    tracer.phase = "check"
    pm1 = models["sweep-pm1"]
    probe_seed = int(rng.integers(2**31))
    for m in METHODS:
        for t in FLIPS:
            runs = [
                plan_mod.compile_plan(
                    as_backend(pm1, backend), method=m,
                    replicas=PROBE_REPLICAS, flips_per_iteration=t,
                ).execute(PROBE_ITERATIONS, seed=probe_seed)
                for backend in ("packed", "sparse")
            ]
            tally.check(same_result(*runs, BATCH_FIELDS), f"packed vs sparse {m} t={t}")

    # A few more set-ups run between rounds (up to ``setup_reps``), so the
    # set-up and the solve samples both span the whole run.
    rounds = 0
    solve_times = {cfg: [] for cfg in configs}
    ratios = []
    accepted = steps = 0
    begin = time.perf_counter()
    while rounds < QUALITY_ROUNDS or time.perf_counter() - begin < seconds:
        k = rounds
        rounds += 1
        while k and len(setup_times) < min(setup_reps, 1 + SETUPS_PER_ROUND * k):
            set_up()
        tracer.phase = "run"
        round_seed = int(rng.integers(2**31))
        results = {}
        with tracer.operation(k):
            for cfg in configs:
                results[cfg], elapsed = tracer.paired(
                    "run", partial(plans[cfg].execute, ITERATIONS, seed=round_seed)
                )
                solve_times[cfg].append(elapsed)
        for (v, m, t), res in results.items():
            tally.check(energies_ok(problems[v], res.best_sigmas, res.best_energies),
                        f"{v} {m} t={t} round {k} energies")
            if k < QUALITY_ROUNDS:
                ratios.append(float(np.mean(res.best_cuts(problems[v]))) / refs[v])
            accepted += int(res.accepted.sum())
            steps += res.iterations * res.num_replicas

    e2e = {
        "setup_s": median(setup_times),
        "anneal_iters_per_s": len(configs) * REPLICAS * ITERATIONS
        / sum(min(times) for times in solve_times.values()),
        "cut_ratio": float(np.mean(ratios)),
    }
    counters = {"core.batch.accept_ratio": accepted / steps}
    lines = [
        f"set-up reps {len(setup_times)}: median {e2e['setup_s'] * 1e3:.2f} ms",
        "backends: " + ", ".join(
            f"{v} {type(mdl).__name__}" for v, mdl in models.items()
        ),
        f"rounds {rounds}, replica-iterations {steps}",
        *(f"{v} {m} t={t}: fastest {min(times) * 1e3:.1f} ms, "
          f"{describe(times, 1e3, ' ms')}"
          for (v, m, t), times in solve_times.items()),
    ]
    return Outcome(e2e, counters, tally, lines, len(setup_times), rounds)
