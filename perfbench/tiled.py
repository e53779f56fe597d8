"""``tiled-gset``: the paper's deployment path on two paper-suite instances.

For ``R2000-0`` (G22 class) and ``T3000-0`` (G48 class torus): the Ising
embedding with ``backend="auto"``, ``compile_plan(method="insitu",
tile_size=128, reorder="auto")``, then warm executes under seeds drawn
from the workload seed.  One request is one round: an execute of each
instance under one seed.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np
from instances import reference_cuts, tiled_problems
from measure import Outcome, Tally, describe, energies_ok, median, same_result

import repro.core.plan as plan_mod

TILE_SIZE = 128
#: Which kernel pass the throughput pairs with (see ``measure.HostSpeed``).
THROUGHPUT_FROM = "fastest"
#: Iterations per execute (the paper budgets are 10k and 100k; these keep
#: a round well under a second on a small host).
ITERATIONS = {"R2000-0": 500, "T3000-0": 1500}
#: Rounds whose results define cut_ratio and the sim.* ledger means; the
#: timed phase always runs at least this many, whatever its speed.
QUALITY_ROUNDS = 4
PROBE_ITERATIONS = 200


def _compile(problem, reorder):
    model = problem.to_ising(backend="auto")
    return plan_mod.compile_plan(
        model, method="insitu", tile_size=TILE_SIZE, reorder=reorder
    )


RUN_FIELDS = ("best_energy", "energy", "accepted", "best_sigma", "sigma")


def _energy_ok(problem, result) -> bool:
    return energies_ok(problem, [result.best_sigma], [result.best_energy])


def run(seed: int, seconds: float, setup_reps: int, tracer) -> Outcome:
    tracer.phase = "inputs"
    rng = np.random.default_rng(seed)
    problems = tiled_problems()
    refs = reference_cuts()
    tally = Tally()

    def compile_all():
        tracer.phase = "setup"
        return {name: _compile(p, "auto") for name, p in problems.items()}

    def set_up():
        compiled, elapsed = tracer.paired("setup", compile_all)
        setup_times.append(elapsed)
        return compiled

    setup_times = []
    plans = set_up()

    # Gates before timing: the layout race must not change the trajectory
    # (T3000-0 probe against the identity layout), and reported energies
    # must match their configurations.
    tracer.phase = "check"
    torus = problems["T3000-0"]
    probe_seed = int(rng.integers(2**31))
    identity = _compile(torus, "none")
    a = plans["T3000-0"].execute(PROBE_ITERATIONS, seed=probe_seed)
    b = identity.execute(PROBE_ITERATIONS, seed=probe_seed)
    tally.check(same_result(a, b, RUN_FIELDS), "T3000-0 reorder=auto vs none trajectory")
    tally.check(_energy_ok(torus, a), "T3000-0 probe energy")
    warm = plans["R2000-0"].execute(PROBE_ITERATIONS, seed=probe_seed)
    tally.check(_energy_ok(problems["R2000-0"], warm), "R2000-0 probe energy")

    # The timed executes run in one slice per set-up, and the remaining
    # set-ups run between slices, so both samples span the whole run and
    # a slow spell of the host does not land on one metric alone.
    rounds = 0
    execute_times = {name: [] for name in problems}
    ratios = []
    accepted = iterations = 0
    for part in range(setup_reps):
        if part:
            set_up()
        tracer.phase = "run"
        end = time.perf_counter() + seconds / setup_reps
        last = part == setup_reps - 1
        while time.perf_counter() < end or (last and rounds < QUALITY_ROUNDS):
            k = rounds
            rounds += 1
            round_seed = int(rng.integers(2**31))
            results = {}
            with tracer.operation(k):
                for name in problems:
                    results[name], elapsed = tracer.paired(
                        "run", partial(plans[name].execute, ITERATIONS[name], seed=round_seed)
                    )
                    execute_times[name].append(elapsed)
            for name, res in results.items():
                tally.check(_energy_ok(problems[name], res), f"{name} round {k} energy")
                if k < QUALITY_ROUNDS:
                    ratios.append(problems[name].cut_from_energy(res.best_energy) / refs[name])
                accepted += res.accepted
                iterations += res.iterations

    summaries = {name: p.summary() for name, p in plans.items()}
    tiles = sum(s["tiles"] for s in summaries.values())
    grid = sum(s["grid_tiles"] for s in summaries.values())
    e2e = {
        "setup_s": median(setup_times),
        "anneal_iters_per_s": sum(ITERATIONS.values())
        / sum(min(times) for times in execute_times.values()),
        "cut_ratio": float(np.mean(ratios)),
    }
    counters = {
        "arch.tiling.active_tiles": float(tiles),
        "arch.tiling.occupancy": tiles / grid,
        "core.annealer.accept_ratio": accepted / iterations,
    }
    lines = [
        f"set-up reps {setup_reps}: "
        + ", ".join(f"{t:.3f}" for t in setup_times) + " s",
        "plans: " + "; ".join(
            f"{n} {s['backend']} {s['ordering']} {s['tiles']}/{s['grid_tiles']} tiles"
            for n, s in summaries.items()
        ),
        f"rounds {rounds}, iterations {iterations}",
        *(f"{n} execute: fastest {min(t) * 1e3:.1f} ms, {describe(t, 1e3, ' ms')}"
          for n, t in execute_times.items()),
    ]
    return Outcome(e2e, counters, tally, lines, setup_reps, rounds,
                   quality_ops=range(QUALITY_ROUNDS), serial_iterations=iterations)
