"""``serve-open``: an open-loop arrival schedule into one ``SolverService``.

Every job, instance, weight, seed and arrival time comes from the
workload seed.  The mix is small ±1/4 sparse Max-Cut jobs (48 or 256
spins, ``R=4``): about 90% packable ``insitu``/``sa`` jobs on distinct
instances and about 10% ``sb`` jobs on four repeated instances, which go
through the plan cache.  The run is a series of rounds on one service;
each round holds, in order:

* a few set-ups: a second service started and its first result awaited;
* ``low``: a segment at a fixed rate below the knee;
* ``high``: a segment at a second fixed rate, still below the knee;
* one short rung of a rate ladder above those two (``LADDER``, taken in
  turn round by round); ``serve.slo_jobs_per_s`` is the highest rate that
  meets the service level, so a faster service climbs the ladder;
* ``burst``: the same ``BURST_JOBS`` jobs, all due at once, twice; the
  median drain over the run gives the throughput (the fastest drain
  depends on how the first jobs happen to group into batches, and reads
  two to three times less steadily).

Rounds interleave the phases so that every metric samples the whole run.
Latency is measured from each job's due time, so a stalled generator or
service shows up in later jobs' latency; the generator's own lateness is
reported and a run whose lateness exceeds ``LATE_BOUND_MS`` counts as
failed.  One request is one job.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from functools import partial

import numpy as np
from measure import Outcome, Tally, describe, energies_ok, median, same_result, tail

from repro.core import solve_ising
from repro.ising.gset import random_edge_set
from repro.ising.maxcut import MaxCutProblem
from repro.serve import SolverService, job_request, service_config

RATE_LOW = 20.0
RATE_HIGH = 40.0
#: Seconds of each fixed-rate segment in a round.
LOW_SECONDS = 1.0
HIGH_SECONDS = 0.6
#: Rates of the service-level ladder above the two fixed rates, and the
#: seconds of one rung segment.
LADDER = (60.0, 90.0, 120.0)
RUNG_SECONDS = 0.5
#: Approximate length of one round, which sets the number of rounds.
ROUND_SECONDS = 2.0
BURST_JOBS = 64
#: Which kernel pass the throughput pairs with (see ``measure.HostSpeed``).
THROUGHPUT_FROM = "median"
BURSTS_PER_ROUND = 2
SETUPS_PER_ROUND = 2
ITERATIONS = 200
REPLICAS = 4
SB_SHARE = 0.1
SB_INSTANCES = 4
SIZES = (48, 256)
SMALL_SHARE = 0.7
#: A rate meets the service level when its tail latency is within this
#: limit, no job failed and the queue did not grow within segments.
TAIL_LIMIT_MS = 250.0
#: Generator lateness (tail percentile) beyond which a run is invalid.
LATE_BOUND_MS = 50.0


def _problem(rng, n) -> MaxCutProblem:
    edges, weights = random_edge_set(n, 3 * n, True, int(rng.integers(2**31)))
    return MaxCutProblem(n, edges, weights)


def _jobs(rng, count, prefix, sb_problems):
    """``count`` (job, problem) pairs of the workload's mix, shuffled.

    The mix shares are exact (rounded) counts rather than independent
    draws, so every seed and every segment carries the same kind of work.
    """
    sb = round(SB_SHARE * count)
    small = round(SMALL_SHARE * (count - sb))
    kinds = ["sb"] * sb + ["small"] * small + ["large"] * (count - sb - small)
    out = []
    for i, pos in enumerate(rng.permutation(count)):
        kind = kinds[pos]
        if kind == "sb":
            problem = sb_problems[int(rng.integers(len(sb_problems)))]
            method = "sb"
        else:
            problem = _problem(rng, SIZES[0] if kind == "small" else SIZES[1])
            method = "insitu" if pos % 2 else "sa"
        job = job_request(
            f"{prefix}-{i}", problem.to_ising(backend="sparse"),
            method=method, iterations=ITERATIONS, replicas=REPLICAS,
            seed=int(rng.integers(2**31)),
        )
        out.append((job, problem))
    return out


#: Every array a served result reports.
RESULT_FIELDS = ("best_energies", "best_sigmas", "final_energies",
                 "final_sigmas", "accepted")


async def _set_up(warm_job) -> float:
    svc = SolverService(service_config())
    start = time.perf_counter()
    await svc.start()
    await svc.submit(warm_job)
    elapsed = time.perf_counter() - start
    await svc.stop()
    return elapsed


async def _submit(svc, job, due):
    try:
        res = await svc.submit(job)
    except Exception as exc:  # noqa: BLE001 - counted as a failed job
        return exc, time.perf_counter() - due
    return res, time.perf_counter() - due


async def _segment(svc, jobs, rate, due_times):
    """Submit on schedule; returns (outcomes, lateness, queue depths)."""
    lateness, depth, tasks = [], [], []
    t0 = time.perf_counter() + 0.01
    for i, (job, _) in enumerate(jobs):
        due = t0 + i / rate if rate else t0
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if rate:
            lateness.append(time.perf_counter() - due)
            depth.append(svc.stats()["queue_depth"])
        due_times[job.job_id] = due
        tasks.append(asyncio.ensure_future(_submit(svc, job, due)))
    outcomes = await asyncio.gather(*tasks)
    return outcomes, lateness, depth


async def _timed(rounds, warm, setup_reps, tracer, due_times, verify):
    setup_times, segments = [], []
    async with SolverService(service_config()) as svc:
        for k, round_segments in enumerate(rounds):
            while len(setup_times) < min(setup_reps, SETUPS_PER_ROUND * (k + 1)):
                tracer.phase = "setup"
                elapsed, _ = await tracer.apaired("setup", partial(_set_up, warm))
                setup_times.append(elapsed)
            tracer.phase = "run"
            done = []
            for kind, jobs, rate in round_segments:
                segment = partial(_segment, svc, jobs, rate, due_times)
                if kind == "burst":
                    # The same jobs twice (untraced, traced) in a traced run.
                    (outcomes, late, depth), _ = await tracer.apaired("run", segment)
                else:
                    outcomes, late, depth = await segment()
                done.append((kind, jobs, outcomes, late, depth))
            # Checked while the service is idle between rounds, which also
            # spreads the timed rounds over a longer stretch of the run.
            tracer.phase = "check"
            verify(done)
            segments.extend(done)
        stats = svc.stats()
    return setup_times, segments, stats


def _growing(depths) -> bool:
    """Whether the queue grew within segments (second half over first)."""
    rises = [
        np.mean(d[len(d) // 2:]) - np.mean(d[: len(d) // 2])
        for d in depths if len(d) >= 2
    ]
    return bool(rises) and float(np.mean(rises)) > 1.0


def run(seed: int, seconds: float, setup_reps: int, tracer) -> Outcome:
    tracer.phase = "inputs"
    rng = np.random.default_rng(seed)
    sb_problems = [_problem(rng, SIZES[1]) for _ in range(SB_INSTANCES)]
    warm = _jobs(rng, 1, "warm", sb_problems)[0][0]
    burst_jobs = _jobs(rng, BURST_JOBS, "burst", sb_problems)
    rounds = []
    for k in range(max(3, round(seconds / ROUND_SECONDS))):
        rung = LADDER[k % len(LADDER)]
        rounds.append([
            ("low", _jobs(rng, round(RATE_LOW * LOW_SECONDS), f"low{k}", sb_problems),
             RATE_LOW),
            ("high", _jobs(rng, round(RATE_HIGH * HIGH_SECONDS), f"high{k}", sb_problems),
             RATE_HIGH),
            (f"ladder-{rung:g}",
             _jobs(rng, round(rung * RUNG_SECONDS), f"ladder{k}", sb_problems), rung),
            *(("burst", [(replace(job, job_id=f"{job.job_id}.{k}.{b}"), problem)
                         for job, problem in burst_jobs], 0.0)
              for b in range(BURSTS_PER_ROUND)),
        ])
    tally = Tally()

    # Every served result must equal its solo solve and its own energy.
    ratios = []
    solos = {}

    def verify(segments):
        for _, jobs, outcomes, _, _ in segments:
            for (job, problem), (res, _) in zip(jobs, outcomes):
                if not tally.check(not isinstance(res, Exception),
                                   f"{job.job_id} failed: {res!r}"):
                    continue
                key = job.job_id.split(".")[0]
                if key not in solos:
                    solos[key] = solve_ising(
                        job.model, method=job.method, iterations=job.iterations,
                        seed=job.seed, replicas=job.replicas,
                    )
                    tally.check(
                        energies_ok(problem, res.best_sigmas, res.best_energies),
                        f"{job.job_id} energies",
                    )
                    best = max(problem.cut_from_energy(float(e)) for e in res.best_energies)
                    ratios.append(best / float(np.maximum(problem.weight_array, 0).sum()))
                tally.check(same_result(res, solos[key], RESULT_FIELDS),
                            f"{job.job_id} differs from its solo solve")

    due_times: dict[str, float] = {}
    setup_times, segments, stats = asyncio.run(
        _timed(rounds, warm, setup_reps, tracer, due_times, verify)
    )

    def pooled(kind, field):
        return [x for seg in segments if seg[0] == kind for x in seg[field]]

    latency = {kind: [lat for _, lat in pooled(kind, 2)] for kind in ("low", "high")}
    lateness = pooled("low", 3) + pooled("high", 3)
    late = tail(lateness)
    late_ms = (late[1] if late is not None else max(lateness)) * 1e3
    tally.check(late_ms <= LATE_BOUND_MS,
                f"generator lateness {late_ms:.1f} ms over {LATE_BOUND_MS} ms")
    # A burst drains when its last job returns, timed from the common due
    # time.
    drains = [max(lat for _, lat in seg[2]) for seg in segments if seg[0] == "burst"]
    drain = median(drains)
    tails = {kind: tail(lats) for kind, lats in latency.items()}

    def meets(kind) -> bool:
        """Whether a rate meets the service level with a valid generator."""
        segs = [seg for seg in segments if seg[0] == kind]
        found = tail([lat for seg in segs for _, lat in seg[2]])
        behind = tail([x for seg in segs for x in seg[3]])
        return (
            found is not None and found[1] * 1e3 <= TAIL_LIMIT_MS
            and (behind is None or behind[1] * 1e3 <= LATE_BOUND_MS)
            and not any(isinstance(res, Exception) for seg in segs for res, _ in seg[2])
            and not _growing([seg[4] for seg in segs])
        )

    ladder = [("low", RATE_LOW), ("high", RATE_HIGH),
              *((f"ladder-{rate:g}", rate) for rate in LADDER)]
    slo = [rate for kind, rate in ladder if meets(kind)]
    cache = stats["plan_cache"]
    e2e = {
        "setup_s": median(setup_times),
        "anneal_iters_per_s": BURST_JOBS * ITERATIONS * REPLICAS / drain,
        "cut_ratio": float(np.mean(ratios)),
    }
    counters = {
        "serve.jobs_per_s": BURST_JOBS / drain,
        "serve.p50_ms_low": median(latency["low"]) * 1e3,
        "serve.tail_ms_low": tails["low"][1] * 1e3 if tails["low"] else 0.0,
        "serve.p50_ms_high": median(latency["high"]) * 1e3,
        "serve.tail_ms_high": tails["high"][1] * 1e3 if tails["high"] else 0.0,
        "serve.slo_jobs_per_s": max(slo, default=0.0),
        "serve.jobs_per_batch": stats["jobs"] / stats["batches"],
        "serve.packed_share": stats["packed_jobs"] / stats["jobs"],
        "serve.generator_late_ms": late_ms,
        "core.plan.cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "core.plan.cache_evictions": float(cache["evictions"]),
    }

    def pct(kind):
        found = tails[kind]
        return f"p{found[0]:g} {found[1] * 1e3:.1f} ms" if found else "no tail"

    lines = [
        f"rounds {len(rounds)}; set-up reps {len(setup_times)}: "
        f"median {e2e['setup_s'] * 1e3:.2f} ms",
        f"low {RATE_LOW:g}/s: n={len(latency['low'])} "
        f"p50 {counters['serve.p50_ms_low']:.1f} ms, "
        f"{pct('low')}",
        f"high {RATE_HIGH:g}/s: n={len(latency['high'])} "
        f"p50 {counters['serve.p50_ms_high']:.1f} ms, {pct('high')}",
        f"bursts: {len(drains)} x {BURST_JOBS} jobs, median drain {drain:.3f} s "
        f"({counters['serve.jobs_per_s']:.1f} jobs/s); drains "
        + describe(drains, 1e3, " ms"),
        "ladder: " + "; ".join(
            f"{rate:g}/s n={len(pooled(kind, 2))} p50 "
            f"{median(lat for _, lat in pooled(kind, 2)) * 1e3:.1f} ms"
            for kind, rate in ladder[2:]
        ),
        f"generator lateness {late_ms:.2f} ms (bound {LATE_BOUND_MS:g}); "
        f"slo {counters['serve.slo_jobs_per_s']:g} jobs/s (rates met: "
        + ", ".join(f"{rate:g}" for rate in slo) + "); "
        f"batches {stats['batches']}, packed {stats['packed_jobs']}, "
        f"cache {cache['hits']} hits / {cache['misses']} misses / "
        f"{cache['evictions']} evictions",
    ]
    return Outcome(e2e, counters, tally, lines, len(setup_times),
                   sum(len(seg[1]) for seg in segments), due_times=due_times)
