"""The batching solver service: bounded queue → scheduler → batch runs.

:class:`SolverService` is the asyncio core of ``repro.serve``:

* ``submit`` places a validated :class:`~repro.serve.jobs.SolveJob` on a
  *bounded* queue — when the queue is full the awaiting submit is the
  backpressure (``submit_nowait`` raises instead, for clients that
  prefer load-shedding to waiting);
* one scheduler task drains the queue in batches: it takes the first
  job, then gathers more for at most ``gather_window`` seconds (or until
  ``max_batch_jobs``), groups the packable ones by their
  :attr:`~repro.serve.jobs.SolveJob.pack_key`, and runs each group as
  ONE block-stacked batch (:func:`~repro.core.blockstack.run_stacked`);
* solves execute on a single worker thread
  (``run_in_executor``) so the event loop keeps accepting submissions —
  jobs arriving *during* a batch run accumulate into the next batch,
  which is what makes packing effective under sustained load;
* jobs that cannot pack (method ``sb``, or a group of one) fall back to
  solo execution through a shared thread-safe
  :class:`~repro.core.plan.PlanCache`, so repeat instances skip
  compilation; the cache's hit/miss/eviction counters surface in
  :meth:`SolverService.stats`;
* a stacked run that raises is retried lane by lane, so one bad lane
  fails only its own job; a fault outside the per-job handlers fails
  its own batch and the scheduler keeps serving; and a job whose
  submitter was cancelled while it queued is dropped before it takes a
  run.

Either way the result handed back for a job is bit-identical to the solo
``solve_ising(model, method, iterations, seed=seed, replicas=…,
flips_per_iteration=…)`` call — the packing contract
:mod:`repro.core.blockstack` verifies.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.blockstack import compile_lane, run_stacked
from repro.core.plan import PlanCache
from repro.ising.sparse import as_backend
from repro.serve.jobs import JobResult, SolveJob
from repro.utils.validation import check_count, check_real

_STOP = object()


def _run_alone(lane):
    """One lane's stacked run, or the exception it raised."""
    try:
        return run_stacked([lane])[0]
    except Exception as exc:  # noqa: BLE001 — reported per job
        return exc


@dataclass(frozen=True)
class ServiceConfig:
    """Validated service knobs; build via :func:`service_config`."""

    max_queue: int
    max_batch_jobs: int
    gather_window: float
    plan_cache_size: int


def service_config(
    max_queue: int = 256,
    max_batch_jobs: int = 64,
    gather_window: float = 0.002,
    plan_cache_size: int = 32,
) -> ServiceConfig:
    """Validate service knobs into a :class:`ServiceConfig`.

    ``max_queue`` bounds admitted-but-unscheduled jobs (the backpressure
    depth), ``max_batch_jobs`` caps one batch run, ``gather_window`` is
    how long (seconds) the scheduler waits for more jobs after the first
    before launching a batch, and ``plan_cache_size`` sizes the shared
    solo-path :class:`~repro.core.plan.PlanCache`.
    """
    max_queue = check_count(
        "max_queue", max_queue,
        hint="the queue must admit at least one job",
    )
    max_batch_jobs = check_count(
        "max_batch_jobs", max_batch_jobs,
        hint="a batch holds at least one job",
    )
    gather_window = check_real("gather_window", gather_window)
    if gather_window < 0.0:
        raise ValueError(
            f"gather_window must be >= 0 seconds, got {gather_window!r}"
        )
    plan_cache_size = check_count(
        "plan_cache_size", plan_cache_size,
        hint="an LRU cache needs at least one slot",
    )
    return ServiceConfig(
        max_queue=max_queue, max_batch_jobs=max_batch_jobs,
        gather_window=gather_window, plan_cache_size=plan_cache_size,
    )


class ServiceOverloadedError(RuntimeError):
    """Raised by ``submit_nowait`` when the bounded queue is full."""


class SolverService:
    """Asyncio solver service with cross-request replica packing.

    Use as an async context manager (``async with SolverService() as
    svc``) or call :meth:`start`/:meth:`stop` explicitly.  ``submit``
    returns when the job's batch has run; results resolve out of
    submission order when batches interleave.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else service_config()
        self.plan_cache = PlanCache(maxsize=self.config.plan_cache_size)
        self._queue: asyncio.Queue = asyncio.Queue(
            maxsize=self.config.max_queue
        )
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-solver"
        )
        self._scheduler_task: asyncio.Task | None = None
        self._closed = False
        self._jobs_done = 0
        self._batches = 0
        self._packed_jobs = 0
        self._solo_jobs = 0
        self._failed_jobs = 0
        self._cancelled_jobs = 0

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Start the scheduler task (idempotent)."""
        if self._scheduler_task is None:
            self._closed = False
            self._scheduler_task = asyncio.ensure_future(self._scheduler())

    async def stop(self) -> None:
        """Reject new submits, drain queued work, stop the scheduler."""
        if self._scheduler_task is None:
            return
        self._closed = True
        await self._queue.put(_STOP)
        await self._scheduler_task
        self._scheduler_task = None
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> SolverService:
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- submission ----------------------------------------------------
    async def submit(self, job: SolveJob) -> JobResult:
        """Queue a job and await its result (awaits when the queue is full)."""
        fut = self._admit(job)
        await self._queue.put((job, fut))
        return await fut

    async def submit_nowait(self, job: SolveJob) -> JobResult:
        """Queue a job, raising :class:`ServiceOverloadedError` when full."""
        fut = self._admit(job)
        try:
            self._queue.put_nowait((job, fut))
        except asyncio.QueueFull:
            fut.cancel()
            raise ServiceOverloadedError(
                f"job {job.job_id!r}: queue is full "
                f"({self.config.max_queue} jobs); retry later or use "
                f"submit() for backpressure"
            ) from None
        return await fut

    def _admit(self, job: SolveJob) -> asyncio.Future:
        if self._closed or self._scheduler_task is None:
            raise RuntimeError(
                f"job {job.job_id!r}: service is not running; "
                f"submit inside `async with SolverService()` "
                f"(or between start() and stop())"
            )
        if not isinstance(job, SolveJob):
            raise ValueError(
                "submit takes a SolveJob; build one with job_request(...)"
            )
        return asyncio.get_running_loop().create_future()

    # -- observability -------------------------------------------------
    def stats(self) -> dict:
        """Service counters plus the shared plan cache's counters."""
        return {
            "jobs": self._jobs_done,
            "failed_jobs": self._failed_jobs,
            "cancelled_jobs": self._cancelled_jobs,
            "batches": self._batches,
            "packed_jobs": self._packed_jobs,
            "solo_jobs": self._solo_jobs,
            "queue_depth": self._queue.qsize(),
            "max_queue": self.config.max_queue,
            "max_batch_jobs": self.config.max_batch_jobs,
            "gather_window": self.config.gather_window,
            "plan_cache": self.plan_cache.stats(),
        }

    # -- scheduler -----------------------------------------------------
    async def _scheduler(self) -> None:
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            item = await self._queue.get()
            if item is _STOP:
                break
            batch = [item]
            deadline = loop.time() + self.config.gather_window
            while len(batch) < self.config.max_batch_jobs:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    # Window elapsed: still sweep up anything already
                    # queued — packing them is free.
                    try:
                        nxt = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                else:
                    try:
                        nxt = await asyncio.wait_for(
                            self._queue.get(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
                if nxt is _STOP:
                    stopping = True
                    break
                batch.append(nxt)
            # A job whose submitter was cancelled while it queued has
            # nobody to hand a result to: drop it before it takes a run.
            live = [(job, fut) for job, fut in batch if not fut.done()]
            self._cancelled_jobs += len(batch) - len(live)
            batch = live
            if not batch:
                continue
            jobs = [job for job, _ in batch]
            try:
                outcomes = await loop.run_in_executor(
                    self._executor, self._solve_batch, jobs
                )
            except Exception as exc:  # noqa: BLE001 — fails this batch only
                # A fault outside the per-job handlers must not end the
                # scheduler: fail this batch's jobs with it, keep serving.
                outcomes = [exc] * len(jobs)
            self._batches += 1
            for (_, fut), outcome in zip(batch, outcomes):
                self._jobs_done += 1
                if isinstance(outcome, JobResult):
                    if outcome.packed:
                        self._packed_jobs += 1
                    else:
                        self._solo_jobs += 1
                    if not fut.cancelled():
                        fut.set_result(outcome)
                else:
                    self._failed_jobs += 1
                    if not fut.cancelled():
                        fut.set_exception(outcome)

    # -- solving (worker thread) ---------------------------------------
    def _solve_batch(self, jobs: list[SolveJob]) -> list:
        """Solve one gathered batch; returns JobResult or Exception per job."""
        outcomes: list = [None] * len(jobs)
        groups: dict[tuple, list[int]] = {}
        solo: list[int] = []
        for i, job in enumerate(jobs):
            if job.packable:
                groups.setdefault(job.pack_key, []).append(i)
            else:
                solo.append(i)
        for idxs in groups.values():
            if len(idxs) == 1 and jobs[idxs[0]].initial is None:
                # A group of one gains nothing from stacking; run it
                # through the plan cache so repeat instances hit.
                solo.append(idxs[0])
                continue
            lanes = []
            lane_idxs = []
            for i in idxs:
                try:
                    lanes.append(self._compile_lane(jobs[i]))
                    lane_idxs.append(i)
                except Exception as exc:  # noqa: BLE001 — reported per job
                    outcomes[i] = exc
            if not lanes:
                continue
            size = len(lanes)
            try:
                results = run_stacked(lanes)
            except Exception:  # noqa: BLE001 — retried lane by lane
                # One bad lane must not fail its peers: rerun each lane
                # alone (bit-identical by the stacking contract) and
                # fail only the lanes that still raise.
                results = [_run_alone(lane) for lane in lanes]
                size = 1
            for i, res in zip(lane_idxs, results):
                if isinstance(res, Exception):
                    outcomes[i] = res
                    continue
                # A group that degenerated to one lane (peers failed
                # compile, or a warm-started singleton) is not "packed".
                outcomes[i] = self._as_result(
                    jobs[i], res, packed=size > 1, batch_size=size,
                )
        for i in solo:
            try:
                outcomes[i] = self._solve_solo(jobs[i])
            except Exception as exc:  # noqa: BLE001 — reported per job
                outcomes[i] = exc
        return outcomes

    def _compile_lane(self, job: SolveJob):
        model = job.model
        if job.backend is not None:
            model = as_backend(model, job.backend)
        return compile_lane(
            model, method=job.method, iterations=job.iterations,
            replicas=job.replicas,
            flips_per_iteration=job.flips_per_iteration,
            seed=job.seed, initial=job.initial,
        )

    def _solve_solo(self, job: SolveJob) -> JobResult:
        if job.initial is not None:
            # Plans replay fixed run kwargs and carry no initial state;
            # a single-lane stacked run makes the same engine draws.
            res = run_stacked([self._compile_lane(job)])[0]
            return self._as_result(job, res, packed=False, batch_size=1)
        solver_kwargs = {}
        if job.method != "sb":
            solver_kwargs["flips_per_iteration"] = job.flips_per_iteration
        plan = self.plan_cache.get_or_compile(
            job.model, method=job.method, backend=job.backend,
            replicas=job.replicas, **solver_kwargs
        )
        res = plan.execute(job.iterations, seed=job.seed)
        return self._as_result(job, res, packed=False, batch_size=1)

    @staticmethod
    def _as_result(job: SolveJob, res, packed: bool, batch_size: int) -> JobResult:
        return JobResult(
            job_id=job.job_id,
            best_energies=res.best_energies,
            best_sigmas=res.best_sigmas,
            final_energies=res.final_energies,
            final_sigmas=res.final_sigmas,
            accepted=res.accepted,
            iterations=res.iterations,
            packed=packed,
            batch_size=batch_size,
        )


__all__ = [
    "ServiceConfig",
    "ServiceOverloadedError",
    "SolverService",
    "service_config",
]
