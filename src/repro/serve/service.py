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
* every packable job runs as a lane: a group of one runs unstacked on
  its own model, and when a stacked run raises, each of its jobs reruns
  alone, so only a job whose own run fails reports an error;
* ``sb`` jobs (which do not pack) run solo through a shared thread-safe
  :class:`~repro.core.plan.PlanCache`, so repeat instances skip
  compilation; the cache's hit/miss/eviction counters surface in
  :meth:`SolverService.stats`.

Either way the result handed back for a job is bit-identical to the solo
``solve_ising(model, method, iterations, seed=seed, replicas=…,
flips_per_iteration=…)`` call — the packing contract
:mod:`repro.core.blockstack` verifies.
"""

from __future__ import annotations

import asyncio
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.blockstack import compile_lane, run_stacked
from repro.core.plan import PlanCache
from repro.ising.sparse import as_backend
from repro.serve.jobs import JobResult, SolveJob
from repro.utils.validation import check_count, check_real

_STOP = object()
_log = logging.getLogger(__name__)


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
    :class:`~repro.core.plan.PlanCache` of the ``sb`` jobs.
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
            jobs = [job for job, _ in batch]
            outcomes = await loop.run_in_executor(
                self._executor, self._solve_batch, jobs
            )
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
            lanes = {}
            for i in idxs:
                try:
                    lanes[i] = self._compile_lane(jobs[i])
                except Exception as exc:  # noqa: BLE001 — reported per job
                    outcomes[i] = exc
            if len(lanes) < 2:
                # A group of one (or whose peers failed compile) runs
                # unstacked, on its own model and backend.
                for i, lane in lanes.items():
                    outcomes[i] = self._attempt(self._solve_alone, jobs[i], lane)
                continue
            try:
                results = run_stacked(list(lanes.values()))
            except Exception:  # noqa: BLE001 — each job reruns alone
                # The failed run may have drawn from these lanes: rerun each
                # job from a fresh one, so only a job whose own run fails
                # reports an error.
                _log.exception(
                    "stacked run of %d jobs failed; rerunning each alone",
                    len(lanes),
                )
                for i in lanes:
                    outcomes[i] = self._attempt(self._solve_alone, jobs[i])
                continue
            for i, res in zip(lanes, results):
                outcomes[i] = self._as_result(
                    jobs[i], res, packed=True, batch_size=len(lanes)
                )
        for i in solo:
            outcomes[i] = self._attempt(self._solve_solo, jobs[i])
        return outcomes

    @staticmethod
    def _attempt(solve, *args):
        try:
            return solve(*args)
        except Exception as exc:  # noqa: BLE001 — reported per job
            return exc

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

    def _solve_alone(self, job: SolveJob, lane=None) -> JobResult:
        lane = self._compile_lane(job) if lane is None else lane
        return self._as_result(
            job, run_stacked([lane])[0], packed=False, batch_size=1
        )

    def _solve_solo(self, job: SolveJob) -> JobResult:
        # Only sb jobs get here: their repeat instances hit the plan cache.
        plan = self.plan_cache.get_or_compile(
            job.model, method=job.method, backend=job.backend,
            replicas=job.replicas,
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
