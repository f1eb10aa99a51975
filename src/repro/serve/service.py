"""The batching solver service: pending jobs by pack key → one run per round.

:class:`SolverService` is the asyncio core of ``repro.serve``:

* ``submit`` admits a validated :class:`~repro.serve.jobs.SolveJob` into
  one structure that holds the pending jobs of each
  :attr:`~repro.serve.jobs.SolveJob.pack_key`, bounded by ``max_queue``
  in total — past the bound the awaiting submit waits its turn for a
  slot (backpressure); ``submit_nowait`` raises instead, for clients
  that prefer load-shedding to waiting;
* one scheduler task runs one group per round: the key whose oldest job
  has waited longest, as ONE block-stacked run
  (:func:`~repro.core.blockstack.run_stacked`) of up to
  ``max_batch_jobs`` lanes.  A job that may not stack (``sb``, or a
  dense model whose sums are not exact) runs alone.  When the worker is
  idle, a round first lets the oldest job wait ``gather_window`` seconds
  for peers of its key; a job whose future was cancelled is dropped
  before it compiles;
* solves execute on a single worker thread
  (``run_in_executor``) so the event loop keeps accepting submissions —
  jobs arriving *during* a run pile up under their keys, so under
  sustained load each key runs as few, large stacked runs;
* every insitu or sa job runs as a lane: a group of one runs unstacked
  on its own model, and when a stacked run raises, each of its jobs
  reruns alone, so only a job whose own run fails reports an error;
* ``sb`` jobs (which do not pack) run solo through a shared thread-safe
  :class:`~repro.core.plan.PlanCache`, so repeat instances skip
  compilation; the cache's hit/miss/eviction counters surface in
  :meth:`SolverService.stats`, next to each pack key's runs.

Results go back when their run ends, and the result handed back for a
job is bit-identical to the solo ``solve_ising(model, method,
iterations, seed=seed, replicas=…, flips_per_iteration=…)`` call — the
packing contract :mod:`repro.core.blockstack` verifies.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.blockstack import PACK_METHODS, compile_lane, run_stacked
from repro.core.plan import PlanCache
from repro.ising.sparse import as_backend
from repro.serve.jobs import JobResult, SolveJob
from repro.utils.validation import check_count, check_positive

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
    depth), ``max_batch_jobs`` caps one stacked run (the jobs of one pack
    key run in one round), ``gather_window`` is how long (seconds) the
    oldest pending job waits for peers of its pack key before its run
    starts (jobs that waited out a busy worker start at once), and
    ``plan_cache_size`` sizes the shared
    :class:`~repro.core.plan.PlanCache` of the ``sb`` jobs.
    """
    max_queue = check_count(
        "max_queue", max_queue,
        hint="the queue must admit at least one job",
    )
    max_batch_jobs = check_count(
        "max_batch_jobs", max_batch_jobs,
        hint="a stacked run holds at least one job",
    )
    gather_window = check_positive("gather_window", gather_window, allow_zero=True)
    plan_cache_size = check_count(
        "plan_cache_size", plan_cache_size,
        hint="an LRU cache needs at least one slot",
    )
    return ServiceConfig(
        max_queue=max_queue, max_batch_jobs=max_batch_jobs,
        gather_window=gather_window, plan_cache_size=plan_cache_size,
    )


class ServiceOverloadedError(RuntimeError):
    """Raised by ``submit_nowait`` when ``max_queue`` jobs are pending."""


class _Entry(NamedTuple):
    """An admitted job: its admission order and time, and its future."""

    ticket: int
    admitted: float
    job: SolveJob
    future: asyncio.Future


class SolverService:
    """Asyncio solver service with cross-request replica packing.

    Use as an async context manager (``async with SolverService() as
    svc``) or call :meth:`start`/:meth:`stop` explicitly.  ``submit``
    returns when the job's run has ended; results resolve out of
    submission order when pack keys interleave.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else service_config()
        self.plan_cache = PlanCache(maxsize=self.config.plan_cache_size)
        # Pending jobs in admission order, one deque per pack key; key
        # None holds the jobs that run alone.  At most max_queue in all.
        self._pending: dict[tuple | None, deque[_Entry]] = {}
        self._depth = 0
        # Submits past max_queue, in submit order, until a run frees a slot.
        self._waiting: deque[_Entry] = deque()
        self._tickets = itertools.count()
        self._wake = asyncio.Event()
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
        self._runs: dict[tuple, dict] = {}

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Start the scheduler task (idempotent)."""
        if self._scheduler_task is None:
            self._closed = False
            self._scheduler_task = asyncio.ensure_future(self._scheduler())

    async def stop(self) -> None:
        """Reject new submits, run every pending job, stop the scheduler."""
        if self._scheduler_task is None:
            return
        self._closed = True
        self._wake.set()
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
        """Admit a job and await its result (waits for a slot when full)."""
        entry = self._admit(job)
        if self._depth < self.config.max_queue:
            self._enqueue(entry)
        else:
            self._waiting.append(entry)
        return await entry.future

    async def submit_nowait(self, job: SolveJob) -> JobResult:
        """Admit a job, raising :class:`ServiceOverloadedError` when full."""
        entry = self._admit(job)
        if self._depth >= self.config.max_queue:
            entry.future.cancel()
            raise ServiceOverloadedError(
                f"job {job.job_id!r}: queue is full "
                f"({self.config.max_queue} jobs); retry later or use "
                f"submit() for backpressure"
            )
        self._enqueue(entry)
        return await entry.future

    def _admit(self, job: SolveJob) -> _Entry:
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
        loop = asyncio.get_running_loop()
        return _Entry(next(self._tickets), loop.time(), job, loop.create_future())

    def _enqueue(self, entry: _Entry) -> None:
        key = entry.job.pack_key if entry.job.packable else None
        self._pending.setdefault(key, deque()).append(entry)
        self._depth += 1
        self._wake.set()

    # -- observability -------------------------------------------------
    def stats(self) -> dict:
        """Service counters, each pack key's runs, and plan-cache counters.

        ``batches`` counts runs: one stacked run, or one job run alone.
        ``pack_keys`` maps each key (``"<method> iterations=… replicas=…
        flips=…"``) to its jobs, packed jobs, runs, and ``run_sizes``
        (jobs per run → runs of that size).
        """
        return {
            "jobs": self._jobs_done,
            "failed_jobs": self._failed_jobs,
            "cancelled_jobs": self._cancelled_jobs,
            "batches": self._batches,
            "packed_jobs": self._packed_jobs,
            "solo_jobs": self._solo_jobs,
            "queue_depth": self._depth,
            "max_queue": self.config.max_queue,
            "max_batch_jobs": self.config.max_batch_jobs,
            "gather_window": self.config.gather_window,
            "pack_keys": {
                f"{method} iterations={iterations} replicas={replicas} "
                f"flips={flips}": {
                    **runs, "run_sizes": dict(sorted(runs["run_sizes"].items())),
                }
                for (method, iterations, replicas, flips), runs
                in sorted(self._runs.items())
            },
            "plan_cache": self.plan_cache.stats(),
        }

    # -- scheduler -----------------------------------------------------
    async def _scheduler(self) -> None:
        loop = asyncio.get_running_loop()
        while self._pending or not self._closed:
            self._wake.clear()
            if not self._pending:
                await self._wake.wait()
                continue
            # The key whose oldest job has waited longest runs next.
            key, queue = min(
                self._pending.items(), key=lambda item: item[1][0].ticket
            )
            wait = queue[0].admitted + self.config.gather_window - loop.time()
            if (
                wait > 0 and key is not None and not self._closed
                and len(queue) < self.config.max_batch_jobs
            ):
                # An idle worker: let peers of the oldest job arrive.
                try:
                    await asyncio.wait_for(self._wake.wait(), wait)
                except asyncio.TimeoutError:
                    pass
                continue
            run = self._take(key, queue)
            if run:
                await self._run(loop, run)

    def _take(self, key: tuple | None, queue: deque[_Entry]) -> list[_Entry]:
        """Remove the next run's jobs of ``key``, dropping cancelled ones.

        Each slot a taken job frees admits the next waiting submit at
        once, so a waiting job of ``key`` can still join this run.
        """
        size = 1 if key is None else self.config.max_batch_jobs
        run: list[_Entry] = []
        while queue and len(run) < size:
            entry = queue.popleft()
            self._depth -= 1
            self._admit_waiting()
            if entry.future.cancelled():
                self._cancelled_jobs += 1
            else:
                run.append(entry)
        if not queue:
            del self._pending[key]
        return run

    def _admit_waiting(self) -> None:
        while self._waiting and self._depth < self.config.max_queue:
            entry = self._waiting.popleft()
            if entry.future.cancelled():
                self._cancelled_jobs += 1
            else:
                self._enqueue(entry)

    async def _run(self, loop, run: list[_Entry]) -> None:
        jobs = [entry.job for entry in run]
        outcomes = await loop.run_in_executor(
            self._executor, self._solve_batch, jobs
        )
        self._batches += 1
        packed = 0
        for entry, outcome in zip(run, outcomes):
            self._jobs_done += 1
            fut = entry.future
            if isinstance(outcome, JobResult):
                if outcome.packed:
                    packed += 1
                else:
                    self._solo_jobs += 1
                if not fut.cancelled():
                    fut.set_result(outcome)
            else:
                self._failed_jobs += 1
                if not fut.cancelled():
                    fut.set_exception(outcome)
        self._packed_jobs += packed
        runs = self._runs.setdefault(
            jobs[0].pack_key,
            {"jobs": 0, "packed_jobs": 0, "runs": 0, "run_sizes": {}},
        )
        runs["jobs"] += len(jobs)
        runs["packed_jobs"] += packed
        runs["runs"] += 1
        runs["run_sizes"][len(jobs)] = runs["run_sizes"].get(len(jobs), 0) + 1

    # -- solving (worker thread) ---------------------------------------
    def _solve_batch(self, jobs: list[SolveJob]) -> list:
        """Run one scheduled group; returns JobResult or Exception per job.

        The group is one job that runs alone, or jobs of one pack key,
        stacked as the lanes of one run.
        """
        if jobs[0].method not in PACK_METHODS:
            return [self._attempt(self._solve_solo, jobs[0])]
        outcomes: list = [None] * len(jobs)
        lanes = {}
        for i, job in enumerate(jobs):
            try:
                lanes[i] = self._compile_lane(job)
            except Exception as exc:  # noqa: BLE001 — reported per job
                outcomes[i] = exc
        if len(lanes) < 2:
            # A group of one (or whose peers failed compile) runs
            # unstacked, on its own model and backend.
            for i, lane in lanes.items():
                outcomes[i] = self._attempt(self._solve_alone, jobs[i], lane)
            return outcomes
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
            return outcomes
        for i, res in zip(lanes, results):
            outcomes[i] = self._as_result(
                jobs[i], res, packed=True, batch_size=len(lanes)
            )
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
