"""Multi-tenant async solver service with cross-request replica packing.

``repro.serve`` turns the library into a service: concurrent clients
submit small independent Ising/Max-Cut jobs, a bound on pending jobs
applies backpressure, and a batching scheduler packs compatible jobs
into ONE rank-``t`` batch engine run over the block-diagonal union of
their couplings (:mod:`repro.core.blockstack`).  Per-job results are sliced
back out bit-identically to solo :func:`~repro.core.solver.solve_ising`
calls — packing is a pure throughput optimisation, never a semantics
change.

Layer map
---------
:mod:`repro.serve.jobs`
    :func:`job_request` — the validated API boundary (per-job replica
    cap, admission budget, ±1 initial states, serve-method choices;
    errors name the job id) — plus the
    :class:`SolveJob`/:class:`JobResult` dataclasses.
:mod:`repro.serve.service`
    :class:`SolverService` — pending jobs held by pack key (bounded by
    ``max_queue``), a scheduler that runs the key with the oldest job as
    one stacked run per round, single-worker solve executor, ``sb`` jobs
    via a shared (thread-safe) :class:`~repro.core.plan.PlanCache`, and
    a stats surface with each pack key's runs.
:mod:`repro.serve.protocol`
    JSON-lines TCP front end (``repro serve``) and the tiny client used
    by ``repro submit``.
"""

from repro.serve.jobs import (
    MAX_JOB_ENTRIES,
    MAX_JOB_PROPOSALS,
    MAX_JOB_REPLICAS,
    MAX_JOB_WORK,
    SERVE_METHODS,
    JobResult,
    SolveJob,
    job_request,
)
from repro.serve.service import ServiceConfig, SolverService, service_config

__all__ = [
    "MAX_JOB_ENTRIES",
    "MAX_JOB_PROPOSALS",
    "MAX_JOB_REPLICAS",
    "MAX_JOB_WORK",
    "SERVE_METHODS",
    "JobResult",
    "ServiceConfig",
    "SolveJob",
    "SolverService",
    "job_request",
    "service_config",
]
