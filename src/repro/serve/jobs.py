"""Serve-side job/result dataclasses and the validated request boundary.

:func:`job_request` is the single entrance for work into the service —
every knob is validated *here*, with the same validators and message
shapes as the solve API (``check_count`` / ``check_choice`` /
``check_spin_vector``), and every rejection is prefixed with the job id
so a client multiplexing hundreds of submissions can attribute the
failure.  Past this boundary the scheduler and the batch runners assume
well-formed jobs.

The per-job replica cap (:data:`MAX_JOB_REPLICAS`) is a fairness knob,
not an engine limit: one tenant asking for thousands of replicas would
monopolise the shared batch run (every lane in a block-stacked batch
shares one replica count).  Larger sweeps split across jobs, which the
scheduler happily packs back together.
The admission budget (:data:`MAX_JOB_PROPOSALS`, :data:`MAX_JOB_WORK`)
refuses a job too large for the worker thread before it is queued; both
limits admit the paper's protocol (n=3000, R=64, 100k iterations, t=4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blockstack import PACK_METHODS
from repro.utils.validation import (
    check_choice,
    check_count,
    check_flips,
    check_model,
    check_spin_vector,
)

#: Documented per-job replica ceiling (see module docstring).  Jobs over
#: the cap are rejected at the boundary with an error naming the job id.
MAX_JOB_REPLICAS = 64

#: Admission budget: iterations × replicas × flips of an insitu/sa job
#: (its int32 proposal tensor, 128 MiB), and iterations × replicas × n
#: spin-steps of any job.
MAX_JOB_PROPOSALS = 2**25
MAX_JOB_WORK = 2**35

#: Methods the service accepts.  ``insitu``/``sa`` are packable
#: (:data:`~repro.core.blockstack.PACK_METHODS`); ``sb`` always runs
#: solo through the plan cache (it integrates all positions every step,
#: so block-stacking buys it nothing).
SERVE_METHODS = ("insitu", "sa", "sb")


@dataclass(frozen=True)
class SolveJob:
    """One validated unit of work, produced by :func:`job_request`."""

    job_id: str
    model: object
    method: str
    iterations: int
    replicas: int
    flips_per_iteration: int
    seed: int | None
    initial: np.ndarray | None
    backend: str | None

    @property
    def packable(self) -> bool:
        """Whether the scheduler may block-stack this job."""
        return self.method in PACK_METHODS

    @property
    def pack_key(self) -> tuple:
        """Batch-compatibility key: lanes must share exactly these knobs."""
        return (
            self.method, self.iterations, self.replicas,
            self.flips_per_iteration,
        )


@dataclass(frozen=True)
class JobResult:
    """Per-job solve outcome, shaped like the solo replica-batch result.

    The array fields mirror :class:`~repro.core.batch.BatchAnnealResult`
    (per-replica bests/finals/acceptance) and are bit-identical to
    ``solve_ising(model, method, iterations, seed=seed,
    replicas=replicas, flips_per_iteration=…)`` whether the job was
    block-stack packed or ran solo; ``packed``/``batch_size`` report how
    it was actually executed.
    """

    job_id: str
    best_energies: np.ndarray
    best_sigmas: np.ndarray
    final_energies: np.ndarray
    final_sigmas: np.ndarray
    accepted: np.ndarray
    iterations: int
    packed: bool
    batch_size: int

    @property
    def best_replica(self) -> int:
        """Index of the replica holding the overall best energy."""
        return int(np.argmin(self.best_energies))

    @property
    def best_energy(self) -> float:
        """Overall best energy across the job's replicas."""
        return float(self.best_energies[self.best_replica])

    @property
    def best_sigma(self) -> np.ndarray:
        """Configuration of the overall best replica."""
        return self.best_sigmas[self.best_replica]


def job_request(
    job_id: str,
    model,
    method: str = "insitu",
    iterations: int = 1000,
    replicas: int = 1,
    flips_per_iteration: int = 1,
    seed: int | None = None,
    initial=None,
    backend: str | None = None,
) -> SolveJob:
    """Validate one solve request into an immutable :class:`SolveJob`.

    Raises ``ValueError`` with the offending job id prefixed on any bad
    knob — the same message bodies the solve API produces, so a client
    that knows ``solve_ising``'s errors recognises the service's.

    Parameters mirror :func:`~repro.core.solver.solve_ising` with three
    serve-specific deltas: ``replicas`` is capped at
    :data:`MAX_JOB_REPLICAS` per job, the admission budget
    (:data:`MAX_JOB_PROPOSALS`, :data:`MAX_JOB_WORK`) refuses jobs too
    large for one worker, and ``seed`` must be a plain integer (or None)
    so jobs stay serializable and replayable.
    """
    if not isinstance(job_id, str) or not job_id:
        raise ValueError(
            f"job_id must be a non-empty string, got {job_id!r}"
        )
    try:
        method = check_choice("method", method, SERVE_METHODS)
        check_model(model)
        iterations = check_count(
            "iterations", iterations,
            hint="the annealers need at least one proposal/accept step",
        )
        replicas = check_count(
            "replicas", replicas,
            hint="each replica is one independent trajectory",
        )
        if replicas > MAX_JOB_REPLICAS:
            raise ValueError(
                f"replicas must be at most {MAX_JOB_REPLICAS} per job, "
                f"got {replicas}; split larger replica sweeps across "
                f"jobs — the scheduler packs them back into one batch run"
            )
        n = model.num_spins
        flips_per_iteration = check_flips(flips_per_iteration, n)
        if method == "sb" and flips_per_iteration != 1:
            raise ValueError(
                f"flips_per_iteration only applies to methods "
                f"{sorted(PACK_METHODS)}; method='sb' integrates every "
                f"position each step"
            )
        budget = [("n", n, MAX_JOB_WORK)]
        if method in PACK_METHODS:
            budget.insert(0, ("flips_per_iteration", flips_per_iteration, MAX_JOB_PROPOSALS))
        for name, size, limit in budget:
            if iterations * replicas * size > limit:
                raise ValueError(
                    f"iterations × replicas × {name} = "
                    f"{iterations * replicas * size} exceeds the per-job "
                    f"limit {limit}; split the job into smaller jobs (fewer "
                    f"iterations or replicas each)"
                )
        if seed is not None:
            seed = check_count("seed", seed, minimum=0)
        if backend is not None:
            backend = check_choice(
                "backend", backend, ("auto", "dense", "sparse", "packed")
            )
        if initial is not None:
            if method == "sb":
                raise ValueError(
                    f"initial only applies to methods "
                    f"{sorted(PACK_METHODS)}; method='sb' draws its own "
                    f"continuous positions"
                )
            arr = np.asarray(initial, dtype=np.float64)
            if arr.ndim == 1:
                check_spin_vector(arr, n)
            elif arr.ndim == 2:
                if arr.shape != (replicas, n):
                    raise ValueError(
                        f"initial must have shape ({n},) or "
                        f"({replicas}, {n}), got {arr.shape}"
                    )
                for row in arr:
                    check_spin_vector(row, n)
            else:
                raise ValueError(
                    f"initial must have shape ({n},) or "
                    f"({replicas}, {n}), got {arr.shape}"
                )
            initial = arr
    except ValueError as exc:
        raise ValueError(f"job {job_id!r}: {exc}") from None
    return SolveJob(
        job_id=job_id, model=model, method=method, iterations=iterations,
        replicas=replicas, flips_per_iteration=flips_per_iteration,
        seed=seed, initial=initial, backend=backend,
    )


__all__ = [
    "MAX_JOB_PROPOSALS",
    "MAX_JOB_REPLICAS",
    "MAX_JOB_WORK",
    "SERVE_METHODS",
    "JobResult",
    "SolveJob",
    "job_request",
]
