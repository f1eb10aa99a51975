"""Serve-side job/result dataclasses and the validated request boundary.

:func:`job_request` is the single entrance for work into the service —
every knob is validated *here*, with the same validators and message
shapes as the solve API (``check_count`` / ``check_choice`` /
``check_initial``), and every rejection is prefixed with the job id
so a client multiplexing hundreds of submissions can attribute the
failure.  Past this boundary the scheduler and the batch runners assume
well-formed jobs.  The boundary also decides whether a job may be
block-stacked (``SolveJob.packable``): a dense job whose sums a stacked
run would round differently runs alone, so every result stays
bit-identical to its solo solve.

The per-job replica cap (:data:`MAX_JOB_REPLICAS`) is a fairness knob,
not an engine limit: one tenant asking for thousands of replicas would
monopolise the shared batch run (every lane in a block-stacked batch
shares one replica count).  Larger sweeps split across jobs, which the
scheduler happily packs back together.
The admission budget (:func:`check_admission`) refuses a job too large
for the worker thread before it is queued, and the protocol runs it before
it builds the model.  It admits the paper's protocol (n=3000, R=64, t=4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.blockstack import PACK_METHODS
from repro.core.plan import plan_engine
from repro.ising.sparse import BACKENDS
from repro.utils.validation import (
    check_choice,
    check_count,
    check_flips,
    check_initial,
    check_iterations,
    check_model,
)

#: Documented per-job replica ceiling (see module docstring).  Jobs over
#: the cap are rejected at the boundary with an error naming the job id.
MAX_JOB_REPLICAS = 64

#: Admission budget: replicas × n entries of a job's replica state, and
#: n × n of a dense job's coupling matrix (float64, so 128 MiB each);
#: iterations × replicas × flips of an insitu/sa job (its int32 proposal
#: tensor, 128 MiB); and iterations × replicas × n spin-steps of any job.
MAX_JOB_ENTRIES = 2**24
MAX_JOB_PROPOSALS = 2**25
MAX_JOB_WORK = 2**35

#: Methods the service accepts.  ``insitu``/``sa`` run as lanes that may
#: pack (:data:`~repro.core.blockstack.PACK_METHODS`); ``sb`` always runs
#: solo through the plan cache (it integrates all positions every step,
#: so block-stacking buys it nothing).
SERVE_METHODS = ("insitu", "sa", "sb")


@dataclass(frozen=True)
class SolveJob:
    """One validated unit of work, produced by :func:`job_request`.

    ``packable`` says whether the scheduler may block-stack the job: its
    method is in :data:`~repro.core.blockstack.PACK_METHODS` and a
    stacked run reproduces its solo run bit for bit
    (:func:`_stacks_exactly`).  An insitu or sa job that may not stack
    still runs as a lane, alone.
    """

    job_id: str
    model: object
    method: str
    iterations: int
    replicas: int
    flips_per_iteration: int
    seed: int | None
    initial: np.ndarray | None
    backend: str | None
    packable: bool

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


def check_admission(
    n: int, method: str = "insitu", iterations: int = 1000, replicas: int = 1,
    flips_per_iteration: int = 1, dense: bool = False,
) -> tuple[str, int, int, int]:
    """Validate a job's knobs and admission budget for an ``n``-spin instance.

    Needs only the size, so the protocol runs it on a request's declared
    ``n`` before it builds the model; ``dense`` says the job holds an
    ``n × n`` matrix.  Returns ``(method, iterations, replicas,
    flips_per_iteration)`` validated.
    """
    n = check_count("n", n)
    method = check_choice("method", method, SERVE_METHODS)
    iterations = check_iterations(iterations)
    replicas = check_count(
        "replicas", replicas, hint="each replica is one independent trajectory"
    )
    if replicas > MAX_JOB_REPLICAS:
        raise ValueError(
            f"replicas must be at most {MAX_JOB_REPLICAS} per job, "
            f"got {replicas}; split larger replica sweeps across "
            f"jobs — the scheduler packs them back into one batch run"
        )
    flips_per_iteration = check_flips(flips_per_iteration, n)
    if flips_per_iteration != 1:
        plan_engine(method, ["flips_per_iteration"], batched=True)
    split = "split the job into smaller jobs (fewer iterations or replicas each)"
    for applies, name, size, limit, hint in (
        (True, "replicas × n", replicas * n, MAX_JOB_ENTRIES,
         f"at {replicas} replicas a job holds at most {MAX_JOB_ENTRIES // replicas} spins"),
        (dense, "n × n", n * n, MAX_JOB_ENTRIES, "backend 'sparse' stores only the couplings"),
        (method in PACK_METHODS, "iterations × replicas × flips_per_iteration",
         iterations * replicas * flips_per_iteration, MAX_JOB_PROPOSALS, split),
        (True, "iterations × replicas × n", iterations * replicas * n, MAX_JOB_WORK, split),
    ):
        if applies and size > limit:
            raise ValueError(f"{name} = {size} exceeds the per-job limit {limit}; {hint}")
    return method, iterations, replicas, flips_per_iteration


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
    (:func:`check_admission`) refuses jobs too large for one worker, and
    ``seed`` must be a plain integer (or None) so jobs stay serializable
    and replayable.
    """
    if not isinstance(job_id, str) or not job_id:
        raise ValueError(f"job_id must be a non-empty string, got {job_id!r}")
    try:
        check_model(model)
        if backend is not None:
            backend = check_choice("backend", backend, BACKENDS)
        n = model.num_spins
        method, iterations, replicas, flips_per_iteration = check_admission(
            n, method, iterations, replicas, flips_per_iteration,
            dense="dense" in (backend, model.backend),
        )
        if seed is not None:
            seed = check_count("seed", seed, minimum=0, maximum=None)
        if initial is not None:
            if method == "sb":
                raise ValueError(
                    f"initial only applies to methods "
                    f"{sorted(PACK_METHODS)}; method='sb' draws its own "
                    f"continuous positions"
                )
            initial = np.asarray(initial, dtype=np.float64)
            check_initial(initial, replicas, n)
    except ValueError as exc:
        raise ValueError(f"job {job_id!r}: {exc}") from None
    return SolveJob(
        job_id=job_id, model=model, method=method, iterations=iterations,
        replicas=replicas, flips_per_iteration=flips_per_iteration,
        seed=seed, initial=initial, backend=backend,
        packable=method in PACK_METHODS and _stacks_exactly(model, backend),
    )


def _stacks_exactly(model, backend: str | None) -> bool:
    """Whether a stacked run of this job equals its solo run bit for bit.

    The stacked union is sparse (:func:`~repro.core.blockstack.stack_models`),
    so a job whose own run is sparse or packed sums its couplings in the
    same order either way.  A job that may run dense (a dense model, or
    ``backend`` ``"dense"`` or ``"auto"``) sums them in BLAS order alone
    and in CSR order stacked.  The two agree when every partial sum is
    exact: all couplings and fields are integer multiples of one power of
    two, and their absolute sum is below ``2**52`` of it.  ±1 G-set
    weights qualify; weights such as 0.3 do not.
    """
    if (backend or model.backend) in ("sparse", "packed"):
        return True
    if model.backend == "dense":
        couplings = model.J[model.J != 0.0]
    else:
        couplings = model.csr_arrays()[2]
    values = np.concatenate((couplings, model.h))
    total = float(np.abs(values).sum())
    if not math.isfinite(total):
        return False
    # Scaled by a power of two so the absolute sum stays below 2**52:
    # the sums are exact exactly when every scaled value is an integer.
    scaled = np.ldexp(values, 52 - math.frexp(total)[1])
    return bool((scaled == np.rint(scaled)).all())


__all__ = [
    "MAX_JOB_ENTRIES",
    "MAX_JOB_PROPOSALS",
    "MAX_JOB_REPLICAS",
    "MAX_JOB_WORK",
    "SERVE_METHODS",
    "JobResult",
    "SolveJob",
    "check_admission",
    "job_request",
]
