"""High-level solve API: one call from problem to solution.

These wrappers pick reasonable defaults for the solver families
(in-situ fractional, direct-E SA, MESA, simulated bifurcation), validate
their inputs at the boundary (so misuse fails with an actionable message
instead of deep inside an annealer loop), run them, and translate
energies back into problem-domain quantities (cut values for Max-Cut).

Since the compile/execute split, each call is literally
``compile_plan(...)`` + ``plan.execute(...)`` from
:mod:`repro.core.plan` — every expensive setup step (backend promotion,
the reorder/partition layout race, ancilla fold, quantization, tile
programming) lives in the plan compiler, and callers who solve one
instance repeatedly should hold the :class:`~repro.core.plan.SolvePlan`
(or a :class:`~repro.core.plan.PlanCache`) and re-execute it instead of
paying compilation per call.

Coupling backends
-----------------
Every solver family accepts any coupling backend — the dense
:class:`~repro.ising.model.IsingModel`, the CSR
:class:`~repro.ising.sparse.SparseIsingModel`, or the bit-packed
sign-only :class:`~repro.ising.packed.PackedIsingModel` — transparently.
The ``backend`` knob on :func:`solve_ising` / :func:`solve_maxcut`
converts on the way in: ``"dense"`` / ``"sparse"`` / ``"packed"`` force a
representation, ``"auto"`` applies the density-threshold heuristic of
:func:`repro.ising.sparse.recommended_backend` (sparse from
``SPARSE_MIN_SPINS`` spins up when the pair density is at most
``SPARSE_DENSITY_THRESHOLD``, promoted to packed when all couplings share
one ±magnitude).  For integer or dyadic-rational couplings —
which includes every ±1-weighted G-set instance, where ``J = W/4`` — all
floating-point sums are exact and fixed-seed trajectories coincide bit for
bit across backends.  For arbitrary float couplings the backends compute
the same mathematics in different summation orders, so individual
accept decisions (and hence trajectories) may diverge; pass an explicit
``backend`` when exact run-to-run reproducibility across releases matters
for such models.
"""

from __future__ import annotations

from repro.core.batch import BatchAnnealResult, BatchMaxCutResult
from repro.core.plan import (  # noqa: F401  (re-exported: historical home)
    SOLVE_METHODS,
    compile_plan,
)
from repro.core.results import AnnealResult, MaxCutResult
from repro.ising.maxcut import MaxCutProblem
from repro.ising.model import IsingModel
from repro.ising.sparse import SparseIsingModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_iterations, check_real


def solve_ising(
    model: IsingModel | SparseIsingModel,
    method: str = "insitu",
    iterations: int = 1000,
    seed=None,
    backend: str | None = None,
    tile_size: int | None = None,
    reorder: str | None = None,
    replicas: int | None = None,
    **solver_kwargs,
) -> AnnealResult | BatchAnnealResult:
    """Minimise an Ising model with the selected annealer.

    A thin wrapper over the compile/execute split: the call compiles a
    :class:`~repro.core.plan.SolvePlan` and executes it once.  To solve
    the same instance many times, call
    :func:`~repro.core.plan.compile_plan` yourself (or go through a
    :class:`~repro.core.plan.PlanCache`) and re-execute the plan — the
    results are bit-identical to repeated ``solve_ising`` calls for
    exactly-representable couplings, without re-paying setup.

    Parameters
    ----------
    model:
        The model to minimise — either coupling backend.
    method:
        ``"insitu"`` (the paper's flow), ``"sa"`` (direct-E Metropolis
        baseline), ``"mesa"`` (multi-epoch SA of ref [7]) or ``"sb"``
        (ballistic/discrete simulated bifurcation,
        :class:`~repro.core.sb.SbEngine` — one coupling matvec per step;
        pass ``variant="ballistic"`` for bSB, default is dSB).
    iterations:
        Annealing iterations (must be >= 1; validated here so the error is
        raised at the API boundary).
    seed:
        RNG seed.  One generator is threaded through plan compilation
        (crossbar programming, when it draws at all) and execution, so a
        fixed seed reproduces the historical single-phase trajectories
        exactly.
    backend:
        Optional coupling-backend override: ``"dense"``, ``"sparse"``,
        ``"packed"`` or ``"auto"`` (density heuristic with sign-only
        promotion).  ``None`` (default) keeps the model's current
        representation — ``solve_ising`` takes an already-built Ising
        model, so whoever built it chose a backend on purpose and a
        default conversion would silently override that choice.  (This
        deliberately diverges from :func:`solve_maxcut`, which *builds*
        the model and therefore defaults to ``backend="auto"``.)  The
        resolved representation is reported by
        :meth:`SolvePlan.summary() <repro.core.plan.SolvePlan.summary>`.
        Choose sparse for large low-density instances (packed when the
        couplings are sign-only); fixed-seed trajectories are
        backend-independent for exactly-representable couplings (see
        module docstring).
    tile_size:
        When given (and ``method="insitu"``), the solve runs on the
        hardware-instrumented tiled crossbar machine
        (:class:`~repro.arch.cim_annealer.InSituCimAnnealer`) with
        ``tile_size``-row arrays: sparse models are sharded straight from
        CSR, so 100k+-node low-degree instances never densify.  Energies
        are then those of the *stored* (k-bit-quantized) image — exact for
        dyadic couplings such as ±1-weighted G-sets.  Pass
        ``crossbar_backend="device"`` for the compact-model tile
        evaluation (``backend`` here always means the coupling backend).
        With ``method="sb"`` the SB inner loop's matvec is served by the
        same tiled grid's digitally-combined behavioral MVM
        (:meth:`~repro.arch.tiling.TiledCrossbar.batch_matvec`) — and
        ``replicas`` is allowed, time-multiplexed over the grid.
    replicas:
        When given, run ``replicas`` independent annealing replicas at once
        through the vectorised batch engines
        (:class:`~repro.core.batch.BatchInSituAnnealer` /
        :class:`~repro.core.batch.BatchDirectEAnnealer`) and return a
        :class:`~repro.core.batch.BatchAnnealResult` with per-replica
        energies and configurations — the paper's 100-run Monte-Carlo
        protocol in one call.  Supports ``method`` ``"insitu"``, ``"sa"``
        and ``"sb"`` (MESA has no batch engine),
        ``flips_per_iteration >= 1`` (flip methods) and ``reorder``;
        incompatible with ``tile_size`` except under ``method="sb"``,
        whose replica batch time-multiplexes over the tile grid.
    reorder:
        Spin-reordering pass applied before solving: ``"none"`` (default),
        ``"rcm"`` (Reverse Cuthill–McKee, for banded structure),
        ``"partition"`` (multilevel min-cut blocks sized to the tile grid
        — clustered/community instances; requires ``tile_size``) or
        ``"auto"`` (reorder only when it strictly improves the layout —
        on the tiled machine RCM and the partition layout compete on
        exact active-tile count, the software solvers score by bandwidth,
        with a greedy degree-ordering fallback).  Reordering is
        transparent: proposals are drawn in the original spin space and
        solutions are mapped back through the inverse permutation, so
        results are bit-identical to the unreordered solve for dyadic
        couplings (see :mod:`repro.core.reorder` and
        :mod:`repro.core.partition`).
    solver_kwargs:
        The knobs of the plan's engine (e.g. ``flips_per_iteration``);
        see :func:`~repro.core.plan.plan_engine`.
    """
    # Checked first: a bad budget never pays for a layout race.
    iterations = check_iterations(iterations)
    # One generator for both phases: compilation consumes programming
    # draws (device backend / variation models) and execution consumes
    # the proposal/accept stream — exactly the historical shared-stream
    # order, so fixed-seed regressions stay bit-identical.
    rng = ensure_rng(seed)
    plan = compile_plan(
        model, method=method, backend=backend, tile_size=tile_size,
        reorder=reorder, replicas=replicas, seed=rng, **solver_kwargs
    )
    return plan.execute(iterations, seed=rng)


def solve_maxcut(
    problem: MaxCutProblem,
    method: str = "insitu",
    iterations: int = 1000,
    seed=None,
    reference_cut: float | None = None,
    backend: str = "auto",
    tile_size: int | None = None,
    reorder: str | None = None,
    replicas: int | None = None,
    **solver_kwargs,
) -> MaxCutResult | BatchMaxCutResult:
    """Solve a Max-Cut instance and report cut values.

    ``reference_cut`` (the best-known value, e.g. from
    :func:`repro.analysis.reference.reference_cut`) enables the normalised
    cut and the paper's ≥ 0.9 success criterion on the result object.

    ``backend`` selects the coupling representation of the underlying
    Ising model (see :meth:`MaxCutProblem.to_ising`); the default
    ``"auto"`` builds large sparse instances — the whole G-set suite —
    on the CSR backend, bit-packed when the edge weights share one
    ±magnitude (every ±1 G-set).  The default differs from
    :func:`solve_ising` on purpose: this function *builds* the Ising
    model from the problem, so there is no caller-chosen representation
    to respect and the heuristic pick is the right one, whereas
    ``solve_ising(backend=None)`` keeps whatever backend the caller
    constructed.  ``tile_size`` routes the solve through the tiled
    crossbar machine and ``reorder`` applies a bandwidth-reducing spin
    relabelling ahead of tiling (see :func:`solve_ising`; the returned
    partition is always in the problem's original node order).

    ``replicas`` runs the paper's R-run Monte-Carlo protocol through the
    vectorised batch engines and returns a
    :class:`~repro.core.batch.BatchMaxCutResult` carrying per-replica best
    cuts (see :func:`solve_ising`).
    """
    if getattr(problem, "num_nodes", None) is None:
        raise ValueError(
            f"problem must be a MaxCutProblem, got {type(problem).__name__}"
        )
    if reference_cut is not None:
        # Validated at the boundary: a non-numeric reference used to slip
        # through and only explode later inside normalized_cut.
        reference_cut = check_real("reference_cut", reference_cut)
    model = problem.to_ising(backend=backend)
    result = solve_ising(
        model, method=method, iterations=iterations, seed=seed,
        tile_size=tile_size, reorder=reorder, replicas=replicas,
        **solver_kwargs
    )
    if replicas is not None:
        return BatchMaxCutResult(
            anneal=result,
            best_cuts=result.best_cuts(problem),
            reference_cut=reference_cut,
        )
    return MaxCutResult(
        anneal=result,
        cut=problem.cut_from_energy(result.energy),
        best_cut=problem.cut_from_energy(result.best_energy),
        reference_cut=reference_cut,
    )
