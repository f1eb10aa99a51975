"""Vectorised multi-replica in-situ annealing.

The paper's evaluation runs 100 independent annealing runs per instance
(Sec. 4.1).  Running them one by one in Python pays the interpreter
overhead 100×; this module advances ``R`` independent replicas of
Algorithm 1 *simultaneously* with array-wide numpy operations — one
gather/scatter per iteration regardless of R — which speeds Monte-Carlo
protocols up by one to two orders of magnitude.

Semantics match the sequential annealers for any constant flip-set size
``t = flips_per_iteration >= 1`` (Algorithm 1 is defined for constant
``t = |F|``): same proposal modes, same factor/schedule handling, same
acceptance rule, per-replica independent randomness, and the same
rank-``t`` incremental-E mathematics — each replica of a batch is
bit-identical to a straight-line per-replica reference loop over the
*sequential* coupling ops whenever sums are exact (dyadic couplings;
``tests/test_batch_multiflip.py`` pins this on both backends).  (Replica
r of a batch is *not* bit-identical to a sequential run with seed r — RNG
streams differ — but the ensembles are statistically equivalent, which is
what Monte-Carlo experiments consume.)

Like the sequential annealers, the engines accept a ``permutation``
declaring the model a relabelled view of the caller's problem: proposals
and initial configurations are drawn in the caller's original spin space
and mapped through the permutation, and all returned configurations are
mapped back — so reordered replica solves are layout-independent.

There is one replica loop, :func:`run_lanes`.  A *lane*
(:class:`StackedLane`) is one run's draws — start state, proposal
tensor, accept coefficients — plus the generator, positioned at the
accept uniforms.  An engine's ``run`` draws one lane and runs it;
:func:`~repro.core.blockstack.run_stacked` runs many jobs' lanes
(:func:`compile_lane`) together on the block-diagonal union of their
models.  The accept rule is the only per-method code.  The loop draws
the uniforms per lane in chunks of :data:`CHUNK_ITERATIONS`:
``rng.random((C, R))`` consumes the stream exactly like ``C`` calls of
``rng.random(R)``, so no ``(iterations, R)`` array of uniforms is held
and the chunk size never changes a result.

Everything that depends only on the draws is looked up once per chunk,
not per iteration: the proposed spins' state addresses
(``state.locate``) and field values and, at ``t = 1``, their flat field
addresses, diagonal entries and the field update's neighbour lookups
(``ops.rank1_updates``).  A ``t = 1`` iteration is then a few array
operations over the ``R·k`` proposals: gather the spins, the rank-1
cross term ``d − σ g``, one accept comparison, one ``nonzero``, and a
flat update and flip of the accepted ones.  Larger flip sets keep the
intersection kernel (``batch_cross_term_slots``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.annealer import factor_profile, resolve_acceptance_scale
from repro.core.coupling import coupling_ops
from repro.core.factors import FractionalFactor, VbgEncoder
from repro.core.proposal import PROPOSAL_MODES, random_flip_sets, scan_order
from repro.core.results import CutNormalization
from repro.core.sa import default_schedule
from repro.core.schedule import Schedule, VbgStepSchedule
from repro.ising.model import IsingModel
from repro.ising.sparse import SparseIsingModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_choice,
    check_count,
    check_flips,
    permutation_maps,
)

#: Iterations per chunk that :func:`run_lanes` lays out at once: accept
#: uniforms and coefficients, and the proposals' state addresses and
#: lookups.  A chunk boundary costs a few dozen array calls; a smaller
#: chunk holds less of that state at once.
CHUNK_ITERATIONS = 128


@dataclass
class BatchAnnealResult:
    """Outcome of a replica batch.

    Attributes
    ----------
    best_energies / best_sigmas:
        Per-replica best energy (R,) and configuration (R, n).
    final_energies / final_sigmas:
        Per-replica final state.
    accepted:
        Per-replica acceptance counts.
    iterations:
        Iterations executed (same for all replicas).
    """

    best_energies: np.ndarray
    best_sigmas: np.ndarray
    final_energies: np.ndarray
    final_sigmas: np.ndarray
    accepted: np.ndarray
    iterations: int

    @property
    def num_replicas(self) -> int:
        """Number of replicas ``R``."""
        return self.best_energies.shape[0]

    @property
    def best_replica(self) -> int:
        """Index of the replica holding the overall best energy."""
        return int(np.argmin(self.best_energies))

    @property
    def best_energy(self) -> float:
        """The overall best energy across replicas."""
        return float(self.best_energies[self.best_replica])

    @property
    def best_sigma(self) -> np.ndarray:
        """The overall best configuration across replicas."""
        return self.best_sigmas[self.best_replica]

    def best_cuts(self, problem) -> np.ndarray:
        """Per-replica best cut values for a Max-Cut problem."""
        return np.array(
            [problem.cut_from_energy(float(e)) for e in self.best_energies]
        )


@dataclass
class BatchMaxCutResult(CutNormalization):
    """A :class:`BatchAnnealResult` interpreted against a Max-Cut instance.

    Attributes
    ----------
    anneal:
        The underlying replica-batch result.
    best_cuts:
        Per-replica best cut values (R,).
    reference_cut:
        Best-known cut used for normalisation, if given
        (``normalized_cut`` / ``is_success`` shared with
        :class:`~repro.core.results.MaxCutResult`).
    """

    anneal: BatchAnnealResult
    best_cuts: np.ndarray
    reference_cut: float | None = None

    @property
    def best_cut(self) -> float:
        """The best cut over all replicas (the protocol's reported value)."""
        return float(np.max(self.best_cuts))

    def summary(self) -> str:
        """One-line human-readable summary."""
        norm = self.normalized_cut
        norm_txt = f", normalised {norm:.3f}" if norm is not None else ""
        return (
            f"{self.anneal.num_replicas} replicas: best cut {self.best_cut:g} "
            f"(mean {float(np.mean(self.best_cuts)):g}){norm_txt}"
        )


@dataclass
class StackedLane:
    """One replica batch with its random draws made, ready to run.

    Produced by :func:`compile_lane` or a batch engine's ``run`` from one
    generator, in the solo engine's order: (SA only) the temperature-range
    probe, the start state, the proposal tensor.  The accept uniforms come
    last, so the lane keeps the generator positioned at them and
    :func:`run_lanes` draws them as it goes.  A lane therefore runs once.
    """

    model: IsingModel | SparseIsingModel
    method: str
    sigma0: np.ndarray          # (R, n) int8 ±1, in the model's spin order
    proposals: np.ndarray       # (iterations, R, t), in the model's spin
                                # order; int32 when n < 2**31
    coefficients: np.ndarray    # accept coefficient per iteration:
                                # insitu f(T), sa floored T
    gain: float                 # insitu acceptance scale; 1.0 for sa
    rng: np.random.Generator | None     # at the accept uniforms; None once run


def _set_sums(slots: np.ndarray, t: int) -> np.ndarray:
    """Per-flip-set sums of consecutive ``t``-slot groups, in slot order.

    A one-slot set is ``slot + 0.0``: numpy's sum starts from +0.0, so
    it too turns a ``-0.0`` slot into ``+0.0``.
    """
    if t == 1:
        return slots + 0.0
    return slots.reshape(-1, t).sum(axis=1)


def run_lanes(model, lanes, starts=None) -> list[BatchAnnealResult]:
    """Advance ``k`` lanes together on ``model``: the one replica loop.

    The lanes share ``(method, iterations, replicas,
    flips_per_iteration)``.  One lane runs on its own model.  Several
    lanes run on the block-diagonal union of their models
    (:func:`~repro.core.blockstack.stack_models`), lane ``j`` owning
    columns ``starts[j]`` to ``starts[j] + n_j``.  Energies, accept masks
    and counts are flat ``R·k`` vectors with the lane index varying
    fastest, so one lane does exactly the solo engine's ``(R,)``
    operations.  Returns one result per lane, in the model's spin order.
    """
    first, k = lanes[0], len(lanes)
    iterations, R, t = first.proposals.shape
    rngs = []
    for lane in lanes:
        if lane.rng is None:
            raise ValueError("a lane runs once; compile a fresh lane to run again")
        rngs.append(lane.rng)
        lane.rng = None
    accept_rule = BATCH_ENGINES[first.method]._accept
    starts = np.asarray([0] if starts is None else starts, dtype=np.intp)
    stops = starts + [lane.model.num_spins for lane in lanes]
    ops = coupling_ops(model)
    n = model.num_spins

    if k == 1:
        sigma = first.sigma0.astype(np.float64)
    else:
        # Each lane's start state in its block; padding spins stay +1.
        sigma = np.ones((R, n))
        for lane, a, b in zip(lanes, starts, stops):
            sigma[:, a:b] = lane.sigma0
    # The replica spin tensor's layout is the backend's business:
    # FloatBatchState holds int8 spins, PackedBatchState uint64 words
    # with XOR flips; both gather float64 ±1.0.  The fields and the
    # initial-energy einsum come from the float start state, so they are
    # the same for every state layout.
    state = ops.make_batch_state(sigma)
    g = state.fields
    energy = np.empty(R * k)
    for j, (lane, a, b) in enumerate(zip(lanes, starts, stops)):
        # Each lane's own arrays: contiguous slices reproduce the solo
        # einsum's memory walk.
        sigma_j = np.ascontiguousarray(sigma[:, a:b])
        energy[j::k] = (
            np.einsum("rn,rn->r", sigma_j, np.ascontiguousarray(g[:, a:b]))
            + sigma_j @ lane.model.h
            + lane.model.offset
        )
    del sigma, sigma_j  # the state owns the replica spins from here on
    best_energy = energy.copy()
    accepted = np.zeros(R * k, dtype=np.int64)
    gains = np.tile([lane.gain for lane in lanes], R)
    fielded = np.tile([lane.model.has_fields for lane in lanes], R)
    h = model.h if fielded.any() else None
    field_free = None if fielded.all() else ~fielded
    # Flip slots are flat, R·k·t per iteration: replica r, lane j, slot l
    # at r·k·t + j·t + l.  A t=1 slot is its own flip set.
    slot_rows = np.repeat(np.arange(R), k * t)
    row_base = slot_rows * n
    set_lanes = np.tile(np.arange(k), R)
    g_flat = g.reshape(-1)  # read only: the proposed spins' fields
    diag = ops.diag() + 0.0  # -0.0 → +0.0, see the rank-1 slot below

    for c0 in range(0, iterations, CHUNK_ITERATIONS):
        c1 = min(c0 + CHUNK_ITERATIONS, iterations)
        # rng.random((C, R)) consumes the stream like C calls of
        # rng.random(R), so the chunk size never changes a result.
        if k == 1:
            idx = first.proposals[c0:c1].reshape(c1 - c0, -1)
            uniforms = rngs[0].random((c1 - c0, R))
            coefficients = first.coefficients[c0:c1]  # one per iteration
        else:
            idx = np.empty((c1 - c0, R, k * t), dtype=np.intp)
            uniforms = np.empty((c1 - c0, R, k))
            for j, (lane, a, rng) in enumerate(zip(lanes, starts, rngs)):
                idx[:, :, j * t:(j + 1) * t] = lane.proposals[c0:c1] + a
                uniforms[:, :, j] = rng.random((c1 - c0, R))
            idx = idx.reshape(c1 - c0, -1)
            uniforms = uniforms.reshape(c1 - c0, R * k)
            # Each lane's coefficient, spread over its sets per iteration.
            coefficients = np.stack(
                [lane.coefficients[c0:c1] for lane in lanes], axis=1
            )
        # What depends only on the draws is looked up once per chunk:
        # the field values, (t=1) the diagonal entries and field-update
        # lookups, and the flat state addresses row·n + spin (a stacked
        # chunk's offset spins are a copy, so they become the addresses).
        h_f = None if h is None else h[idx]
        if t == 1:
            # A zero diagonal (every Max-Cut model) needs no gather.
            diag_f = diag[idx] if diag.any() else np.broadcast_to(0.0, idx.shape)
            update_fields = ops.rank1_updates(g, slot_rows, idx)
        addr = idx + row_base if k == 1 else np.add(idx, row_base, out=idx)
        del idx
        gather, flip = state.locate(addr)
        for i, (coefficient, u) in enumerate(zip(coefficients, uniforms)):
            if k > 1:
                coefficient = coefficient[set_lanes]
            sig_f = gather(i)
            if t == 1:
                # The rank-1 slot -(σ (g_f − dσ)) as d − σ g_f: equal for
                # finite values (σ = ±1, rounding is sign-symmetric) up
                # to the sign of a zero.  With no -0.0 in d, d − σ g_f
                # is never -0.0, just like the one-slot sum.
                cross = diag_f[i] - sig_f * g_flat[addr[i]]
            else:
                # Lanes' flip sets are uncoupled; each lane's t slots sum
                # in solo slot order.
                flips = (addr[i] - row_base).reshape(R, -1)
                cross = _set_sums(ops.batch_cross_term_slots(
                    g, flips, sig_f.reshape(R, -1)
                ).ravel(), t)
            if h_f is None:
                field_term = 0.0
                delta_e = 4.0 * cross  # cross has no -0.0 to add 0.0 to
            else:
                field_term = -_set_sums(h_f[i] * sig_f, t)
                if field_free is not None:
                    # Field-free lanes use the solo scalar 0.0 exactly
                    # (their union column is a sum of signed zeros).
                    field_term[field_free] = 0.0
                delta_e = 4.0 * cross + 2.0 * field_term
            accept = accept_rule(cross, field_term, delta_e, coefficient, gains, u)
            acc = accept.nonzero()[0]
            if not acc.size:
                continue
            # Repeated replica rows are safe on the union: different
            # lanes' flips land in disjoint column blocks.
            if t == 1:
                vals = sig_f[acc]
                update_fields(i, acc, vals)
                flip(i, acc, vals)
            else:
                replica = acc if k == 1 else acc // k
                cols = flips.reshape(-1, t)[acc]
                vals = sig_f.reshape(-1, t)[acc]
                ops.batch_update_fields(g, replica, cols, vals)
                state.flip(replica, cols, vals)
            energy[acc] += delta_e[acc]
            accepted += accept
            # Only accepted sets moved, and no set sits below its best.
            improved = (energy < best_energy).nonzero()[0]
            if improved.size:
                best_energy[improved] = energy[improved]
                if k == 1:
                    state.record_best(improved)
                else:
                    # A lane's best is its column block, not the row.
                    lane_of = improved % k
                    state.record_best_blocks(
                        improved // k, starts[lane_of], stops[lane_of]
                    )

    best_sigmas, final_sigmas = state.best_sigmas(), state.final_sigmas()
    return [
        BatchAnnealResult(
            best_energies=best_energy[j::k].copy(),
            best_sigmas=best_sigmas[:, a:b].copy(),
            final_energies=energy[j::k].copy(),
            final_sigmas=final_sigmas[:, a:b].copy(),
            accepted=accepted[j::k].copy(),
            iterations=iterations,
        )
        for j, (a, b) in enumerate(zip(starts, stops))
    ]


class _BatchEngine:
    """Shared draws of the batch annealers; :func:`run_lanes` runs them.

    Subclasses name their ``method`` (the :data:`BATCH_ENGINES` key) and
    provide the accept rule: ``_accept_coefficients`` turns the schedule
    into one accept coefficient per iteration, once per run, and the
    static ``_accept`` applies the rule with that coefficient and the
    engine's gain.  Everything else (start state, rank-t proposal
    generation, permutation mapping) is common.
    """

    def _init_common(
        self, model, replicas, flips_per_iteration, proposal, permutation, seed
    ) -> None:
        self.model = model
        self.n = model.num_spins
        self.replicas = check_count("replicas", replicas)
        self.flips_per_iteration = check_flips(flips_per_iteration, self.n)
        self.proposal = check_choice("proposal", proposal, PROPOSAL_MODES)
        self.permutation = permutation
        self._fwd, self._bwd = permutation_maps(permutation, self.n)
        self._rng = ensure_rng(seed)

    def _proposal_tensor(self, iterations: int) -> np.ndarray:
        """(iterations, R, t) spin indices — scan sweeps or uniform draws.

        Indices are unique within each ``(iteration, replica)`` flip set
        and drawn in the caller's original spin space (mirroring
        :class:`~repro.core.proposal.FlipSelector` semantics, including the
        straddle-safe per-sweep carry); :meth:`_draw_lane` maps them
        through the permutation.  For ``t == 1`` the RNG stream is
        identical to the historical single-flip engine.

        The tensor is int32 when ``n < 2³¹`` (half the int64 draw).  Scan
        streams and uniform t=1 draws are written into it as they are
        drawn — ``rng.integers`` in row chunks consumes the stream like
        one call — so the draw holds no int64 tensor; random t>1 sets
        are drawn whole, then cast.
        """
        rng = self._rng
        n, R, t = self.n, self.replicas, self.flips_per_iteration
        dtype = np.int32 if n < 2**31 else np.intp
        if self.proposal == "random" and t > 1:
            flat = random_flip_sets(rng, n, iterations * R, t)
            return flat.reshape(iterations, R, t).astype(dtype, copy=False)
        out = np.empty((iterations, R, t), dtype=dtype)
        if self.proposal == "random":
            for c0 in range(0, iterations, CHUNK_ITERATIONS):
                c1 = min(c0 + CHUNK_ITERATIONS, iterations)
                out[c0:c1, :, 0] = rng.integers(n, size=(c1 - c0, R))
        else:
            for r in range(R):
                out[:, r, :] = scan_order(n, t, iterations * t, rng).reshape(iterations, t)
        return out

    def _gain(self) -> float:
        """The accept rule's gain (only the in-situ rule has one)."""
        return 1.0

    def _initial_sigma(self, initial, rng) -> np.ndarray:
        """Validated (R, n) ±1 start state, in the caller's original space."""
        R, n = self.replicas, self.n
        if initial is None:
            return rng.choice(np.array([-1.0, 1.0]), size=(R, n))
        base = np.asarray(initial, dtype=np.float64)
        if base.shape == (n,):
            sigma = np.tile(base, (R, 1))
        elif base.shape == (R, n):
            sigma = base
        else:
            raise ValueError(f"initial must have shape ({n},) or ({R}, {n})")
        bad = ~np.isin(sigma, (-1.0, 1.0))
        if bad.any():
            r, j = np.argwhere(bad)[0]
            raise ValueError(
                f"initial entries must be ±1; replica {r} has "
                f"{sigma[r, j]!r} at spin {j} (a non-spin value would corrupt "
                f"the cached local fields and return wrong energies)"
            )
        return sigma

    def _draw_lane(self, iterations: int, initial) -> StackedLane:
        """One run's draws (schedule, start state, proposals) as a lane."""
        schedule = self._build_schedule(iterations)
        if schedule.iterations != iterations:
            raise ValueError("schedule length does not match iterations")
        coefficients = self._accept_coefficients(schedule)
        sigma0 = self._initial_sigma(initial, self._rng)
        if self._bwd is not None:
            # Drawn (or given) in the original spin space.
            sigma0 = sigma0[:, self._bwd]
        # Held as int8 like the replica state: an eighth of the float
        # draw's memory while the proposals are drawn and the lane runs.
        sigma0 = sigma0.astype(np.int8, order="C")
        proposals = self._proposal_tensor(iterations)
        if self._fwd is not None:
            proposals = self._fwd.astype(proposals.dtype)[proposals]
        return StackedLane(
            model=self.model, method=self.method, sigma0=sigma0,
            proposals=proposals, coefficients=coefficients,
            gain=self._gain(), rng=self._rng,
        )

    def run(self, iterations: int, initial=None) -> BatchAnnealResult:
        """Advance all replicas for ``iterations`` steps.

        Parameters
        ----------
        iterations:
            Proposal/accept steps (validated like the solve API — bools and
            non-positive counts are rejected with an actionable error).
        initial:
            Optional ±1 start configuration, shape (n,) (broadcast to all
            replicas) or (R, n) (one per replica), in the caller's original
            spin space when a permutation is set.

        The run is one lane (:meth:`_draw_lane`) through :func:`run_lanes`;
        the schedule is evaluated once, into one accept coefficient per
        iteration, so the loop itself only touches replica state.
        """
        iterations = check_count(
            "iterations", iterations,
            hint="the annealers need at least one proposal/accept step",
        )
        (result,) = run_lanes(self.model, [self._draw_lane(iterations, initial)])
        if self._fwd is not None:
            # Readouts go back to the caller's original ordering.
            result.best_sigmas = result.best_sigmas[:, self._fwd]
            result.final_sigmas = result.final_sigmas[:, self._fwd]
        return result


class BatchInSituAnnealer(_BatchEngine):
    """R-replica vectorised in-situ annealer (rank-``t`` moves).

    Parameters
    ----------
    model:
        The Ising model (fields supported; dense or sparse backend).
    replicas:
        Number of independent replicas ``R``.
    flips_per_iteration:
        ``t = |F|``, the constant flip-set size shared by all replicas
        (as in :class:`~repro.core.annealer.InSituAnnealer`).
    factor / schedule / encoder / acceptance_scale / proposal / seed:
        As in :class:`~repro.core.annealer.InSituAnnealer`.
    permutation:
        Optional :class:`~repro.core.reorder.Permutation` (or raw forward
        array) declaring ``model`` a relabelled view; proposals and
        configurations stay in the caller's original spin space.
    """

    method = "insitu"

    def __init__(
        self,
        model: IsingModel | SparseIsingModel,
        replicas: int,
        flips_per_iteration: int = 1,
        factor: FractionalFactor | None = None,
        schedule: Schedule | None = None,
        encoder: VbgEncoder | None = None,
        acceptance_scale: float | str = "auto",
        proposal: str = "scan",
        permutation=None,
        seed=None,
    ) -> None:
        self._init_common(
            model, replicas, flips_per_iteration, proposal, permutation, seed
        )
        self.factor = factor or FractionalFactor()
        self.schedule = schedule
        self.encoder = encoder
        self.acceptance_scale = resolve_acceptance_scale(acceptance_scale, model)

    def _build_schedule(self, iterations: int) -> Schedule:
        return self.schedule or VbgStepSchedule(iterations, factor=self.factor)

    def _accept_coefficients(self, schedule: Schedule) -> np.ndarray:
        """``f(T)`` per iteration (:func:`~repro.core.annealer.factor_profile`)."""
        return factor_profile(schedule.profile(), self.factor, self.encoder)

    def _gain(self) -> float:
        return self.acceptance_scale

    @staticmethod
    def _accept(cross, field_term, delta_e, coefficient, gain, u) -> np.ndarray:
        """The sequential rule ``e_inc <= 0 or e_inc <= u`` for ``u ∈ [0, 1)``.

        ``coefficient`` is this iteration's f(T), ``gain`` the acceptance
        scale.  Same association as the sequential rule — (x · f) · gain,
        not x · (f · gain) — so accept decisions match the sequential
        annealer to the last ulp at the comparison boundary.  One
        comparison suffices: with ``u >= 0``, ``e_inc <= 0`` implies
        ``e_inc <= u``, and a NaN fails both.
        """
        e_inc = (cross + field_term / 2.0) * coefficient * gain
        return e_inc <= u


class BatchDirectEAnnealer(_BatchEngine):
    """R-replica vectorised direct-E Metropolis SA (rank-``t`` moves).

    The baseline algorithm at batch throughput — lets the 100-run Fig 10
    protocol run for both solver families.  Parameters mirror
    :class:`~repro.core.sa.DirectEAnnealer` (plus ``replicas`` and
    ``permutation`` as in :class:`BatchInSituAnnealer`).
    """

    method = "sa"

    def __init__(
        self,
        model: IsingModel | SparseIsingModel,
        replicas: int,
        flips_per_iteration: int = 1,
        schedule: Schedule | None = None,
        proposal: str = "random",
        permutation=None,
        seed=None,
    ) -> None:
        self._init_common(
            model, replicas, flips_per_iteration, proposal, permutation, seed
        )
        self.schedule = schedule

    def _build_schedule(self, iterations: int) -> Schedule:
        if self.schedule is not None:
            return self.schedule
        return default_schedule(self.model, iterations, self._rng, self.permutation)

    def _accept_coefficients(self, schedule: Schedule) -> np.ndarray:
        """The temperature per iteration, floored like ``max(T, 1e-12)``."""
        return np.maximum(schedule.profile(), 1e-12)

    @staticmethod
    def _accept(cross, field_term, delta_e, coefficient, gain, u) -> np.ndarray:
        """The sequential rule ``ΔE <= 0 or u < exp(-ΔE/T)`` for ``u ∈ [0, 1)``.

        ``coefficient`` is this iteration's floored temperature; the
        Metropolis rule takes no gain.  One comparison suffices for a
        temperature that is not NaN: a downhill ``ΔE`` (±0 included)
        gives ``exp(-0/T) = 1 > u``, and a NaN ``ΔE`` fails both forms.
        """
        return u < np.exp(-np.maximum(delta_e, 0.0) / coefficient)


#: The batch engines by method name: the accept rule is the only
#: per-method code of a replica run.
BATCH_ENGINES = {
    cls.method: cls for cls in (BatchInSituAnnealer, BatchDirectEAnnealer)
}


def compile_lane(
    model,
    method: str = "insitu",
    iterations: int = 1000,
    replicas: int = 1,
    flips_per_iteration: int = 1,
    seed=None,
    initial=None,
) -> StackedLane:
    """Make one job's solo random draws into a :class:`StackedLane`.

    The draws happen in exactly the solo engine's order against
    ``ensure_rng(seed)``, so the lane run through
    :func:`~repro.core.blockstack.run_stacked` (alone or stacked with
    others) reproduces ``solve_ising(model, method, iterations,
    seed=seed, replicas=replicas,
    flips_per_iteration=flips_per_iteration)`` bit for bit.  ``initial``
    follows the engine contract (shape ``(n,)`` or ``(R, n)``, entries
    ±1), ``replicas`` and ``flips_per_iteration`` are validated with the
    engine's own messages.
    """
    check_choice("method", method, BATCH_ENGINES)
    iterations = check_count(
        "iterations", iterations,
        hint="the annealers need at least one proposal/accept step",
    )
    engine = BATCH_ENGINES[method](
        model, replicas=replicas, flips_per_iteration=flips_per_iteration,
        seed=seed,
    )
    return engine._draw_lane(iterations, initial)
