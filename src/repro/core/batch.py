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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.coupling import auto_acceptance_scale, coupling_ops
from repro.core.factors import FractionalFactor, VbgEncoder
from repro.core.proposal import PROPOSAL_MODES, random_flip_sets, scan_order
from repro.core.results import CutNormalization
from repro.core.schedule import Schedule, VbgStepSchedule
from repro.ising.model import IsingModel
from repro.ising.sparse import SparseIsingModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_count, check_permutation


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


class _BatchEngine:
    """Shared vectorised state machine for the batch annealers.

    Subclasses provide the accept rule: :meth:`_accept_coefficients` turns
    the schedule into one accept coefficient per iteration, once per run,
    and :meth:`_accept` applies the rule with that coefficient.  Everything
    else (state, local-field caching, rank-t proposal generation, best
    tracking, permutation mapping) is common.
    """

    def _init_common(
        self, model, replicas, flips_per_iteration, proposal, permutation, seed
    ) -> None:
        if proposal not in PROPOSAL_MODES:
            raise ValueError("proposal must be 'scan' or 'random'")
        self.model = model
        self.n = model.num_spins
        self.replicas = check_count("replicas", replicas)
        t = check_count("flips_per_iteration", flips_per_iteration)
        if t > self.n:
            raise ValueError(
                f"flips_per_iteration must be in [1, {self.n}], got {t}"
            )
        self.flips_per_iteration = t
        self.proposal = proposal
        self.permutation = permutation
        if permutation is None:
            self._fwd = self._bwd = None
        else:
            self._fwd, self._bwd = check_permutation(permutation, self.n)
        self._rng = ensure_rng(seed)

    def _proposal_tensor(self, iterations: int) -> np.ndarray:
        """(iterations, R, t) spin indices — scan sweeps or uniform draws.

        Indices are unique within each ``(iteration, replica)`` flip set
        and drawn in the caller's original spin space (mirroring
        :class:`~repro.core.proposal.FlipSelector` semantics, including the
        straddle-safe per-sweep carry); :meth:`run` maps them through the
        permutation.  For ``t == 1`` the RNG stream is identical to the
        historical single-flip engine.
        """
        rng = self._rng
        R, t = self.replicas, self.flips_per_iteration
        if self.proposal == "random":
            if t == 1:
                return rng.integers(self.n, size=(iterations, R))[..., None]
            flat = random_flip_sets(rng, self.n, iterations * R, t)
            return flat.reshape(iterations, R, t)
        streams = [
            scan_order(self.n, t, iterations * t, rng).reshape(iterations, t)
            for _ in range(R)
        ]
        return np.stack(streams, axis=1)

    def _accept_coefficients(self, schedule: Schedule) -> np.ndarray:
        """The accept rule's per-iteration coefficient, length ``iterations``."""
        raise NotImplementedError

    def _accept(self, cross, field_term, delta_e, coefficient, u) -> np.ndarray:
        """Per-replica accept mask, given this iteration's coefficient."""
        raise NotImplementedError

    def _initial_sigma(self, initial, rng) -> np.ndarray:
        """Validated (R, n) ±1 start state, in the caller's original space."""
        R, n = self.replicas, self.n
        if initial is None:
            return rng.choice(np.array([-1.0, 1.0]), size=(R, n))
        base = np.asarray(initial, dtype=np.float64)
        if base.shape == (n,):
            sigma = np.tile(base, (R, 1))
        elif base.shape == (R, n):
            # C order even for an F-ordered caller array: the sparse
            # field-update scatter aliases g through reshape(-1).
            sigma = np.ascontiguousarray(base)
            sigma = sigma.copy() if sigma is base else sigma
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

        The schedule is evaluated once, into one accept coefficient per
        iteration (:meth:`_accept_coefficients`); the loop itself only
        touches replica state.
        """
        iterations = check_count(
            "iterations", iterations,
            hint="the annealers need at least one proposal/accept step",
        )
        schedule = self._build_schedule(iterations)
        if schedule.iterations != iterations:
            raise ValueError("schedule length does not match iterations")
        coefficients = self._accept_coefficients(schedule)
        rng = self._rng
        ops = coupling_ops(self.model)
        h = self.model.h
        has_fields = self.model.has_fields
        R, n = self.replicas, self.n

        sigma = self._initial_sigma(initial, rng)
        if self._bwd is not None:
            # The random draw and a caller-supplied `initial` are in the
            # original spin space; gather into the internal ordering.  The
            # gather returns an F-ordered view — restore C order so the
            # cached-field scatter updates alias instead of copying.
            sigma = np.ascontiguousarray(sigma[:, self._bwd])
        # The replica spin tensor's layout is the backend's business:
        # FloatBatchState holds int8 spins, PackedBatchState uint64 words
        # with XOR flips; both gather float64 ±1.0.  The fields and the
        # initial-energy einsum come from the float draw, so they are the
        # same for every state layout.
        state = ops.make_batch_state(sigma)
        g = state.fields  # (R, n)
        energy = np.einsum("rn,rn->r", sigma, g) + sigma @ h + self.model.offset
        best_energy = energy.copy()
        accepted = np.zeros(R, dtype=np.int64)
        del sigma  # the state owns the replica spins from here on
        proposals = self._proposal_tensor(iterations)
        if self._fwd is not None:
            proposals = self._fwd[proposals]
        rows = np.arange(R)[:, None]

        for idx, coefficient in zip(proposals, coefficients):  # idx: (R, t)
            sig_f = state.gather(rows, idx)
            cross = ops.batch_cross_term(g, idx, sig_f)
            field_term = -(h[idx] * sig_f).sum(axis=1) if has_fields else 0.0
            delta_e = 4.0 * cross + 2.0 * field_term
            u = rng.random(R)
            accept = self._accept(cross, field_term, delta_e, coefficient, u)
            if accept.any():
                acc = np.flatnonzero(accept)
                cols = idx[acc]
                vals = sig_f[acc]
                ops.batch_update_fields(g, acc, cols, vals)
                state.flip(acc, cols, vals)
                energy[acc] += delta_e[acc]
                accepted[acc] += 1
                improved = acc[energy[acc] < best_energy[acc]]
                if improved.size:
                    best_energy[improved] = energy[improved]
                    state.record_best(improved)

        # Readouts hand configurations back in the caller's original
        # ordering (the state applies the forward permutation, if any).
        return BatchAnnealResult(
            best_energies=best_energy,
            best_sigmas=state.best_sigmas(self._fwd),
            final_energies=energy,
            final_sigmas=state.final_sigmas(self._fwd),
            accepted=accepted,
            iterations=iterations,
        )


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
        if acceptance_scale == "auto":
            self.acceptance_scale = auto_acceptance_scale(model)
        else:
            self.acceptance_scale = float(acceptance_scale)
            if self.acceptance_scale <= 0:
                raise ValueError("acceptance_scale must be positive")

    def _factor_at(self, temperature: float) -> float:
        if self.encoder is not None:
            return self.encoder.realized_factor(temperature)
        return float(self.factor.value(np.asarray(temperature)))

    def _build_schedule(self, iterations: int) -> Schedule:
        return self.schedule or VbgStepSchedule(iterations, factor=self.factor)

    def _accept_coefficients(self, schedule: Schedule) -> np.ndarray:
        """``f(T)`` per iteration, each entry equal to ``_factor_at(T)``.

        Temperatures come from ``schedule.profile()``, bit-identical to the
        per-iteration ``temperature(it)`` calls; ``_factor_at`` (encoder
        included) runs once per distinct temperature, as in
        :meth:`~repro.core.annealer.InSituAnnealer._drive_profile`.
        """
        temps = schedule.profile()
        levels, level_of = np.unique(temps, return_inverse=True)
        return np.array([self._factor_at(T) for T in levels])[level_of]

    def _accept(self, cross, field_term, delta_e, coefficient, u) -> np.ndarray:
        # ``coefficient`` is this iteration's f(T).  Same association as
        # the sequential rule — (x · f) · scale, not x · (f · scale) — so
        # accept decisions match the sequential annealer to the last ulp
        # at the comparison boundary.
        e_inc = (
            (cross + np.asarray(field_term) / 2.0)
            * coefficient
            * self.acceptance_scale
        )
        return (e_inc <= 0.0) | (e_inc <= u)


class BatchDirectEAnnealer(_BatchEngine):
    """R-replica vectorised direct-E Metropolis SA (rank-``t`` moves).

    The baseline algorithm at batch throughput — lets the 100-run Fig 10
    protocol run for both solver families.  Parameters mirror
    :class:`~repro.core.sa.DirectEAnnealer` (plus ``replicas`` and
    ``permutation`` as in :class:`BatchInSituAnnealer`).
    """

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
        from repro.core.sa import estimate_temperature_range
        from repro.core.schedule import GeometricSchedule

        t_start, t_end = estimate_temperature_range(
            self.model, seed=self._rng, permutation=self.permutation
        )
        return GeometricSchedule(iterations, t_start, t_end)

    def _accept_coefficients(self, schedule: Schedule) -> np.ndarray:
        """The temperature per iteration, floored like ``max(T, 1e-12)``."""
        return np.maximum(schedule.profile(), 1e-12)

    def _accept(self, cross, field_term, delta_e, coefficient, u) -> np.ndarray:
        # ``coefficient`` is this iteration's floored temperature.
        return (delta_e <= 0.0) | (
            u < np.exp(-np.maximum(delta_e, 0.0) / coefficient)
        )
