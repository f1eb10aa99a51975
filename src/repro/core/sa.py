"""Direct-E simulated annealing — the algorithm of the baseline annealers.

The CiM/FPGA and CiM/ASIC baselines (paper Fig 1b, Sec. 4) run conventional
SA: each iteration recomputes the *full* energy ``E_new = σ_newᵀJσ_new`` on
the crossbar (O(n²) product terms), takes ``ΔE = E_new − E`` in digital, and
accepts uphill moves with probability ``exp(−ΔE/T)`` evaluated on dedicated
exponent hardware [18].

This software reference computes ΔE with the cheap local-field identity
(mathematically identical — the O(n²) cost is a *hardware* property that
the architecture ledgers account for), counts the uphill proposals that
trigger ``e^x`` evaluations, and uses a standard auto-tuned geometric
cooling schedule.
"""

from __future__ import annotations

import numpy as np

from repro.core.coupling import coupling_ops
from repro.core.proposal import FlipSelector
from repro.core.results import AnnealResult
from repro.core.schedule import GeometricSchedule, Schedule
from repro.ising.model import IsingModel
from repro.ising.sparse import SparseIsingModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_count,
    check_permutation,
    check_spin_vector,
)


def estimate_temperature_range(
    model: IsingModel | SparseIsingModel,
    samples: int = 200,
    p_start: float = 0.8,
    p_end: float = 0.002,
    seed=None,
    permutation=None,
) -> tuple[float, float]:
    """Standard SA temperature auto-tuning.

    Samples ``samples`` (a positive count) single-flip |ΔE| from a random
    configuration and picks ``T_start``/``T_end`` so a mean uphill move
    is accepted with probability ``p_start`` at the beginning and
    ``p_end`` at the end.  The samples are one array pass in the
    association of ``model.delta_energy_single``, so each equals that
    method's value byte for byte, with the configuration validated once.
    When ``model`` is a relabelled view (see :class:`DirectEAnnealer`'s
    ``permutation``), the configuration and sample indices are drawn in
    the original spin space and mapped through the permutation, so the
    estimate — and the RNG stream — match the unpermuted model's exactly.
    """
    if not 0 < p_end < p_start < 1:
        raise ValueError("need 0 < p_end < p_start < 1")
    samples = check_count("samples", samples)
    rng = ensure_rng(seed)
    sigma = model.random_configuration(rng)
    idx = rng.integers(model.num_spins, size=samples)
    if permutation is not None:
        fwd, bwd = check_permutation(permutation, model.num_spins)
        sigma = sigma[bwd]
        idx = fwd[idx]
    g = model.local_fields(sigma)  # validates the configuration once
    s = sigma[idx].astype(np.float64)
    d = coupling_ops(model).diag()[idx]
    deltas = (-4.0 * s) * (g[idx] - d * s) - (2.0 * model.h[idx]) * s
    positive = np.abs(deltas[deltas != 0])
    mean_up = float(positive.mean()) if positive.size else 1.0
    t_start = mean_up / np.log(1.0 / p_start)
    t_end = mean_up / np.log(1.0 / p_end)
    return max(t_start, 1e-9), max(min(t_end, t_start), 1e-12)


class DirectEAnnealer:
    """Metropolis simulated annealing with the direct-E transformation.

    Parameters
    ----------
    model:
        The Ising model to minimise — dense
        :class:`~repro.ising.model.IsingModel` or
        :class:`~repro.ising.sparse.SparseIsingModel` backend.
    flips_per_iteration:
        Spins flipped per proposal (baselines use 1, the classic move).
    schedule:
        Cooling schedule; default is an auto-tuned geometric one.
    proposal:
        ``"random"`` (default — textbook Metropolis, as in the baseline
        annealers) or ``"scan"``.
    iteration_hook:
        Optional ``hook(iteration, delta_e, accepted, temperature)`` fired
        after each accept decision (hardware cost booking).
    permutation:
        Optional :class:`~repro.core.reorder.Permutation` declaring that
        ``model`` is a relabelled view of the caller's problem; proposals
        and the initial configuration are drawn in the original spin space
        and results are mapped back (see
        :class:`repro.core.annealer.InSituAnnealer`).
    track_best / record_trace / seed:
        As in :class:`repro.core.annealer.InSituAnnealer`.
    """

    name = "direct-E SA annealer"

    def __init__(
        self,
        model: IsingModel | SparseIsingModel,
        flips_per_iteration: int = 1,
        schedule: Schedule | None = None,
        proposal: str = "random",
        iteration_hook=None,
        permutation=None,
        track_best: bool = True,
        record_trace: bool = False,
        seed=None,
    ) -> None:
        self.model = model
        self.n = model.num_spins
        self._ops = coupling_ops(model)
        t = check_count("flips_per_iteration", flips_per_iteration)
        if t > self.n:
            raise ValueError(f"flips_per_iteration must be in [1, {self.n}]")
        self.flips_per_iteration = t
        self.schedule = schedule
        self.proposal = proposal
        self.iteration_hook = iteration_hook
        self.permutation = permutation
        if permutation is None:
            self._fwd = self._bwd = None
        else:
            self._fwd, self._bwd = check_permutation(permutation, self.n)
        self.track_best = bool(track_best)
        self.record_trace = bool(record_trace)
        self._rng = ensure_rng(seed)

    def _build_schedule(self, iterations: int) -> Schedule:
        if self.schedule is not None:
            if self.schedule.iterations != iterations:
                raise ValueError("schedule length does not match iterations")
            return self.schedule
        t_start, t_end = estimate_temperature_range(
            self.model, seed=self._rng, permutation=self.permutation
        )
        return GeometricSchedule(iterations, t_start, t_end)

    def run(self, iterations: int, initial=None) -> AnnealResult:
        """Execute the SA run and return the result."""
        iterations = check_count(
            "iterations", iterations,
            hint="the annealers need at least one proposal/accept step",
        )
        schedule = self._build_schedule(iterations)
        rng = self._rng
        ops = self._ops
        h = self.model.h
        t = self.flips_per_iteration
        has_fields = self.model.has_fields

        if initial is None:
            sigma = self.model.random_configuration(rng).astype(np.float64)
        else:
            sigma = check_spin_vector(initial, self.n).astype(np.float64)
        if self._bwd is not None:
            # Both the random draw and a caller-supplied `initial` are in
            # the original spin space; gather into the internal ordering.
            sigma = sigma[self._bwd]
        g = ops.local_fields(sigma)
        energy = float(sigma @ g + h @ sigma) + self.model.offset
        best_energy = energy
        best_sigma = sigma.copy()

        accepted = 0
        uphill_accepted = 0
        uphill_proposals = 0
        exponent_evaluations = 0
        trace = np.empty(iterations, dtype=np.float64) if self.record_trace else None
        best_trace = np.empty(iterations, dtype=np.float64) if self.record_trace else None
        selector = FlipSelector(self.n, t, self.proposal, rng, index_map=self._fwd)

        for it in range(iterations):
            temperature = schedule.temperature(it)
            flips = selector.next()
            sig_f = sigma[flips]
            cross = ops.cross_term(g, flips, sig_f)
            field_term = float(-(h[flips] * sig_f).sum()) if has_fields else 0.0
            delta_e = 4.0 * cross + 2.0 * field_term

            if delta_e <= 0.0:
                accept = True
            else:
                uphill_proposals += 1
                exponent_evaluations += 1
                accept = rng.random() < np.exp(-delta_e / max(temperature, 1e-12))
            if accept:
                accepted += 1
                if delta_e > 0:
                    uphill_accepted += 1
                ops.update_fields(g, flips, sig_f)
                sigma[flips] = -sig_f
                energy += delta_e
                if self.track_best and energy < best_energy:
                    best_energy = energy
                    best_sigma = sigma.copy()
            if self.iteration_hook is not None:
                self.iteration_hook(it, delta_e, accept, temperature)
            if trace is not None:
                trace[it] = energy
                best_trace[it] = best_energy

        if not self.track_best or energy < best_energy:
            best_energy = energy
            best_sigma = sigma.copy()
        if self._fwd is not None:
            # Hand configurations back in the caller's original ordering.
            sigma = sigma[self._fwd]
            best_sigma = best_sigma[self._fwd]
        return AnnealResult(
            solver=self.name,
            sigma=sigma.astype(np.int8),
            energy=energy,
            best_sigma=best_sigma.astype(np.int8),
            best_energy=best_energy,
            iterations=iterations,
            accepted=accepted,
            uphill_accepted=uphill_accepted,
            uphill_proposals=uphill_proposals,
            exponent_evaluations=exponent_evaluations,
            energy_trace=trace,
            best_trace=best_trace,
            metadata={"flips_per_iteration": t, "proposal": self.proposal},
        )
