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
cooling schedule.  The loop is :class:`~repro.core.annealer.SequentialAnnealer`'s,
shared with Algorithm 1; only the accept rule is this module's.
"""

from __future__ import annotations

import numpy as np

from repro.core.annealer import SequentialAnnealer
from repro.core.coupling import coupling_ops
from repro.core.schedule import GeometricSchedule, Schedule
from repro.ising.model import IsingModel
from repro.ising.sparse import SparseIsingModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_count, check_permutation


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


def default_schedule(model, iterations: int, rng, permutation=None) -> GeometricSchedule:
    """The baselines' auto-tuned geometric cooling over ``iterations``.

    Draws :func:`estimate_temperature_range`'s probe from ``rng`` — the
    first draw of every SA run that is not handed a schedule.
    """
    t_start, t_end = estimate_temperature_range(model, seed=rng, permutation=permutation)
    return GeometricSchedule(iterations, t_start, t_end)


class DirectEAnnealer(SequentialAnnealer):
    """Metropolis simulated annealing with the direct-E transformation.

    Parameters
    ----------
    model:
        The Ising model to minimise, on either backend.
    flips_per_iteration:
        Spins flipped per proposal (baselines use 1, the classic move).
    schedule:
        Cooling schedule; default is an auto-tuned geometric one
        (:func:`default_schedule`).
    proposal:
        ``"random"`` (default — textbook Metropolis, as in the baseline
        annealers) or ``"scan"``.
    iteration_hook:
        Fired after each accept decision (the baseline machines book their
        hardware costs here).
    permutation / record_trace / seed:
        As in :class:`~repro.core.annealer.SequentialAnnealer`.
    """

    name = "direct-E SA annealer"
    exponent_per_uphill = True

    def _default_schedule(self, iterations: int) -> Schedule:
        return default_schedule(self.model, iterations, self._rng, self.permutation)

    def _accept_rule(self, schedule, temperatures, sigma):
        """``ΔE <= 0 or rand < exp(-ΔE / max(T, 1e-12))``: one draw per uphill move."""
        floors = np.maximum(temperatures, 1e-12).tolist()
        random = self._rng.random

        def accept(it, flips, sig_f, cross, field_term, delta_e):
            return delta_e <= 0.0 or random() < np.exp(-delta_e / floors[it])

        return accept
