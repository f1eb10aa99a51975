"""The in-situ annealing flow — Algorithm 1 of the paper.

Each iteration: select ``t = |F|`` spins, form ``σ_new``/``σ_r``/``σ_c``,
evaluate ``E_inc = σ_rᵀJσ_c · f(T)`` (in hardware: one crossbar activation),
then accept when ``E_inc ≤ 0`` or when ``E_inc ≤ rand(0, 1)``; finally step
the temperature along the back-gate schedule.

This module is the *software reference*: it computes exactly what the
behavioural crossbar computes, but with O(t) local-field arithmetic per
proposal so the 3000-spin / 100 000-iteration benches run in seconds.  The
hardware-in-the-loop variant (:mod:`repro.arch.cim_annealer`) plugs a
crossbar in through the ``evaluator`` hook and inherits the identical
proposal/acceptance logic, so software and hardware trajectories coincide
for ideal arrays.

Reproduction notes (DESIGN.md §2):

* the run tracks the best configuration seen — the controller keeps the
  running energy up to date at O(1)/iteration anyway (``E ← E + ΔE``);
* ``acceptance_scale`` is the sensed-value gain of the read-out chain (the
  comparison against ``rand(0,1)`` happens in normalised hardware units, so
  the current-to-digital scaling is a free design parameter; ``"auto"``
  picks a gain that makes the smallest coupling step significant).
"""

from __future__ import annotations

import numpy as np

from repro.core.coupling import auto_acceptance_scale, coupling_ops
from repro.core.factors import FractionalFactor, VbgEncoder
from repro.core.proposal import FlipSelector
from repro.core.results import AnnealResult
from repro.core.schedule import Schedule, VbgStepSchedule
from repro.ising.model import IsingModel
from repro.ising.sparse import SparseIsingModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_count,
    check_permutation,
    check_spin_vector,
)


class InSituAnnealer:
    """Algorithm 1: tunable back-gate in-situ annealing.

    Parameters
    ----------
    model:
        The Ising model to minimise (fields are folded in exactly through
        the ``2hᵀσ_c`` term).  Either backend works — a dense
        :class:`~repro.ising.model.IsingModel` or a
        :class:`~repro.ising.sparse.SparseIsingModel`; trajectories
        coincide across backends for a fixed seed.
    flips_per_iteration:
        ``t = |F|``, the constant flip-set size (paper keeps it constant so
        the VMV stays O(n)).
    factor:
        The fractional annealing factor; default is the published one.
    schedule:
        Back-gate schedule; default walks 0.7 V → 0 V evenly over the run.
    encoder:
        Optional :class:`VbgEncoder` realising ``f`` through a device
        transfer curve (adds the 10 mV quantisation of the real rail).
    acceptance_scale:
        Read-out gain applied to ``E_inc`` before the ``rand`` comparison,
        or ``"auto"``.
    evaluator:
        Optional hardware hook ``evaluator(sigma, flips, sigma_r, sigma_c,
        v_bg) -> sensed value`` replacing the exact ``σ_rᵀJσ_c · f``
        computation (used by the CiM machine).  It is called exactly once
        per iteration.  ``sigma_r``/``sigma_c`` are scratch buffers the
        annealer owns and patches in O(t) per proposal: they are valid
        only during the call, and the hook must neither keep nor modify
        them.
    proposal:
        ``"scan"`` (default) walks a per-sweep random permutation — the
        hardware-natural sequential address counter, which guarantees every
        spin is visited once per sweep; ``"random"`` draws flip sets
        independently each iteration (classic Metropolis).  The proposal
        ablation bench quantifies the difference.
    iteration_hook:
        Optional callable ``hook(iteration, delta_e, accepted, temperature)``
        fired after each accept decision.  The in-situ CiM machine does not
        use it: it records its costs from the ``evaluator`` calls.
    permutation:
        Optional :class:`~repro.core.reorder.Permutation` (or raw
        ``forward`` array) declaring that ``model`` is a relabelled view of
        the caller's problem.  Proposal indices and the initial
        configuration are drawn in the caller's *original* spin space and
        mapped through the permutation, and the returned configurations are
        mapped back — so the RNG stream, accept decisions and results are
        layout-independent (bit-identical to the unpermuted solve for
        dyadic couplings, where all sums are exact in any order).
    track_best / record_trace:
        Bookkeeping switches.
    seed:
        RNG seed (flip selection and acceptance draws).
    """

    name = "in-situ CiM annealer"

    def __init__(
        self,
        model: IsingModel | SparseIsingModel,
        flips_per_iteration: int = 1,
        factor: FractionalFactor | None = None,
        schedule: Schedule | None = None,
        encoder: VbgEncoder | None = None,
        acceptance_scale: float | str = "auto",
        evaluator=None,
        proposal: str = "scan",
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
        self.factor = factor or FractionalFactor()
        self.schedule = schedule
        self.encoder = encoder
        if acceptance_scale == "auto":
            self.acceptance_scale = auto_acceptance_scale(model)
        else:
            self.acceptance_scale = float(acceptance_scale)
            if self.acceptance_scale <= 0:
                raise ValueError("acceptance_scale must be positive")
        self.evaluator = evaluator
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

    # ------------------------------------------------------------------
    def _build_schedule(self, iterations: int) -> Schedule:
        if self.schedule is not None:
            if self.schedule.iterations != iterations:
                raise ValueError(
                    "schedule length does not match requested iterations"
                )
            return self.schedule
        return VbgStepSchedule(iterations, factor=self.factor)

    def _vbg_at(self, temperature: float) -> float:
        # The BG encoder picks the rail level realising f(T) on the
        # physical transfer curve (paper Fig 3c); without one, fall back
        # to the linear T → V_BG map.
        if self.encoder is not None:
            return self.encoder.encode(temperature)
        return float(self.factor.vbg_for_temperature(temperature))

    def _drive_profile(self, schedule: Schedule):
        """Per-iteration ``(temperature, factor, V_BG)`` as Python lists.

        Temperatures come from ``schedule.profile()``, bit-identical to
        the per-iteration ``temperature(it)`` calls (the stacked lanes of
        :mod:`repro.core.blockstack` rely on the same contract).  The
        factor (the encoder's realised factor when one is set) is one
        array call over the distinct temperatures, elementwise equal to
        the scalar calls; the rail level is evaluated once per distinct
        temperature.  A schedule with its own ``vbg`` walk supplies the
        rail level directly when no encoder is set.  ``V_BG`` is only
        needed with an evaluator, and is ``None`` otherwise.
        """
        temps = schedule.profile()
        levels, level_of = np.unique(temps, return_inverse=True)
        factor = self.factor.value if self.encoder is None else self.encoder.realized_factor
        factors = factor(levels)[level_of]
        vbgs = None
        if self.evaluator is not None:
            vbg_fn = getattr(schedule, "vbg", None)
            if self.encoder is None and vbg_fn is not None:
                vbgs = [float(vbg_fn(it)) for it in range(len(temps))]
            else:
                by_level = np.array([self._vbg_at(T) for T in levels])
                vbgs = by_level[level_of].tolist()
        return temps.tolist(), factors.tolist(), vbgs

    # ------------------------------------------------------------------
    def run(self, iterations: int, initial=None) -> AnnealResult:
        """Execute the annealing flow and return the result.

        Parameters
        ----------
        iterations:
            Number of proposal/accept iterations (the paper's per-size
            budgets live in ``repro.ising.PAPER_ITERATIONS``).
        initial:
            Optional starting ±1 configuration (default: uniform random).
        """
        iterations = check_count(
            "iterations", iterations,
            hint="the annealers need at least one proposal/accept step",
        )
        schedule = self._build_schedule(iterations)
        rng = self._rng
        ops = self._ops
        h = self.model.h
        t = self.flips_per_iteration

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
        trace = np.empty(iterations, dtype=np.float64) if self.record_trace else None
        best_trace = np.empty(iterations, dtype=np.float64) if self.record_trace else None
        has_fields = self.model.has_fields
        selector = FlipSelector(self.n, t, self.proposal, rng, index_map=self._fwd)
        temperatures, factors, vbgs = self._drive_profile(schedule)
        evaluator = self.evaluator
        if evaluator is not None:
            # σ_r = σ with the flipped rows deselected, σ_c = −σ on the
            # flipped columns (`incremental_vectors`), kept between
            # proposals and patched only at the flips.
            sigma_r = sigma.copy()
            sigma_c = np.zeros(self.n, dtype=np.float64)

        for it in range(iterations):
            temperature = temperatures[it]
            f_value = factors[it]
            flips = selector.next()

            # σ_rᵀ J σ_c through the cached local fields: for each flipped
            # column j, subtract the contribution of other flipped rows.
            sig_f = sigma[flips]
            cross = ops.cross_term(g, flips, sig_f)
            field_term = float(-(h[flips] * sig_f).sum()) if has_fields else 0.0
            delta_e = 4.0 * cross + 2.0 * field_term

            if evaluator is not None:
                sigma_c[flips] = -sig_f
                sigma_r[flips] = 0.0
                sensed = evaluator(sigma, flips, sigma_r, sigma_c, vbgs[it])
                sigma_c[flips] = 0.0
                # Field contribution scaled like the sensed part (a field is
                # physically an ancilla row passing through the same array).
                e_inc = (sensed + field_term / 2.0 * f_value) * self.acceptance_scale
            else:
                e_inc = (cross + field_term / 2.0) * f_value * self.acceptance_scale

            if delta_e > 0:
                uphill_proposals += 1
            accept = e_inc <= 0.0 or e_inc <= rng.random()
            if accept:
                accepted += 1
                if delta_e > 0:
                    uphill_accepted += 1
                # Rank-t update of state, fields and running energy.
                ops.update_fields(g, flips, sig_f)
                sigma[flips] = -sig_f
                energy += delta_e
                if self.track_best and energy < best_energy:
                    best_energy = energy
                    best_sigma = sigma.copy()
            if evaluator is not None:
                sigma_r[flips] = sigma[flips]
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
            exponent_evaluations=0,
            energy_trace=trace,
            best_trace=best_trace,
            metadata={
                "flips_per_iteration": t,
                "acceptance_scale": self.acceptance_scale,
                "factor": self.factor,
                "proposal": self.proposal,
            },
        )
