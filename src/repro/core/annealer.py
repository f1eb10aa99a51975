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

Algorithm 1 and its direct-E SA baseline (:mod:`repro.core.sa`) differ
only in the accept step, so both run :class:`SequentialAnnealer`'s one
loop; each supplies a default schedule and a per-run accept rule.

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
from repro.core.proposal import PROPOSAL_MODES, FlipSelector
from repro.core.results import AnnealResult
from repro.core.schedule import Schedule, VbgStepSchedule
from repro.ising.model import IsingModel
from repro.ising.sparse import SparseIsingModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_choice,
    check_count,
    check_flips,
    check_positive,
    check_spin_vector,
    permutation_maps,
)


def resolve_acceptance_scale(acceptance_scale, model) -> float:
    """The in-situ read-out gain: ``"auto"`` or a finite positive number."""
    if acceptance_scale == "auto":
        return auto_acceptance_scale(model)
    return check_positive("acceptance_scale", acceptance_scale)


def factor_profile(temperatures, factor: FractionalFactor, encoder) -> np.ndarray:
    """``f(T)`` per iteration: the encoder's realised factor, else ``f``.

    One array call over the distinct temperatures, elementwise equal to
    the scalar calls.
    """
    levels, level_of = np.unique(temperatures, return_inverse=True)
    f = factor.value if encoder is None else encoder.realized_factor
    return f(levels)[level_of]


class SequentialAnnealer:
    """The one sequential flip loop of the in-situ and SA annealers.

    Each iteration draws a flip set (:class:`FlipSelector`), forms
    ``ΔE = 4·σ_rᵀJσ_c + 2·(field term)`` from the cached local fields,
    asks the accept rule and, on acceptance, applies the rank-``t``
    update of state, fields and running energy.  The loop owns the start
    state, the permutation mapping, best tracking, the traces and the
    ``iteration_hook``.  A subclass supplies three things:

    * ``_default_schedule(iterations)``;
    * ``_accept_rule(schedule, temperatures, sigma)``, called once per
      run, which returns ``accept(it, flips, sig_f, cross, field_term,
      delta_e)``.  ``temperatures`` is ``schedule.profile()``; ``sigma``
      is the live state, which the loop flips in place on acceptance;
    * ``metadata_keys``, the attributes its results report as metadata.

    The defaults are textbook Metropolis (single random flips), the
    direct-E baseline's.

    Parameters
    ----------
    model:
        The Ising model to minimise — dense
        :class:`~repro.ising.model.IsingModel` or
        :class:`~repro.ising.sparse.SparseIsingModel`; trajectories
        coincide across backends for a fixed seed.
    flips_per_iteration:
        ``t = |F|``, the constant flip-set size.
    schedule:
        Temperature schedule of ``iterations`` steps; default is the
        subclass's.  Its temperatures are read once per run.
    proposal:
        ``"random"`` draws flip sets independently each iteration
        (classic Metropolis); ``"scan"`` walks a per-sweep random
        permutation — the hardware-natural sequential address counter,
        which visits every spin once per sweep.
    iteration_hook:
        Optional callable ``hook(iteration, delta_e, accepted,
        temperature)`` fired after each accept decision.
    permutation:
        Optional :class:`~repro.core.reorder.Permutation` (or raw
        ``forward`` array) declaring that ``model`` is a relabelled view of
        the caller's problem.  Proposal indices and the initial
        configuration are drawn in the caller's *original* spin space and
        mapped through the permutation, and the returned configurations are
        mapped back — so the RNG stream, accept decisions and results are
        layout-independent (bit-identical to the unpermuted solve for
        dyadic couplings, where all sums are exact in any order).
    record_trace:
        Record the current and best energy after every iteration.
    seed:
        RNG seed (schedule probe, start state, flip selection and
        acceptance draws).
    """

    metadata_keys = ("flips_per_iteration", "proposal")
    #: Each uphill proposal costs one ``e^x`` evaluation (the Metropolis
    #: baselines); reported as ``exponent_evaluations``.
    exponent_per_uphill = False

    def __init__(
        self,
        model: IsingModel | SparseIsingModel,
        flips_per_iteration: int = 1,
        schedule: Schedule | None = None,
        proposal: str = "random",
        iteration_hook=None,
        permutation=None,
        record_trace: bool = False,
        seed=None,
    ) -> None:
        self.model = model
        self.n = model.num_spins
        self._ops = coupling_ops(model)
        self.flips_per_iteration = check_flips(flips_per_iteration, self.n)
        self.schedule = schedule
        self.proposal = check_choice("proposal", proposal, PROPOSAL_MODES)
        self.iteration_hook = iteration_hook
        self.permutation = permutation
        self._fwd, self._bwd = permutation_maps(permutation, self.n)
        self.record_trace = bool(record_trace)
        self._rng = ensure_rng(seed)

    def _build_schedule(self, iterations: int) -> Schedule:
        if self.schedule is None:
            return self._default_schedule(iterations)
        if self.schedule.iterations != iterations:
            raise ValueError("schedule length does not match iterations")
        return self.schedule

    def run(self, iterations: int, initial=None) -> AnnealResult:
        """Execute the annealing flow and return the result.

        Parameters
        ----------
        iterations:
            Number of proposal/accept iterations (the paper's per-size
            budgets live in ``repro.ising.PAPER_ITERATIONS``).
        initial:
            Optional starting ±1 configuration (default: uniform random),
            in the caller's original spin space.
        """
        iterations = check_count(
            "iterations", iterations,
            hint="the annealers need at least one proposal/accept step",
        )
        schedule = self._build_schedule(iterations)
        rng = self._rng
        ops = self._ops
        h = self.model.h

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
        selector = FlipSelector(
            self.n, self.flips_per_iteration, self.proposal, rng, index_map=self._fwd
        )
        profile = schedule.profile()
        temperatures = profile.tolist()
        accept_rule = self._accept_rule(schedule, profile, sigma)
        hook = self.iteration_hook

        for it in range(iterations):
            flips = selector.next()
            # σ_rᵀ J σ_c through the cached local fields: for each flipped
            # column j, subtract the contribution of other flipped rows.
            sig_f = sigma[flips]
            cross = ops.cross_term(g, flips, sig_f)
            field_term = float(-(h[flips] * sig_f).sum()) if has_fields else 0.0
            delta_e = 4.0 * cross + 2.0 * field_term

            if delta_e > 0:
                uphill_proposals += 1
            accept = accept_rule(it, flips, sig_f, cross, field_term, delta_e)
            if accept:
                accepted += 1
                if delta_e > 0:
                    uphill_accepted += 1
                # Rank-t update of state, fields and running energy.
                ops.update_fields(g, flips, sig_f)
                sigma[flips] = -sig_f
                energy += delta_e
                if energy < best_energy:
                    best_energy = energy
                    best_sigma = sigma.copy()
            if hook is not None:
                hook(it, delta_e, accept, temperatures[it])
            if trace is not None:
                trace[it] = energy
                best_trace[it] = best_energy

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
            exponent_evaluations=uphill_proposals if self.exponent_per_uphill else 0,
            energy_trace=trace,
            best_trace=best_trace,
            metadata={key: getattr(self, key) for key in self.metadata_keys},
        )


class InSituAnnealer(SequentialAnnealer):
    """Algorithm 1: tunable back-gate in-situ annealing.

    Parameters
    ----------
    model:
        The Ising model to minimise, on either backend (fields are folded
        in exactly through the ``2hᵀσ_c`` term).
    flips_per_iteration:
        ``t = |F|`` (paper keeps it constant so the VMV stays O(n)).
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
        ``"scan"`` (default) or ``"random"``; the proposal ablation bench
        quantifies the difference.
    iteration_hook / permutation / record_trace / seed:
        As in :class:`SequentialAnnealer`.  The in-situ CiM machine books
        its costs from the ``evaluator`` calls, not the hook.
    """

    name = "in-situ CiM annealer"
    metadata_keys = ("flips_per_iteration", "acceptance_scale", "factor", "proposal")

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
        record_trace: bool = False,
        seed=None,
    ) -> None:
        super().__init__(
            model, flips_per_iteration, schedule, proposal, iteration_hook,
            permutation, record_trace, seed,
        )
        self.factor = factor or FractionalFactor()
        self.encoder = encoder
        self.acceptance_scale = resolve_acceptance_scale(acceptance_scale, model)
        self.evaluator = evaluator

    def _default_schedule(self, iterations: int) -> Schedule:
        return VbgStepSchedule(iterations, factor=self.factor)

    def _vbg_profile(self, schedule: Schedule, temperatures) -> list:
        """Per-iteration ``V_BG`` handed to the evaluator.

        The BG encoder picks the rail level realising f(T) on the physical
        transfer curve (paper Fig 3c), once per distinct temperature;
        without one, a schedule with its own ``vbg`` walk supplies the
        level, and otherwise the linear T → V_BG map does.
        """
        vbg = getattr(schedule, "vbg", None)
        if self.encoder is None and vbg is not None:
            return [float(vbg(it)) for it in range(len(temperatures))]
        levels, level_of = np.unique(temperatures, return_inverse=True)
        encode = self.factor.vbg_for_temperature if self.encoder is None else self.encoder.encode
        return np.array([float(encode(T)) for T in levels])[level_of].tolist()

    def _accept_rule(self, schedule, temperatures, sigma):
        factors = factor_profile(temperatures, self.factor, self.encoder).tolist()
        scale = self.acceptance_scale
        random = self._rng.random
        evaluator = self.evaluator
        if evaluator is None:
            def accept(it, flips, sig_f, cross, field_term, delta_e):
                e_inc = (cross + field_term / 2.0) * factors[it] * scale
                return e_inc <= 0.0 or e_inc <= random()

            return accept

        vbgs = self._vbg_profile(schedule, temperatures)
        # σ_r = σ with the flipped rows deselected, σ_c = −σ on the
        # flipped columns (`incremental_vectors`), kept between proposals
        # and patched only at the flips.
        sigma_r = sigma.copy()
        sigma_c = np.zeros(self.n, dtype=np.float64)

        def accept(it, flips, sig_f, cross, field_term, delta_e):
            sigma_c[flips] = -sig_f
            sigma_r[flips] = 0.0
            sensed = evaluator(sigma, flips, sigma_r, sigma_c, vbgs[it])
            sigma_c[flips] = 0.0
            # Field contribution scaled like the sensed part (a field is
            # physically an ancilla row passing through the same array).
            e_inc = (sensed + field_term / 2.0 * factors[it]) * scale
            accepted = e_inc <= 0.0 or e_inc <= random()
            # σ_r tracks σ as the loop leaves it: flipped if accepted.
            sigma_r[flips] = -sig_f if accepted else sig_f
            return accepted

        return accept
