"""Simulated-bifurcation (SB) solvers on the coupling-ops stack.

The ferroelectric CiM device lineage has a sibling machine that runs
simulated bifurcation instead of single-flip annealing on the same
crossbar (arXiv 2512.17165): each step evaluates one coupling
matrix–vector product and updates every spin's continuous position at
once.  This module implements the two standard Goto-style variants:

* **bSB** (ballistic): the matvec sees the continuous positions ``x``;
* **dSB** (discrete): the matvec sees the sign readout ``sign(x)`` —
  the stronger Max-Cut heuristic of the two, and the default.

Both integrate the same symplectic-Euler system for ``R`` replicas held
as ``(R, n)`` position/momentum tensors::

    y ← y + dt · [ (a(t) − a0) · x − c0 · (2 J z + h) ]     z = x or sign(x)
    x ← x + dt · a0 · y

with a linear bifurcation-parameter ramp ``a(t): 0 → a0`` and perfectly
inelastic walls: any position crossing ``|x| > 1`` is clamped to the wall
and its momentum zeroed.  ``−(2 J x + h)`` is the exact downhill gradient
of the model energy ``E(σ) = σᵀJσ + hᵀσ``, so minimising ``E`` needs no
sign gymnastics.  The inner loop costs exactly one
:meth:`~repro.core.coupling.DenseCouplingOps.batch_matvec` per step — the
op this PR adds to both coupling backends — so SB inherits the dense /
CSR backend transparency, O(nnz) sparse evaluation and (through
``matvec=``) the tiled crossbar's digitally-combined behavioral MVM.

Reproducibility contract: every non-matvec operation is elementwise, so
for dyadic couplings the dSB trajectory (whose matvec inputs are always
±1) is bit-identical across the dense, sparse and behavioral-tiled
backends; bSB feeds continuous positions whose summation order differs
per backend, so it is bit-identical only while all partial sums are
exactly representable (tests pin both regimes).

Like the flip engines, an optional ``permutation`` declares the model a
relabelled view of the caller's problem: initial positions are drawn in
the caller's original spin space and every returned configuration is
mapped back, so reordered SB solves are layout-independent.

``accepted`` in the returned results counts *wall-contact steps* per
replica (iterations in which at least one position hit the inelastic
wall) — SB has no Metropolis accept/reject, and the wall-hit count is
the closest dynamical analogue of annealing activity.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import BatchAnnealResult
from repro.core.coupling import coupling_ops
from repro.core.results import AnnealResult
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_choice,
    check_count,
    check_initial,
    check_iterations,
    check_model,
    check_positive,
    permutation_maps,
)

#: Accepted spellings of the two variants (canonical names first).
SB_VARIANTS = ("ballistic", "discrete", "bsb", "dsb")

_CANONICAL = {
    "ballistic": "ballistic",
    "bsb": "ballistic",
    "discrete": "discrete",
    "dsb": "discrete",
}

_LABEL = {"ballistic": "bSB", "discrete": "dSB"}


def _sign_readout(x: np.ndarray) -> np.ndarray:
    """±1 spin readout of a position tensor (``sign(0) → +1``)."""
    return np.where(x < 0.0, -1.0, 1.0)


class SbEngine:
    """Batched ballistic / discrete simulated bifurcation.

    Parameters
    ----------
    model:
        The Ising model to minimise — either coupling backend (fields
        supported through the gradient term).
    replicas:
        Number of independent trajectories ``R`` advanced as one
        ``(R, n)`` tensor.
    variant:
        ``"discrete"``/``"dsb"`` (default) or ``"ballistic"``/``"bsb"``.
        The two differ *only* in what the matvec sees (§ module doc).
    dt:
        Symplectic-Euler time step (dyadic default keeps elementwise
        updates exactly representable as long as the inputs are).
    a0:
        Final value of the bifurcation-parameter ramp ``a(t)``.
    c0:
        Coupling strength; ``"auto"`` (default) uses Goto's scaling
        ``0.5 / (rms(2 J_offdiag) · √n)`` over the nonzero off-diagonal
        couplings — the same multiset on both backends, so the auto
        value is backend-independent for dyadic couplings.
    best_every:
        Best-energy readout period.  Defaults to 1 for dSB (its readout
        energy falls out of the step's own matvec for free) and 10 for
        bSB (each readout costs one extra matvec).  The final state is
        always evaluated.
    permutation:
        Optional :class:`~repro.core.reorder.Permutation` (or raw
        forward array) declaring ``model`` a relabelled view; positions
        are drawn and returned in the caller's original spin space.
    matvec:
        Optional override serving the batched coupling product — a
        callable mapping ``(R, n) → (R, n)``.  The tiled-machine path
        passes :meth:`~repro.arch.tiling.TiledCrossbar.batch_matvec`
        here so the SB inner loop runs on the digitally-combined
        behavioral MVM of the crossbar grid.
    seed:
        RNG seed (numpy Generator protocol, as everywhere else).
    """

    def __init__(
        self,
        model,
        replicas: int = 1,
        variant: str = "discrete",
        dt: float = 0.5,
        a0: float = 1.0,
        c0: float | str = "auto",
        best_every: int | None = None,
        permutation=None,
        matvec=None,
        seed=None,
    ) -> None:
        self.variant = _CANONICAL[check_choice("variant", variant, SB_VARIANTS)]
        check_model(model)
        self.model = model
        self.n = model.num_spins
        self.replicas = check_count("replicas", replicas)
        self.dt = check_positive("dt", dt)
        self.a0 = check_positive("a0", a0)
        self._ops = coupling_ops(model)
        self._matvec = matvec if matvec is not None else self._ops.batch_matvec
        if c0 == "auto":
            self.c0 = self._auto_c0()
        else:
            self.c0 = check_positive("c0", c0)
        if best_every is None:
            best_every = 1 if self.variant == "discrete" else 10
        self.best_every = check_count("best_every", best_every)
        self.permutation = permutation
        self._fwd, self._bwd = permutation_maps(permutation, self.n)
        self._rng = ensure_rng(seed)

    @property
    def variant_label(self) -> str:
        """Conventional short name: ``"bSB"`` or ``"dSB"``."""
        return _LABEL[self.variant]

    def _auto_c0(self) -> float:
        """Goto's coupling-strength scaling from the nonzero |J_ij|.

        Both coupling adapters feed the same multiset of nonzero
        off-diagonal magnitudes in (and squares of dyadic values sum
        exactly, order-independently), so the auto value — hence the
        whole trajectory — is backend-independent for dyadic couplings.
        """
        off = self._ops.offdiag_abs_values()
        nonzero = off[off > 0]
        if nonzero.size == 0:
            return 1.0
        rms = float(np.sqrt(np.mean((2.0 * nonzero) ** 2)))
        return 0.5 / (rms * float(np.sqrt(self.n)))

    def _initial_positions(self, initial, rng) -> np.ndarray:
        """(R, n) start positions in the caller's original spin space.

        ``None`` draws uniformly from ``[-0.1, 0.1)``; a ±1 configuration
        of shape ``(n,)`` or ``(R, n)`` seeds positions at a tenth of the
        wall, biasing trajectories toward that configuration's basin.
        """
        R, n = self.replicas, self.n
        if initial is None:
            return rng.uniform(-0.1, 0.1, size=(R, n))
        return 0.1 * check_initial(initial, R, n)

    def run(self, iterations: int, initial=None) -> BatchAnnealResult:
        """Integrate all replicas for ``iterations`` symplectic steps."""
        iterations = check_iterations(iterations)
        rng = self._rng
        R, n = self.replicas, self.n
        h = self.model.h
        has_fields = self.model.has_fields
        offset = self.model.offset
        discrete = self.variant == "discrete"
        dt, a0, c0 = self.dt, self.a0, self.c0

        x = self._initial_positions(initial, rng)
        y = rng.uniform(-0.1, 0.1, size=(R, n))
        if self._bwd is not None:
            # Draws happen in the caller's original spin space; gather
            # into the internal (permuted) ordering the matvec serves.
            x = np.ascontiguousarray(x[:, self._bwd])
            y = np.ascontiguousarray(y[:, self._bwd])

        # Linear pump ramp a(t): 0 → a0, hitting a0 exactly on the last step.
        pump = a0 * (np.arange(iterations) / max(iterations - 1, 1))

        best_energy = np.full(R, np.inf)
        best_sigma = _sign_readout(x)
        accepted = np.zeros(R, dtype=np.int64)

        def readout_energy(sigma, fields):
            e = np.einsum("rn,rn->r", sigma, fields)
            if has_fields:
                e = e + sigma @ h
            return e + offset

        def track_best(sigma, e):
            better = e < best_energy
            if better.any():
                best_energy[better] = e[better]
                best_sigma[better] = sigma[better]

        for it in range(iterations):
            z = _sign_readout(x) if discrete else x
            f = self._matvec(z)  # (R, n) = J z — the step's one matvec
            if discrete:
                # dSB's readout energy falls out of the step's matvec.
                track_best(z, readout_energy(z, f))
            elif it % self.best_every == 0:
                sigma = _sign_readout(x)
                track_best(sigma, readout_energy(sigma, self._matvec(sigma)))
            grad = 2.0 * f + h if has_fields else 2.0 * f
            y += dt * ((pump[it] - a0) * x - c0 * grad)
            x += (dt * a0) * y
            wall = np.abs(x) > 1.0
            if wall.any():
                x[wall] = np.sign(x[wall])
                y[wall] = 0.0
                accepted += wall.any(axis=1)

        # Evaluate the final state (the loop's readouts are pre-update).
        sigma = _sign_readout(x)
        energy = readout_energy(sigma, self._matvec(sigma))
        track_best(sigma, energy)

        if self._fwd is not None:
            sigma = sigma[:, self._fwd]
            best_sigma = best_sigma[:, self._fwd]
        return BatchAnnealResult(
            best_energies=best_energy,
            best_sigmas=best_sigma.astype(np.int8),
            final_energies=energy,
            final_sigmas=sigma.astype(np.int8),
            accepted=accepted,
            iterations=iterations,
        )


def solve_sb(
    model,
    iterations: int,
    seed=None,
    replicas: int | None = None,
    permutation=None,
    matvec=None,
    **engine_kwargs,
) -> AnnealResult | BatchAnnealResult:
    """Run SB and shape the result like the other solver families.

    ``replicas=None`` runs a single trajectory and returns an
    :class:`~repro.core.results.AnnealResult`; an integer returns the
    per-replica :class:`~repro.core.batch.BatchAnnealResult`.  This is
    the dispatch target of ``solve_ising(method="sb")`` — via
    :meth:`repro.core.plan.SolvePlan.execute`, which replays this call
    per run against a pre-compiled model/layout (and, on the tiled path,
    a pre-programmed crossbar's ``batch_matvec``); everything here is
    run-time work, so it is safe to invoke repeatedly on one plan.
    """
    engine = SbEngine(
        model,
        replicas=1 if replicas is None else replicas,
        permutation=permutation,
        matvec=matvec,
        seed=seed,
        **engine_kwargs,
    )
    batch = engine.run(iterations)
    if replicas is not None:
        return batch
    return AnnealResult(
        solver=f"simulated bifurcation ({engine.variant_label})",
        sigma=batch.final_sigmas[0],
        energy=float(batch.final_energies[0]),
        best_sigma=batch.best_sigmas[0],
        best_energy=float(batch.best_energies[0]),
        iterations=batch.iterations,
        accepted=int(batch.accepted[0]),
        uphill_accepted=0,
        uphill_proposals=0,
        metadata={
            "variant": engine.variant,
            "dt": engine.dt,
            "a0": engine.a0,
            "c0": engine.c0,
        },
    )
