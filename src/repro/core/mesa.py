"""Multi-Epoch Simulated Annealing (MESA), the enhancement of ref [7].

The FeFET CiM annealer the paper compares against introduced MESA: the run
is split into epochs; each epoch is a full SA cooling pass, and subsequent
epochs restart from the best configuration found so far with a reduced
starting temperature.  The re-heating lets the solver hop out of the basin
a single cooling pass settles into, while the epoch-over-epoch decay keeps
later passes increasingly local.

Included here as an extension baseline for the solver-efficiency ablations.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import AnnealResult
from repro.core.sa import DirectEAnnealer, estimate_temperature_range
from repro.core.schedule import GeometricSchedule
from repro.ising.model import IsingModel
from repro.ising.sparse import SparseIsingModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_count,
    check_flips,
    check_iterations,
    check_permutation,
    check_real,
)


class MesaAnnealer:
    """Multi-epoch SA wrapper around :class:`DirectEAnnealer`.

    Parameters
    ----------
    model:
        The Ising model to minimise (dense or sparse backend — the inner
        SA passes inherit backend transparency from
        :class:`DirectEAnnealer`).
    epochs:
        Number of cooling passes.
    epoch_decay:
        Multiplier applied to the starting temperature of each new epoch.
    permutation:
        Optional :class:`~repro.core.reorder.Permutation` declaring that
        ``model`` is a relabelled view of the caller's problem; forwarded
        to the temperature auto-tuner and every inner SA pass, so the
        whole multi-epoch trajectory is layout-independent (epoch restarts
        hand the best-so-far configuration around in the caller's original
        ordering either way).
    flips_per_iteration / seed:
        Forwarded to the inner SA passes.
    """

    name = "MESA annealer"

    def __init__(
        self,
        model: IsingModel | SparseIsingModel,
        epochs: int = 4,
        epoch_decay: float = 0.5,
        flips_per_iteration: int = 1,
        permutation=None,
        seed=None,
    ) -> None:
        self.epochs = check_count("epochs", epochs)
        self.epoch_decay = check_real("epoch_decay", epoch_decay)
        if not 0.0 < self.epoch_decay <= 1.0:
            raise ValueError(f"epoch_decay must be in (0, 1], got {epoch_decay}")
        self.model = model
        self.flips_per_iteration = check_flips(flips_per_iteration, model.num_spins)
        self.permutation = permutation
        if permutation is not None:
            check_permutation(permutation, model.num_spins)
        self._rng = ensure_rng(seed)

    def run(self, iterations: int, initial=None) -> AnnealResult:
        """Run ``epochs`` cooling passes sharing the iteration budget."""
        iterations = check_iterations(iterations)
        if iterations < self.epochs:
            raise ValueError("iterations must be >= epochs")
        per_epoch = iterations // self.epochs
        t_start, t_end = estimate_temperature_range(
            self.model, seed=self._rng, permutation=self.permutation
        )

        sigma = initial
        best_sigma = None
        best_energy = np.inf
        accepted = 0
        uphill_accepted = 0
        uphill_proposals = 0
        exponent_evaluations = 0
        last: AnnealResult | None = None

        for epoch in range(self.epochs):
            budget = per_epoch if epoch < self.epochs - 1 else iterations - per_epoch * (
                self.epochs - 1
            )
            start = max(t_start * self.epoch_decay**epoch, t_end)
            schedule = GeometricSchedule(budget, start, t_end)
            inner = DirectEAnnealer(
                self.model,
                flips_per_iteration=self.flips_per_iteration,
                schedule=schedule,
                permutation=self.permutation,
                seed=self._rng,
            )
            last = inner.run(budget, initial=sigma)
            accepted += last.accepted
            uphill_accepted += last.uphill_accepted
            uphill_proposals += last.uphill_proposals
            exponent_evaluations += last.exponent_evaluations
            if last.best_energy < best_energy:
                best_energy = last.best_energy
                best_sigma = last.best_sigma.copy()
            # Next epoch re-heats from the best configuration so far.
            sigma = best_sigma

        assert last is not None
        return AnnealResult(
            solver=self.name,
            sigma=last.sigma,
            energy=last.energy,
            best_sigma=best_sigma,
            best_energy=float(best_energy),
            iterations=iterations,
            accepted=accepted,
            uphill_accepted=uphill_accepted,
            uphill_proposals=uphill_proposals,
            exponent_evaluations=exponent_evaluations,
            metadata={"epochs": self.epochs, "epoch_decay": self.epoch_decay},
        )
