"""Result containers shared by every annealer in the library."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AnnealResult:
    """Outcome of one annealing run.

    Attributes
    ----------
    solver:
        Human-readable solver name.
    sigma:
        Final ±1 configuration.
    energy:
        Final energy in model units (including the model offset).
    best_sigma / best_energy:
        Best configuration seen during the run; best tracking is always
        on.
    iterations:
        Number of annealing iterations executed.
    accepted:
        Accepted proposals.
    uphill_accepted:
        Accepted proposals with ``ΔE > 0``.
    uphill_proposals:
        Proposals with ``ΔE > 0`` (each costs the baselines one ``e^x``).
    exponent_evaluations:
        Hardware ``e^x`` evaluations (0 for the in-situ annealer).
    energy_trace:
        Optional per-iteration energy trace (current configuration).
    best_trace:
        Optional per-iteration best-energy trace.
    """

    solver: str
    sigma: np.ndarray
    energy: float
    best_sigma: np.ndarray
    best_energy: float
    iterations: int
    accepted: int
    uphill_accepted: int
    uphill_proposals: int
    exponent_evaluations: int = 0
    energy_trace: np.ndarray | None = None
    best_trace: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def acceptance_rate(self) -> float:
        """Accepted / proposed."""
        return self.accepted / self.iterations if self.iterations else 0.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.solver}: best E = {self.best_energy:.6g} "
            f"(final {self.energy:.6g}) after {self.iterations} iterations, "
            f"acceptance {self.acceptance_rate:.1%}"
        )


class CutNormalization:
    """Shared cut-normalisation scaffolding for Max-Cut result containers.

    Expects ``best_cut`` and ``reference_cut`` on the subclass (fields or
    properties); keeps the paper's normalisation guard and ≥ 0.9 success
    criterion in one place for the single-run and replica-batch results.
    """

    @property
    def normalized_cut(self) -> float | None:
        """``best_cut / reference_cut`` (Fig 10's y-axis), if a reference is set."""
        if self.reference_cut in (None, 0):
            return None
        return self.best_cut / self.reference_cut

    def is_success(self, threshold: float = 0.9) -> bool | None:
        """The paper's success criterion: normalised cut ≥ ``threshold``."""
        norm = self.normalized_cut
        return None if norm is None else bool(norm >= threshold)


@dataclass
class MaxCutResult(CutNormalization):
    """A :class:`AnnealResult` interpreted against a Max-Cut instance.

    Attributes
    ----------
    anneal:
        The underlying annealing result.
    cut / best_cut:
        Final and best cut values.
    reference_cut:
        Best-known (or proxy-optimal) cut used for normalisation, if given.
    """

    anneal: AnnealResult
    cut: float
    best_cut: float
    reference_cut: float | None = None

    def summary(self) -> str:
        """One-line human-readable summary."""
        norm = self.normalized_cut
        norm_txt = f", normalised {norm:.3f}" if norm is not None else ""
        return f"{self.anneal.solver}: best cut {self.best_cut:g}{norm_txt}"
