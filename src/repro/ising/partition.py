"""Number partitioning as an Ising model.

Split a multiset of positive numbers into two halves with minimal sum
difference.  With ±1 spins choosing sides, the residue is ``|sᵀσ|`` and

.. math::  (s^T\\sigma)^2 = \\sigma^T (s s^T) \\sigma,

so ``J = s sᵀ`` (with the diagonal's constant ``Σ s_i²`` tracked in the
offset) is an exact Ising embedding whose ground energy is the squared
optimal residue.  This gives the test-suite a COP with *known* ground energy
(0 for perfectly partitionable sets).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ising.model import IsingModel
from repro.utils.validation import check_finite, check_spin_vector


@dataclass
class NumberPartitioningProblem:
    """A two-way number-partitioning instance.

    Parameters
    ----------
    numbers:
        Positive values to split.
    name:
        Instance label.
    """

    numbers: np.ndarray
    name: str = "partition"
    _numbers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        s = check_finite("numbers", self.numbers)
        if s.ndim != 1 or s.size < 2:
            raise ValueError("numbers must be a 1-D array with at least 2 entries")
        if np.any(s <= 0):
            raise ValueError("numbers must be positive")
        self._numbers = s

    @property
    def num_items(self) -> int:
        """Number of values to split."""
        return self._numbers.size

    def residue(self, sigma) -> float:
        """Absolute difference between the two side sums, ``|sᵀσ|``."""
        s = check_spin_vector(sigma, self.num_items).astype(np.float64)
        return float(abs(self._numbers @ s))

    def to_ising(self) -> IsingModel:
        """Exact embedding: ``E(σ) = (sᵀσ)² = σᵀ(ssᵀ)σ``.

        The diagonal of ``s sᵀ`` contributes the constant ``Σ s_i²``; it is
        zeroed out of ``J`` and moved into ``offset`` so the reported energy
        equals the squared residue exactly.
        """
        outer = np.outer(self._numbers, self._numbers)
        diag_const = float(np.sum(self._numbers**2))
        J = outer - np.diag(np.diag(outer))
        return IsingModel(J, None, offset=diag_const, name=self.name)

    def residue_from_energy(self, energy: float) -> float:
        """Convert a :meth:`to_ising` energy back to a residue."""
        return float(np.sqrt(max(energy, 0.0)))

    @classmethod
    def random(
        cls, num_items: int, high: int = 100, seed=None, name: str = "partition"
    ) -> "NumberPartitioningProblem":
        """Random instance with integers in ``[1, high]``."""
        from repro.utils.rng import ensure_rng

        rng = ensure_rng(seed)
        return cls(rng.integers(1, high + 1, size=num_items).astype(np.float64), name=name)
