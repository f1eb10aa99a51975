"""0/1 knapsack as a QUBO (one of the COP classes in the paper's Table 1).

Maximise total value subject to a capacity constraint.  The inequality is
turned into an equality with a binary *log-slack* register (the standard
Glover/Kochenberger construction, also used by the HyCiM baseline [15]):

.. math::  \\min\\; -\\sum_i v_i x_i
           + P\\Big(\\sum_i w_i x_i + \\sum_b 2^b s_b - C\\Big)^2,

where the slack register can represent any value in ``[0, C]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ising.qubo import QuboModel
from repro.utils.validation import check_count, check_finite, check_positive


def _slack_coefficients(capacity: int) -> np.ndarray:
    """Binary coefficients 1,2,4,...,r that exactly cover ``[0, capacity]``.

    The last coefficient is trimmed so the register maximum equals the
    capacity (Glover's bounded-coefficient encoding).
    """
    coeffs = []
    remaining = capacity
    power = 1
    while power <= remaining:
        coeffs.append(power)
        remaining -= power
        power *= 2
    if remaining > 0:
        coeffs.append(remaining)
    return np.asarray(coeffs, dtype=np.float64)


@dataclass
class KnapsackProblem:
    """A 0/1 knapsack instance.

    Parameters
    ----------
    values:
        Item values ``v_i > 0``.
    weights:
        Item weights ``w_i > 0`` (integers).
    capacity:
        Total weight budget ``C`` (integer).
    penalty:
        Constraint penalty ``P``; must exceed ``max(v)`` for feasible optima
        to dominate (a safe default is chosen when ``None``).
    """

    values: np.ndarray
    weights: np.ndarray
    capacity: int
    penalty: float | None = None
    name: str = "knapsack"
    _values: np.ndarray = field(init=False, repr=False)
    _weights: np.ndarray = field(init=False, repr=False)
    _slack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        v = check_finite("values", self.values)
        w = check_finite("weights", self.weights)
        if v.ndim != 1 or w.shape != v.shape or v.size == 0:
            raise ValueError("values and weights must be equal-length 1-D arrays")
        if np.any(v <= 0) or np.any(w <= 0):
            raise ValueError("values and weights must be positive")
        self.capacity = check_count("capacity", self.capacity, minimum=0)
        self._values = v
        self._weights = w
        self._slack = _slack_coefficients(self.capacity)
        if self.penalty is None:
            # Any single unit of constraint violation must cost more than the
            # best possible value gain; v_max + 1 is a safe margin.
            self.penalty = float(v.max()) + 1.0
        else:
            self.penalty = check_positive("penalty", self.penalty)

    @property
    def num_items(self) -> int:
        """Number of items."""
        return self._values.size

    @property
    def num_slack_bits(self) -> int:
        """Number of slack-register bits."""
        return self._slack.size

    @property
    def num_variables(self) -> int:
        """Total binary variables (items + slack bits)."""
        return self.num_items + self.num_slack_bits

    def to_qubo(self) -> QuboModel:
        """Build the penalty QUBO of the module docstring (minimisation)."""
        n = self.num_items
        coeffs = np.concatenate([self._weights, self._slack])
        P = self.penalty
        C = float(self.capacity)
        # P * (coeffs·y - C)^2 = P [ (coeffs·y)^2 - 2C coeffs·y + C² ].
        Q = P * np.outer(coeffs, coeffs)
        diag = np.diag(Q).copy()
        Q -= np.diag(diag)  # x² = x → diagonal becomes linear
        q = diag - 2.0 * P * C * coeffs
        q[:n] += -self._values  # maximise value ⇒ minimise −value
        offset = P * C * C
        return QuboModel(Q, q, offset=offset, name=self.name)

    def decode(self, x) -> np.ndarray:
        """Extract the item-selection bits from a full QUBO assignment."""
        arr = np.asarray(x)
        if arr.shape[0] != self.num_variables:
            raise ValueError(
                f"expected {self.num_variables} variables, got {arr.shape[0]}"
            )
        return arr[: self.num_items].astype(np.int8)

    def total_value(self, selection) -> float:
        """Total value of the selected items."""
        sel = np.asarray(selection, dtype=np.float64)
        return float(self._values @ sel)

    def total_weight(self, selection) -> float:
        """Total weight of the selected items."""
        sel = np.asarray(selection, dtype=np.float64)
        return float(self._weights @ sel)

    def is_feasible(self, selection) -> bool:
        """Whether the selection respects the capacity."""
        return self.total_weight(selection) <= self.capacity + 1e-9

    def brute_force_optimum(self) -> tuple[np.ndarray, float]:
        """Exact optimum by dynamic programming (integer weights).

        Returns ``(selection, value)``.  Weights are cast to int; intended
        for the modest instance sizes used in tests and examples.
        """
        weights = self._weights.astype(np.int64)
        n, C = self.num_items, self.capacity
        best = np.zeros((n + 1, C + 1), dtype=np.float64)
        for i in range(1, n + 1):
            wi = int(weights[i - 1])
            vi = self._values[i - 1]
            best[i] = best[i - 1]
            if wi <= C:
                candidate = best[i - 1, : C - wi + 1] + vi
                improved = candidate > best[i, wi:]
                best[i, wi:][improved] = candidate[improved]
        # Backtrack.
        selection = np.zeros(n, dtype=np.int8)
        c = int(np.argmax(best[n]))
        value = best[n, c]
        for i in range(n, 0, -1):
            if best[i, c] != best[i - 1, c]:
                selection[i - 1] = 1
                c -= int(weights[i - 1])
        return selection, float(value)

    @classmethod
    def random(cls, num_items: int, seed=None, name: str = "knapsack") -> "KnapsackProblem":
        """Random instance with integer weights in [1, 20], values in [1, 30]."""
        from repro.utils.rng import ensure_rng

        rng = ensure_rng(seed)
        weights = rng.integers(1, 21, size=num_items)
        values = rng.integers(1, 31, size=num_items).astype(np.float64)
        capacity = max(1, int(weights.sum() // 2))
        return cls(values, weights.astype(np.float64), capacity, name=name)
