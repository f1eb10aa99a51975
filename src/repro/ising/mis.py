"""Maximum independent set as a QUBO.

Select the largest vertex set with no internal edges:

.. math::  \\min\\; -\\sum_v x_v + P \\sum_{(u,v) \\in E} x_u x_v .

With ``P > 1`` every optimal QUBO solution is a maximal independent set.
Included as the simplest constrained COP — useful in tests because small
instances have easily verified optima.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ising.qubo import QuboModel
from repro.utils.validation import check_count, check_edges, check_real


@dataclass
class MaxIndependentSetProblem:
    """A maximum-independent-set instance.

    Parameters
    ----------
    num_nodes:
        Number of vertices.
    edges:
        ``(m, 2)`` endpoint array; repeated edges sum.
    penalty:
        Edge-conflict penalty ``P > 1`` (default 2).
    """

    num_nodes: int
    edges: np.ndarray
    penalty: float = 2.0
    name: str = "mis"
    _edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.num_nodes = check_count("num_nodes", self.num_nodes)
        self.penalty = check_real("penalty", self.penalty)
        if self.penalty <= 1.0:
            raise ValueError(f"penalty must exceed 1 for exactness, got {self.penalty}")
        self._edges = check_edges(self.num_nodes, self.edges, unique=False)

    def to_qubo(self) -> QuboModel:
        """Build the penalty QUBO of the module docstring (minimisation).

        One ``P/2`` pair per edge (repeated edges sum), ``q = −1``; O(n + m).
        """
        return QuboModel.from_pairs(
            self.num_nodes,
            self._edges[:, 0],
            self._edges[:, 1],
            np.full(self._edges.shape[0], self.penalty / 2.0),
            linear=-np.ones(self.num_nodes, dtype=np.float64),
            name=self.name,
        )

    def is_independent(self, x) -> bool:
        """Whether the selected vertices form an independent set."""
        arr = np.asarray(x)
        return not any(arr[u] and arr[v] for u, v in self._edges)

    def set_size(self, x) -> int:
        """Number of selected vertices."""
        return int(np.asarray(x).sum())

    def brute_force_optimum(self) -> int:
        """Exact maximum independent-set size (n ≤ 20)."""
        n = self.num_nodes
        if n > 20:
            raise ValueError("brute force limited to 20 vertices")
        best = 0
        for bits in range(1 << n):
            x = [(bits >> i) & 1 for i in range(n)]
            if self.is_independent(x):
                best = max(best, sum(x))
        return best

    @classmethod
    def random(
        cls, num_nodes: int, num_edges: int, seed=None, name: str = "mis"
    ) -> "MaxIndependentSetProblem":
        """Random simple graph instance."""
        from repro.ising.gset import random_edge_set

        edges, _ = random_edge_set(num_nodes, num_edges, seed=seed)
        return cls(num_nodes, edges, name=name)
