"""Graph k-coloring as a QUBO (one of the COP classes in the paper's Table 1).

One-hot encoding: binary variable ``x[v, c]`` means "vertex v gets colour c".
The objective is a pure penalty

.. math::  A \\sum_v \\Big(1 - \\sum_c x_{vc}\\Big)^2
           + B \\sum_{(u,v) \\in E} \\sum_c x_{uc} x_{vc},

which is zero exactly for proper colourings; any annealer that drives the
QUBO energy to the recorded ``ground_energy`` has found one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ising.qubo import QuboModel
from repro.utils.validation import check_count, check_edges, check_index, check_positive


@dataclass
class GraphColoringProblem:
    """A k-coloring instance over a simple undirected graph.

    Parameters
    ----------
    num_nodes:
        Number of vertices.
    edges:
        ``(m, 2)`` endpoint array; repeated edges sum.
    num_colors:
        Number of available colours ``k``.
    one_hot_weight:
        Penalty ``A`` for the one-colour-per-vertex constraint.
    conflict_weight:
        Penalty ``B`` for adjacent vertices sharing a colour.
    """

    num_nodes: int
    edges: np.ndarray
    num_colors: int
    one_hot_weight: float = 4.0
    conflict_weight: float = 2.0
    name: str = "coloring"
    _edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.num_nodes = check_count("num_nodes", self.num_nodes)
        self.num_colors = check_count("num_colors", self.num_colors)
        self.one_hot_weight = check_positive("one_hot_weight", self.one_hot_weight)
        self.conflict_weight = check_positive("conflict_weight", self.conflict_weight)
        self._edges = check_edges(self.num_nodes, self.edges, unique=False)

    @property
    def num_variables(self) -> int:
        """Number of binary variables ``n·k`` in the one-hot encoding."""
        return self.num_nodes * self.num_colors

    def variable_index(self, vertex: int, color: int) -> int:
        """Flat index of ``x[vertex, color]``."""
        vertex = check_index("vertex", vertex, self.num_nodes)
        return vertex * self.num_colors + check_index("color", color, self.num_colors)

    def to_qubo(self) -> QuboModel:
        """Build the penalty QUBO described in the module docstring.

        The returned model's minimum value is 0 iff a proper colouring with
        every vertex coloured exists (:attr:`ground_energy`).  Built as a
        pair list in O(n·k² + m·k): ``A`` on every same-vertex colour pair,
        ``B/2`` per edge on every same-colour pair (repeated edges sum).
        """
        k = self.num_colors
        A, B = self.one_hot_weight, self.conflict_weight
        # A * (1 - sum_c x_vc)^2 = A * (1 - 2 sum x + sum x^2 + 2 sum_{c<c'} x x')
        #                        = A - A sum_c x_vc + 2A sum_{c<c'} x_vc x_vc'.
        first = np.arange(self.num_nodes)[:, None] * k
        c1, c2 = np.triu_indices(k, 1)
        colors = np.arange(k)
        rows = np.concatenate([
            (first + c1).ravel(), (self._edges[:, :1] * k + colors).ravel()
        ])
        cols = np.concatenate([
            (first + c2).ravel(), (self._edges[:, 1:] * k + colors).ravel()
        ])
        values = np.concatenate([
            np.full(self.num_nodes * c1.size, A),
            np.full(self._edges.shape[0] * k, B / 2.0),
        ])
        return QuboModel.from_pairs(
            self.num_variables, rows, cols, values,
            linear=np.full(self.num_variables, -A),
            offset=A * self.num_nodes,
            name=self.name,
        )

    @property
    def ground_energy(self) -> float:
        """QUBO value of any feasible proper colouring (always 0)."""
        return 0.0

    def decode(self, x) -> np.ndarray:
        """Map a 0/1 vector to a colour per vertex (−1 if none assigned).

        If several colour bits are set for a vertex the lowest colour wins;
        use :meth:`violations` to detect such states.
        """
        arr = np.asarray(x).reshape(self.num_nodes, self.num_colors)
        colors = np.full(self.num_nodes, -1, dtype=np.int64)
        for v in range(self.num_nodes):
            on = np.flatnonzero(arr[v])
            if on.size:
                colors[v] = int(on[0])
        return colors

    def violations(self, x) -> dict[str, int]:
        """Count constraint violations of a raw 0/1 assignment.

        Returns a dict with ``one_hot`` (vertices without exactly one colour)
        and ``conflicts`` (monochromatic edges under :meth:`decode`).
        """
        arr = np.asarray(x).reshape(self.num_nodes, self.num_colors)
        one_hot = int(np.sum(arr.sum(axis=1) != 1))
        colors = self.decode(x)
        conflicts = 0
        for u, v in self._edges:
            cu, cv = colors[int(u)], colors[int(v)]
            if cu != -1 and cu == cv:
                conflicts += 1
        return {"one_hot": one_hot, "conflicts": conflicts}

    def is_proper(self, x) -> bool:
        """Whether ``x`` decodes to a complete proper colouring."""
        v = self.violations(x)
        return v["one_hot"] == 0 and v["conflicts"] == 0
