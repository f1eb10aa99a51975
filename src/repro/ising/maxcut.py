"""Max-Cut problems and their exact Ising embedding.

Max-Cut is the paper's representative COP (Sec. 4, ref [38]): partition the
vertices of a weighted graph so that the total weight of edges crossing the
partition is maximised.  With ±1 spins labelling the two sides,

.. math::  \\mathrm{cut}(\\sigma) = \\sum_{(i,j)\\in E} w_{ij}
           \\frac{1 - \\sigma_i\\sigma_j}{2}
           = \\frac{W_{tot}}{2} - \\sigma^T \\frac{W}{4} \\sigma,

so minimising the Ising energy with ``J = W/4`` maximises the cut and
``cut = W_tot/2 − E``.  Both directions of that bookkeeping are implemented
here and checked by the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.ising.model import IsingModel
from repro.ising.sparse import BACKENDS, SparseIsingModel, recommended_backend
from repro.utils.validation import check_choice, check_count, check_edges, check_spin_vector

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class MaxCutProblem:
    """A weighted Max-Cut instance stored as edge lists.

    Parameters
    ----------
    num_nodes:
        Number of vertices ``n``.
    edges:
        ``(m, 2)`` integer array of endpoints, each pair unique, ``u != v``.
    weights:
        Optional ``(m,)`` edge weights (default all ones).
    name:
        Instance label (e.g. ``"gset-like-800-r0"``).
    """

    num_nodes: int
    edges: np.ndarray
    weights: np.ndarray | None = None
    name: str = "maxcut"
    _edges: np.ndarray = field(init=False, repr=False)
    _weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = check_count("num_nodes", self.num_nodes)
        e = check_edges(n, self.edges)
        if self.weights is None:
            w = np.ones(e.shape[0], dtype=np.float64)
        else:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (e.shape[0],):
                raise ValueError(
                    f"weights must have shape ({e.shape[0]},), got {w.shape}"
                )
            bad = np.flatnonzero(~np.isfinite(w))
            if bad.size:
                k = int(bad[0])
                raise ValueError(
                    f"weights must be finite, got {float(w[k])} on edge {k} "
                    f"({e[k, 0]}, {e[k, 1]})"
                )
        self.num_nodes = n
        self._edges = e
        self._weights = w

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return self._edges.shape[0]

    @property
    def edge_array(self) -> np.ndarray:
        """The validated ``(m, 2)`` endpoint array (do not mutate)."""
        return self._edges

    @property
    def weight_array(self) -> np.ndarray:
        """The validated ``(m,)`` weight array (do not mutate)."""
        return self._weights

    @property
    def total_weight(self) -> float:
        """``W_tot``, the sum of all edge weights."""
        return float(self._weights.sum())

    def adjacency(self) -> np.ndarray:
        """Dense symmetric weighted adjacency matrix ``W``."""
        W = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float64)
        u, v = self._edges[:, 0], self._edges[:, 1]
        W[u, v] = self._weights
        W[v, u] = self._weights
        return W

    def degrees(self) -> np.ndarray:
        """Unweighted vertex degrees."""
        d = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(d, self._edges[:, 0], 1)
        np.add.at(d, self._edges[:, 1], 1)
        return d

    def to_networkx(self) -> nx.Graph:
        """Export as a :class:`networkx.Graph` with ``weight`` attributes."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_nodes))
        g.add_weighted_edges_from(
            (int(u), int(v), float(w))
            for (u, v), w in zip(self._edges, self._weights)
        )
        return g

    @classmethod
    def from_networkx(cls, graph: nx.Graph, name: str = "maxcut") -> "MaxCutProblem":
        """Build from a networkx graph (missing weights default to 1)."""
        nodes = list(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = []
        weights = []
        for u, v, data in graph.edges(data=True):
            edges.append((index[u], index[v]))
            weights.append(float(data.get("weight", 1.0)))
        edge_arr = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        return cls(len(nodes), edge_arr, np.asarray(weights), name=name)

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------
    def cut_value(self, sigma) -> float:
        """Total weight of edges crossing the ±1 partition ``sigma``.

        Evaluated edge-wise in O(m), which is much cheaper than the dense
        quadratic form for the sparse Gset-style instances.
        """
        s = check_spin_vector(sigma, self.num_nodes)
        u, v = self._edges[:, 0], self._edges[:, 1]
        crossing = s[u] != s[v]
        return float(self._weights[crossing].sum())

    def cut_from_energy(self, energy: float) -> float:
        """Convert an Ising energy of :meth:`to_ising` back to a cut value."""
        return self.total_weight / 2.0 - energy

    def energy_from_cut(self, cut: float) -> float:
        """Convert a cut value to the Ising energy of :meth:`to_ising`."""
        return self.total_weight / 2.0 - cut

    def to_ising(self, backend: str = "auto") -> IsingModel | SparseIsingModel:
        """Exact Ising embedding with ``J = W/4`` and no field.

        Minimising the returned model's ``σᵀJσ`` maximises the cut;
        ``cut = W_tot/2 − σᵀJσ`` (the model's ``offset`` is left at zero so
        its raw energy matches the quadratic form; use
        :meth:`cut_from_energy` for the translation).

        ``backend`` picks the coupling representation: ``"dense"`` builds
        the ``(n, n)`` matrix, ``"sparse"`` a CSR
        :class:`~repro.ising.sparse.SparseIsingModel` straight from the
        edge list (never materialising the dense matrix), ``"packed"``
        the bit-packed sign-only
        :class:`~repro.ising.packed.PackedIsingModel` (requires uniform
        |weight| — e.g. ±1 G-set edges, whose embedding is ``J = ±1/4``),
        and ``"auto"`` (default) applies the density-threshold heuristic
        with sign-only promotion — all G-set-scale ±1 instances come out
        packed.  All backends define the identical Hamiltonian and (for
        eligible weights) identical fixed-seed trajectories.
        """
        check_choice("backend", backend, BACKENDS)
        # Local import: repro.ising.packed imports this sub-package's
        # sparse module, so a top-level import would be circular via
        # repro.ising.__init__.
        from repro.ising.packed import PackedIsingModel, dyadic_uniform_scale

        if backend == "auto":
            backend = recommended_backend(
                self.num_nodes,
                self.num_edges,
                uniform_signs=dyadic_uniform_scale(self._weights / 4.0) is not None,
            )
        if backend in ("sparse", "packed"):
            sparse_model = SparseIsingModel.from_edges(
                self.num_nodes,
                self._edges[:, 0],
                self._edges[:, 1],
                self._weights / 4.0,
                name=self.name,
            )
            if backend == "packed":
                return PackedIsingModel.from_sparse(sparse_model)
            return sparse_model
        return IsingModel(self.adjacency() / 4.0, None, name=self.name)

    def partition(self, sigma) -> tuple[np.ndarray, np.ndarray]:
        """Return the two vertex sets induced by ``sigma`` (+1 side, −1 side)."""
        s = check_spin_vector(sigma, self.num_nodes)
        idx = np.arange(self.num_nodes)
        return idx[s == 1], idx[s == -1]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        n: int,
        m: int,
        weighted: bool = False,
        seed=None,
        name: str | None = None,
    ) -> "MaxCutProblem":
        """Uniform random graph with ``m`` distinct edges.

        ``weighted=True`` draws ±1 weights (the Gset convention for the
        G6-G10 style instances); otherwise weights are all +1.
        """
        from repro.ising.gset import random_edge_set  # local import, no cycle

        rng_edges, weights = random_edge_set(n, m, weighted, seed)
        return cls(n, rng_edges, weights, name=name or f"random-{n}-{m}")
