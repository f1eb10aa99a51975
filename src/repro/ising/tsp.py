"""Travelling salesman as a QUBO (permutation one-hot encoding).

The classic Lucas construction: binary variable ``x[v, p]`` means "city v is
visited at position p".  Penalties enforce one city per position and one
position per city; the objective sums the distances of consecutive
positions (cyclically).  Included to exercise the library on a
permutation-structured COP — much denser constraints than Max-Cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ising.qubo import QuboModel
from repro.utils.validation import check_finite, check_index, check_positive


@dataclass
class TravellingSalesmanProblem:
    """A symmetric TSP instance over an explicit distance matrix.

    Parameters
    ----------
    distances:
        Symmetric ``(n, n)`` matrix of non-negative inter-city distances
        (diagonal ignored).
    penalty:
        Constraint weight ``A``; must exceed the largest distance for valid
        tours to dominate (a safe default is chosen when ``None``).
    """

    distances: np.ndarray
    penalty: float | None = None
    name: str = "tsp"
    _D: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        D = check_finite("distances", self.distances)
        if D.ndim != 2 or D.shape[0] != D.shape[1] or D.shape[0] < 3:
            raise ValueError("distances must be a square matrix with n >= 3")
        if not np.allclose(D, D.T):
            raise ValueError("distances must be symmetric")
        if np.any(D < 0):
            raise ValueError("distances must be non-negative")
        self._D = D
        if self.penalty is None:
            self.penalty = float(D.max()) * 2.0 + 1.0
        else:
            self.penalty = check_positive("penalty", self.penalty)

    @property
    def num_cities(self) -> int:
        """Number of cities ``n``."""
        return self._D.shape[0]

    @property
    def num_variables(self) -> int:
        """Binary variables in the one-hot encoding, ``n²``."""
        return self.num_cities**2

    def variable_index(self, city: int, position: int) -> int:
        """Flat index of ``x[city, position]``."""
        n = self.num_cities
        return check_index("city", city, n) * n + check_index("position", position, n)

    # ------------------------------------------------------------------
    def to_qubo(self) -> QuboModel:
        """Lucas encoding: distance objective + two one-hot penalty families.

        Built as a pair list in O(n³): ``A`` on every pair of one city's
        positions and of one position's cities, ``D[u, v]/2`` on
        ``(x[u, p], x[v, p+1])``.  For ``n ≥ 3`` every pair occurs once.
        """
        n = self.num_cities
        A = self.penalty
        var = np.arange(self.num_variables).reshape(n, n)  # var[city, position]
        # A · Σ_v (1 − Σ_p x_vp)² and A · Σ_p (1 − Σ_v x_vp)²: each square
        # expands to A − A Σ x + 2A Σ_{pairs} x x', so q = −2A, offset = 2nA.
        a, b = np.triu_indices(n, 1)
        # Σ_p Σ_{u≠v} D_uv x_up x_v(p+1).
        u, v = np.nonzero(~np.eye(n, dtype=bool))
        next_var = np.roll(var, -1, axis=1)  # next_var[city, p] = var[city, p+1]
        rows = np.concatenate([var[:, a].ravel(), var[a].ravel(), var[u].ravel()])
        cols = np.concatenate([var[:, b].ravel(), var[b].ravel(), next_var[v].ravel()])
        values = np.concatenate([
            np.full(2 * n * a.size, A), np.repeat(self._D[u, v] / 2.0, n)
        ])
        return QuboModel.from_pairs(
            self.num_variables, rows, cols, values,
            linear=np.full(self.num_variables, -2.0 * A),
            offset=2.0 * n * A,
            name=self.name,
        )

    # ------------------------------------------------------------------
    def decode(self, x) -> np.ndarray | None:
        """Extract the tour (city per position); ``None`` if not a permutation."""
        arr = np.asarray(x).reshape(self.num_cities, self.num_cities)
        if not np.all(arr.sum(axis=0) == 1) or not np.all(arr.sum(axis=1) == 1):
            return None
        return np.argmax(arr, axis=0)

    def tour_length(self, tour) -> float:
        """Cyclic length of a tour given as city-per-position."""
        t = np.asarray(tour, dtype=np.intp)
        if sorted(t.tolist()) != list(range(self.num_cities)):
            raise ValueError("tour must be a permutation of all cities")
        return float(sum(self._D[t[i], t[(i + 1) % len(t)]] for i in range(len(t))))

    def brute_force_tour(self) -> tuple[np.ndarray, float]:
        """Exact optimum by enumeration (n ≤ 9)."""
        from itertools import permutations

        n = self.num_cities
        if n > 9:
            raise ValueError("brute force limited to 9 cities")
        best_tour, best_len = None, np.inf
        for perm in permutations(range(1, n)):
            tour = np.array([0, *perm], dtype=np.intp)
            length = self.tour_length(tour)
            if length < best_len:
                best_tour, best_len = tour, length
        return best_tour, float(best_len)

    @classmethod
    def random_euclidean(
        cls, num_cities: int, seed=None, name: str = "tsp"
    ) -> "TravellingSalesmanProblem":
        """Random points on the unit square with Euclidean distances."""
        from repro.utils.rng import ensure_rng

        rng = ensure_rng(seed)
        points = rng.random((num_cities, 2))
        diff = points[:, None, :] - points[None, :, :]
        D = np.sqrt((diff**2).sum(axis=-1))
        return cls(D, name=name)
