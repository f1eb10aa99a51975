"""QUBO form and exact conversions to/from the Ising model.

Quadratic Unconstrained Binary Optimization:

.. math:: C(x) = x^T Q x + q^T x + c, \\qquad x_i \\in \\{0, 1\\}.

The paper notes (Sec. 2.1) that Ising and QUBO are equivalent under the
variable change ``σ_i = 1 - 2 x_i``; this module implements that change *with
exact constant-offset bookkeeping*, so objective values survive round trips —
a property the test-suite checks with hypothesis.

Storage is a sorted upper-triangle pair list, never the ``(n, n)`` matrix:
constrained COPs (colouring, MIS, TSP) have O(n) to O(n^1.5) couplings, so
their builders emit pairs (:meth:`QuboModel.from_pairs`) and
:meth:`QuboModel.to_ising` runs in O(nnz), allocating an ``(n, n)`` array
only when the requested backend is ``dense``.
"""

from __future__ import annotations

import numpy as np

from repro.ising.model import IsingModel
from repro.ising.sparse import BACKENDS, SparseIsingModel, recommended_backend
from repro.utils.validation import (
    _integer_array,
    check_choice,
    check_count,
    check_finite,
    check_real,
    check_square_symmetric,
    check_vector,
)


def _row_sums(n: int, rows, cols, values) -> np.ndarray:
    """Row sums of the symmetric ``(n, n)`` matrix whose pairs carry ``values``."""
    return np.bincount(rows, weights=values, minlength=n) + np.bincount(
        cols, weights=values, minlength=n
    )


def _dense_upper_pairs(matrix: np.ndarray):
    """Nonzero ``i < j`` entries of a dense matrix as sorted pairs."""
    r, c = np.nonzero(matrix)  # row-major, so the upper triangle is sorted
    upper = r < c
    rows, cols = r[upper], c[upper]
    return rows, cols, matrix[rows, cols]


class QuboModel:
    """A QUBO objective ``C(x) = xᵀQx + qᵀx + offset`` over binary ``x``.

    ``Q`` is held as a pair list: ``rows < cols`` sorted row-major, one
    summed nonzero ``value = Q[i, j] = Q[j, i]`` per coupled pair, so a
    pair contributes ``2·value·x_i·x_j``.  The diagonal of ``Q`` is folded
    into ``q`` (``x_i² = x_i``).  Build from a dense matrix with the
    constructor, or from pairs with :meth:`from_pairs` (O(nnz)).

    Parameters
    ----------
    quadratic:
        Symmetric ``(n, n)`` matrix ``Q``; any diagonal is moved into the
        linear term.  The matrix is converted to pairs once and not kept.
    linear:
        Optional length-``n`` vector ``q``.
    offset:
        Constant term.
    name:
        Free-form label used in reports.
    """

    def __init__(
        self,
        quadratic,
        linear=None,
        offset: float = 0.0,
        name: str = "qubo",
    ) -> None:
        Q = check_square_symmetric(check_finite("quadratic", quadratic), "quadratic")
        rows, cols, values = _dense_upper_pairs(Q)
        self._assign(
            Q.shape[0], rows, cols, values, np.diag(Q), linear, offset, name
        )

    def _assign(self, n, rows, cols, values, diag, linear, offset, name) -> None:
        """Store canonical pairs and fold ``diag`` (``Q[i, i]``) into ``q``."""
        q = check_vector("linear", linear, n)
        # For binary variables x_i² = x_i: absorb any diagonal into `linear`.
        if np.any(diag):
            q = q + diag
        self._n = n
        self._rows = rows
        self._cols = cols
        self._values = values
        self._q = q
        self.offset = check_real("offset", offset)
        self.name = str(name)

    @classmethod
    def from_pairs(
        cls,
        n: int,
        rows,
        cols,
        values,
        linear=None,
        offset: float = 0.0,
        name: str = "qubo",
    ) -> "QuboModel":
        """Build from a coupling pair list in O(nnz log nnz), never densifying.

        Each ``values[k]`` is the symmetric entry
        ``Q[rows[k], cols[k]] = Q[cols[k], rows[k]]`` — what a dense builder's
        ``Q[i, j] += w; Q[j, i] += w`` writes.  Duplicate and reversed pairs
        are summed in input order (so the sums match that dense builder bit
        for bit), pairs that sum to zero are dropped, and a diagonal entry
        ``(i, i, w)`` is ``Q[i, i] = w``, which adds ``w`` to ``q[i]``.

        Raises ``ValueError`` naming the argument for ``n < 1``, fractional
        indices or ones outside ``[0, n)``, non-finite values or
        mismatched lengths.
        """
        n = check_count("n", n)
        r = np.atleast_1d(_integer_array("rows", rows, "variable indices"))
        c = np.atleast_1d(_integer_array("cols", cols, "variable indices"))
        v = np.atleast_1d(np.asarray(values, dtype=np.float64))
        if not (r.shape == c.shape == v.shape) or r.ndim != 1:
            raise ValueError(
                f"rows, cols and values must be matching 1-D arrays, got "
                f"shapes {r.shape}, {c.shape} and {v.shape}"
            )
        for label, idx in (("rows", r), ("cols", c)):
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ValueError(f"{label} must lie in [0, {n})")
        check_finite("values", v)
        on_diag = r == c
        diag = np.bincount(r[on_diag], weights=v[on_diag], minlength=n)
        lo, hi, v = r[~on_diag], c[~on_diag], v[~on_diag]
        key = np.minimum(lo, hi) * n + np.maximum(lo, hi)
        keys, slot = np.unique(key, return_inverse=True)
        # bincount accumulates in input order, like sequential `+=`.
        summed = np.bincount(slot, weights=v, minlength=keys.size)
        keep = summed != 0.0
        keys = keys[keep]
        model = cls.__new__(cls)
        model._assign(
            n, keys // n, keys % n, summed[keep], diag, linear, offset, name
        )
        return model

    @property
    def num_variables(self) -> int:
        """Number of binary variables ``n``."""
        return self._n

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(rows, cols, values)`` pair list, ``rows < cols`` (do not mutate)."""
        return self._rows, self._cols, self._values

    @property
    def Q(self) -> np.ndarray:
        """Dense symmetric zero-diagonal ``(n, n)`` matrix, built per access.

        An explicit O(n²) view for inspection and small tests; the library
        itself works on :meth:`pairs`.
        """
        Q = np.zeros((self._n, self._n), dtype=np.float64)
        Q[self._rows, self._cols] = self._values
        Q[self._cols, self._rows] = self._values
        return Q

    @property
    def q(self) -> np.ndarray:
        """Validated linear coefficient vector."""
        return self._q

    def value(self, x) -> float:
        """Objective value of a 0/1 assignment (O(n + nnz))."""
        arr = np.asarray(x, dtype=np.float64)
        if arr.shape != (self.num_variables,):
            raise ValueError(
                f"x must have shape ({self.num_variables},), got {arr.shape}"
            )
        if not np.all(np.isin(arr, (0.0, 1.0))):
            raise ValueError("x entries must be 0/1")
        quad = 2.0 * float(self._values @ (arr[self._rows] * arr[self._cols]))
        return quad + float(self._q @ arr) + self.offset

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_ising(self, backend: str = "auto") -> IsingModel | SparseIsingModel:
        """Exact conversion under ``x_i = (1 - σ_i)/2``, in O(n + nnz).

        Derivation: substituting into ``xᵀQx + qᵀx`` gives
        ``σᵀ(Q/4)σ − σᵀ rowsum(Q)/2 − qᵀσ/2 + const`` (zero-diagonal ``Q``),
        so ``J = Q/4``, ``h = −(rowsum(Q) + q)/2`` and the constant is
        ``sum(Q)/4 + sum(q)/2``.  Row sums are two ``bincount`` passes over
        the pairs, and ``sum(Q)`` is twice the sum of the pair values.

        ``backend`` selects the coupling representation of the returned
        model (``"dense"``, ``"sparse"``, ``"packed"`` for sign-only
        ``Q`` entries of one magnitude, or the ``"auto"`` density
        heuristic — with sign-only promotion — on the pair count).  Only
        ``"dense"`` allocates an ``(n, n)`` array.  Wherever the sums are
        exact (integer or dyadic ``Q`` and ``q``) the result is byte-equal
        to converting the dense matrix; otherwise ``h`` and the offset
        agree to a few ulp (summation order differs).
        """
        check_choice("backend", backend, BACKENDS)
        # Local import: repro.ising.packed imports this sub-package's
        # sparse module, so a top-level import would be circular via
        # repro.ising.__init__.
        from repro.ising.packed import PackedIsingModel, dyadic_uniform_scale

        J = self._values / 4.0
        rowsum = _row_sums(self._n, self._rows, self._cols, self._values)
        h = -(rowsum + self._q) / 2.0
        const = (
            self.offset
            + float(self._values.sum()) / 2.0
            + float(self._q.sum()) / 2.0
        )
        if backend == "auto":
            backend = recommended_backend(
                self._n,
                J.size,
                uniform_signs=dyadic_uniform_scale(J) is not None,
            )
        if backend == "dense":
            J_full = np.zeros((self._n, self._n), dtype=np.float64)
            J_full[self._rows, self._cols] = J
            J_full[self._cols, self._rows] = J
            return IsingModel(J_full, h, offset=const, name=self.name)
        sparse_model = SparseIsingModel.from_edges(
            self._n, self._rows, self._cols, J, h, offset=const, name=self.name
        )
        if backend == "packed":
            return PackedIsingModel.from_sparse(sparse_model)
        return sparse_model

    @classmethod
    def from_ising(cls, model) -> "QuboModel":
        """Exact inverse of :meth:`to_ising` (``σ_i = 1 − 2 x_i``).

        Accepts every coupling backend and reads only the upper triangle of
        ``J`` (the CSR arrays of a sparse or packed model, so it never
        densifies one).  The diagonal of ``J`` contributes only the
        constant ``trace(J)`` because ``σ_i² = 1``.
        """
        if model.backend != "dense":
            indptr, indices, data = model.csr_arrays()
            r = np.repeat(np.arange(model.num_spins, dtype=np.intp), np.diff(indptr))
            upper = r < indices
            rows, cols, values = r[upper], indices[upper], data[upper]
            trace = float(model.coupling_diagonal().sum())
        else:
            rows, cols, values = _dense_upper_pairs(model.J)
            trace = float(np.trace(model.J))
        n, h = model.num_spins, model.h
        return cls.from_pairs(
            n, rows, cols, 4.0 * values,
            linear=-4.0 * _row_sums(n, rows, cols, values) - 2.0 * h,
            offset=model.offset + trace + 2.0 * float(values.sum()) + float(h.sum()),
            name=model.name,
        )

    @staticmethod
    def sigma_to_x(sigma) -> np.ndarray:
        """Map a ±1 spin vector to the equivalent 0/1 vector (σ=1 ↦ x=0)."""
        s = np.asarray(sigma)
        return ((1 - s) // 2).astype(np.int8)

    @staticmethod
    def x_to_sigma(x) -> np.ndarray:
        """Map a 0/1 vector to the equivalent ±1 spin vector (x=0 ↦ σ=1)."""
        arr = np.asarray(x)
        return (1 - 2 * arr).astype(np.int8)
