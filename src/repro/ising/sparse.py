"""Sparse Ising backend: CSR couplings with the dense model's exact contract.

G-set-style COP graphs are overwhelmingly sparse (average degree ≈ 6-50 at
hundreds to thousands of nodes), yet a dense ``(n, n)`` coupling matrix costs
O(n²) memory and makes every local-field update an O(n) column gather.
:class:`SparseIsingModel` stores the couplings in CSR form — ``indptr``,
``indices``, ``data`` arrays covering *both* triangles of the symmetric
matrix — so memory is O(nnz) and a single-spin flip touches only the spin's
neighbours.

The class shares its base with :class:`~repro.ising.model.IsingModel`:
``local_fields``, ``delta_energy_single``, ``delta_energy_flips``,
``content_fingerprint``, ``random_configuration`` and the field accessors
are written once there, over primitives this class evaluates on neighbour
lists (``_matvec``, ``_row_field``, ``_flip_product``,
``coupling_diagonal``, ``_digest_parts``).  ``energy``, ``with_ancilla``,
``scaled``, ``permuted`` and ``max_abs_coupling`` follow the dense
formulas term for term.  For couplings whose values and partial sums are
exactly representable in binary floating point (integer or
dyadic-rational weights — which covers the ±1-weighted Gset families,
where ``J = W/4``) the two backends agree **bit for bit**, so fixed-seed
annealing trajectories coincide exactly; the equivalence suite in
``tests/test_sparse_model.py`` pins this down.  For general float
couplings agreement is to normal floating-point tolerance (summation
order differs).

Backend selection
-----------------
:func:`recommended_backend` implements the density-threshold heuristic used
by the Max-Cut/QUBO converters and the high-level solve API: a model is
built sparse when it has at least :data:`SPARSE_MIN_SPINS` spins **and** its
pair density ``m / (n·(n−1)/2)`` is at most
:data:`SPARSE_DENSITY_THRESHOLD`.  Below the size floor the dense matrix
fits in cache and numpy's dense kernels win; above the density ceiling CSR
indirection costs more than it saves.  :func:`as_backend` converts a model
either way, and :func:`dense_couplings` is the escape hatch for consumers
that genuinely need the dense matrix (the crossbar machines, which program
a physical array).
"""

from __future__ import annotations

import numpy as np

from repro.ising.model import _IsingBase
from repro.utils.keys import first_repeat
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    _integer_array,
    check_choice,
    check_count,
    check_finite,
    check_permutation,
    check_positive,
    check_real,
    check_spin_vector,
    check_square_symmetric,
    check_vector,
)

#: Minimum spin count before the auto heuristic considers the sparse backend.
SPARSE_MIN_SPINS = 512

#: Maximum pair density (``m`` over ``n·(n−1)/2``) for the sparse backend.
SPARSE_DENSITY_THRESHOLD = 0.125

BACKENDS = ("auto", "dense", "sparse", "packed")


def recommended_backend(
    num_spins: int, num_pairs: int, uniform_signs: bool = False
) -> str:
    """The density-threshold heuristic: ``"dense"``, ``"sparse"`` or ``"packed"``.

    Parameters
    ----------
    num_spins:
        Number of spins ``n``.
    num_pairs:
        Number of coupled (undirected) spin pairs ``m``.
    uniform_signs:
        True when every off-diagonal coupling shares one (small dyadic)
        magnitude — ±1 edge weights and their scaled embeddings (see
        :func:`repro.ising.packed.packed_scale`).  Whenever the sparse
        heuristic wins *and* the couplings are sign-only, the bit-packed
        backend is recommended instead: its trajectories are bit-identical
        to sparse at a fraction of the replica state traffic.
    """
    n = check_count("num_spins", num_spins, minimum=0)
    if n < SPARSE_MIN_SPINS:
        return "dense"
    possible = n * (n - 1) / 2.0
    if possible <= 0:
        return "dense"
    if num_pairs / possible > SPARSE_DENSITY_THRESHOLD:
        return "dense"
    return "packed" if (uniform_signs and num_pairs > 0) else "sparse"


class SparseIsingModel(_IsingBase):
    """An Ising Hamiltonian ``E(σ) = σᵀJσ + hᵀσ + offset`` in CSR storage.

    Use the constructors :meth:`from_edges` (COO pair list, each undirected
    pair given once) or :meth:`from_dense` (symmetric matrix) rather than
    ``__init__`` — the raw initialiser expects pre-validated CSR arrays
    covering both triangles.

    Parameters
    ----------
    indptr / indices / data:
        CSR arrays of the full symmetric coupling matrix (both ``(i, j)``
        and ``(j, i)`` stored for every off-diagonal coupling).
    fields:
        Optional length-``n`` external field ``h`` (``None`` means zero).
    offset:
        Constant added to every energy.
    name:
        Free-form label used in reports.
    """

    backend = "sparse"

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        fields: np.ndarray | None = None,
        offset: float = 0.0,
        name: str = "sparse-ising",
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.intp)
        indices = np.asarray(indices, dtype=np.intp)
        data = np.asarray(data, dtype=np.float64)
        if indptr.ndim != 1 or indptr.shape[0] < 1:
            raise ValueError("indptr must be a 1-D array of length n + 1")
        n = indptr.shape[0] - 1
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.shape != data.shape or indices.ndim != 1:
            raise ValueError("indices and data must be matching 1-D arrays")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("column indices out of range")
        self._n = n
        self._indptr = indptr
        self._indices = indices
        self._data = data
        # Row id of every stored entry — used by the bincount matvec.
        self._rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
        check_finite("couplings", data, coords=(self._rows, indices))
        diag = np.zeros(n, dtype=np.float64)
        on_diag = self._rows == indices
        diag[self._rows[on_diag]] = data[on_diag]
        self._diag = diag
        self._h = check_vector("fields", fields, n)
        self.offset = check_real("offset", offset)
        self.name = str(name)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        rows,
        cols,
        values,
        fields=None,
        offset: float = 0.0,
        name: str = "sparse-ising",
    ) -> "SparseIsingModel":
        """Build from a COO pair list with each undirected pair given once.

        Off-diagonal entries are mirrored into both triangles; diagonal
        entries (``rows[k] == cols[k]``) are stored once.  Explicit zeros
        are dropped (they carry no energy and would skew the nonzero-median
        acceptance-gain heuristic).
        """
        n = check_count("n", n)
        r = np.atleast_1d(_integer_array("rows", rows, "spin indices"))
        c = np.atleast_1d(_integer_array("cols", cols, "spin indices"))
        v = np.atleast_1d(np.asarray(values, dtype=np.float64))
        if not (r.shape == c.shape == v.shape) or r.ndim != 1:
            raise ValueError("rows, cols and values must be matching 1-D arrays")
        if r.size and (min(r.min(), c.min()) < 0 or max(r.max(), c.max()) >= n):
            raise ValueError(f"coupling indices out of range [0, {n})")
        lo, hi = np.minimum(r, c), np.maximum(r, c)
        repeat = first_repeat(lo * n + hi)
        if repeat is not None:
            i, j = repeat
            raise ValueError(
                "duplicate couplings: each undirected pair must appear once; "
                f"entries {i} and {j} both couple spins {lo[j]} and {hi[j]}"
            )
        keep = v != 0.0
        r, c, v = r[keep], c[keep], v[keep]
        off = r != c
        full_r = np.concatenate([r, c[off]])
        full_c = np.concatenate([c, r[off]])
        full_v = np.concatenate([v, v[off]])
        # Row-major CSR order; the keys are distinct after the check above.
        order = np.argsort(full_r * n + full_c)
        full_r, full_c, full_v = full_r[order], full_c[order], full_v[order]
        indptr = np.zeros(n + 1, dtype=np.intp)
        indptr[1:] = np.cumsum(np.bincount(full_r, minlength=n))
        return cls(indptr, full_c, full_v, fields, offset=offset, name=name)

    @classmethod
    def from_dense(
        cls,
        couplings,
        fields=None,
        offset: float = 0.0,
        name: str = "sparse-ising",
    ) -> "SparseIsingModel":
        """Build from a symmetric dense matrix, keeping nonzero entries."""
        J = check_square_symmetric(check_finite("couplings", couplings), "couplings")
        n = J.shape[0]
        r, c = np.nonzero(J)  # row-major → already CSR ordered
        indptr = np.zeros(n + 1, dtype=np.intp)
        indptr[1:] = np.cumsum(np.bincount(r, minlength=n))
        return cls(
            indptr,
            c.astype(np.intp),
            J[r, c].astype(np.float64),
            fields,
            offset=offset,
            name=name,
        )

    @classmethod
    def from_ising(cls, model) -> "SparseIsingModel":
        """Convert a dense :class:`~repro.ising.model.IsingModel`."""
        return cls.from_dense(
            model.J,
            model.h.copy() if model.has_fields else None,
            offset=model.offset,
            name=model.name,
        )

    @classmethod
    def random(
        cls,
        n: int,
        degree: float = 6.0,
        coupling_scale: float = 1.0,
        with_fields: bool = False,
        seed=None,
    ) -> "SparseIsingModel":
        """Random sparse model with average degree ``degree`` (tests/demos).

        Couplings are uniform in ``[-coupling_scale, coupling_scale]`` on a
        uniform random edge set; never materialises a dense matrix.
        """
        from repro.ising.gset import random_edge_set  # local import, no cycle

        n = check_count("n", n, minimum=2)
        degree = check_positive("degree", degree)
        coupling_scale = check_positive("coupling_scale", coupling_scale)
        m = min(int(round(degree * n / 2.0)), n * (n - 1) // 2)
        rng = ensure_rng(seed)
        edges, _ = random_edge_set(n, m, seed=rng)
        values = rng.uniform(-coupling_scale, coupling_scale, size=m)
        h = rng.uniform(-coupling_scale, coupling_scale, size=n) if with_fields else None
        return cls.from_edges(
            n, edges[:, 0], edges[:, 1], values, h, name=f"sparse-random-{n}"
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_spins(self) -> int:
        """Number of spins ``n``."""
        return self._n

    @property
    def nnz(self) -> int:
        """Stored entries (off-diagonal couplings count twice)."""
        return int(self._data.shape[0])

    @property
    def num_interactions(self) -> int:
        """Number of coupled undirected spin pairs ``m``."""
        return (self.nnz - int(np.count_nonzero(self._diag))) // 2

    @property
    def density(self) -> float:
        """Pair density ``m / (n·(n−1)/2)``."""
        possible = self._n * (self._n - 1) / 2.0
        return self.num_interactions / possible if possible else 0.0

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw ``(indptr, indices, data)`` CSR arrays (do not mutate)."""
        return self._indptr, self._indices, self._data

    def _digest_parts(self) -> tuple[tuple[str, ...], tuple[np.ndarray, ...]]:
        return (), (self._indptr, self._indices, self._data)

    def max_abs_entry(self) -> float:
        """Largest |J_ij| over *all* stored entries (diagonal included).

        This is what a whole-matrix quantizer scales against
        (:meth:`~repro.circuits.quantize.MatrixQuantizer.lsb_for`), computed
        in O(nnz) without densifying.
        """
        return float(np.max(np.abs(self._data))) if self._data.size else 0.0

    def coupling_diagonal(self) -> np.ndarray:
        """Dense view of ``diag(J)`` (do not mutate)."""
        return self._diag

    def memory_bytes(self) -> int:
        """Bytes held by the coupling storage (CSR arrays + diagonal)."""
        return int(
            self._indptr.nbytes
            + self._indices.nbytes
            + self._data.nbytes
            + self._rows.nbytes
            + self._diag.nbytes
        )

    # ------------------------------------------------------------------
    # Energies
    # ------------------------------------------------------------------
    def _matvec(self, s: np.ndarray) -> np.ndarray:
        """``J @ s`` in O(nnz) via a segmented bincount sum."""
        if self._data.size == 0:
            return np.zeros(self._n, dtype=np.float64)
        return np.bincount(
            self._rows, weights=self._data * s[self._indices], minlength=self._n
        )

    def energy(self, sigma) -> float:
        """Exact energy ``σᵀJσ + hᵀσ + offset`` of a ±1 configuration."""
        s = check_spin_vector(sigma, self._n).astype(np.float64)
        return float(s @ self._matvec(s) + self._h @ s) + self.offset

    def _row_field(self, s: np.ndarray, index: int) -> float:
        lo, hi = self._indptr[index], self._indptr[index + 1]
        return float(self._data[lo:hi] @ s[self._indices[lo:hi]].astype(np.float64))

    def _flip_product(self, sigma_c: np.ndarray, flips: np.ndarray) -> np.ndarray:
        """``J σ_c`` from the flipped spins' neighbour lists (O(Σ degree))."""
        y = np.zeros(self._n, dtype=np.float64)
        for j in flips:
            lo, hi = self._indptr[j], self._indptr[j + 1]
            y[self._indices[lo:hi]] += self._data[lo:hi] * sigma_c[j]
        return y

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def _canonical_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stored entries with each undirected pair once (row ≤ col)."""
        keep = self._rows <= self._indices
        return self._rows[keep], self._indices[keep], self._data[keep]

    def with_ancilla(self) -> "SparseIsingModel":
        """Fold the external field into couplings via one ancilla spin.

        Same construction as :meth:`IsingModel.with_ancilla`: spin 0 is
        pinned to +1 by convention and ``J'_{0j} = h_j / 2``.
        """
        r, c, v = self._canonical_coo()
        hj = np.flatnonzero(self._h)
        rows = np.concatenate([np.zeros(hj.size, dtype=np.intp), r + 1])
        cols = np.concatenate([hj + 1, c + 1])
        vals = np.concatenate([self._h[hj] / 2.0, v])
        return SparseIsingModel.from_edges(
            self._n + 1, rows, cols, vals, None,
            offset=self.offset, name=f"{self.name}+ancilla",
        )

    def scaled(self, factor: float) -> "SparseIsingModel":
        """Return a copy with ``J``, ``h`` and ``offset`` scaled by ``factor``."""
        return SparseIsingModel(
            self._indptr.copy(),
            self._indices.copy(),
            self._data * factor,
            self._h * factor if self.has_fields else None,
            offset=self.offset * factor,
            name=self.name,
        )

    def permuted(self, perm) -> "SparseIsingModel":
        """Relabel the spins through a permutation without densifying.

        ``perm`` is a :class:`~repro.core.reorder.Permutation` (or a raw
        ``forward`` array with ``forward[old] = new``).  The CSR arrays are
        re-sorted in O(nnz log nnz) and the field vector is gathered once;
        coupling *values* are moved, never recomputed, so
        ``permuted(p).permuted(p.inverse)`` round-trips bit for bit and
        energies are permutation-equivariant (exactly so for dyadic
        couplings, where every sum is order-independent in floating point).
        """
        fwd, bwd = check_permutation(perm, self._n)
        r = fwd[self._rows]
        c = fwd[self._indices]
        # Row-major CSR order: stable only if a raw CSR repeats an entry.
        key = r * self._n + c
        order = np.argsort(key)
        if (np.diff(key[order]) == 0).any():
            order = np.argsort(key, kind="stable")
        indptr = np.zeros(self._n + 1, dtype=np.intp)
        indptr[1:] = np.cumsum(np.bincount(r, minlength=self._n))
        return SparseIsingModel(
            indptr,
            c[order],
            self._data[order],
            self._h[bwd] if self.has_fields else None,
            offset=self.offset,
            name=self.name,
        )

    def max_abs_coupling(self) -> float:
        """Largest |J_ij| off the diagonal (used for quantization scaling)."""
        off = self._data[self._rows != self._indices]
        return float(np.max(np.abs(off))) if off.size else 0.0

    def offdiag_abs_values(self) -> np.ndarray:
        """|J_ij| of all stored off-diagonal entries (both triangles)."""
        return np.abs(self._data[self._rows != self._indices])

    def to_dense(self):
        """Materialise an equivalent dense :class:`IsingModel`."""
        from repro.ising.model import IsingModel  # local import, no cycle

        return IsingModel(
            self.toarray(),
            self._h.copy() if self.has_fields else None,
            offset=self.offset,
            name=self.name,
        )

    def toarray(self) -> np.ndarray:
        """The dense coupling matrix (O(n²) memory — use sparingly)."""
        J = np.zeros((self._n, self._n), dtype=np.float64)
        J[self._rows, self._indices] = self._data
        return J

    def brute_force_minimum(self) -> tuple[np.ndarray, float]:
        """Exhaustively minimise the Hamiltonian (only for ``n <= 20``)."""
        return self.to_dense().brute_force_minimum()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseIsingModel(n={self._n}, pairs={self.num_interactions}, "
            f"density={self.density:.4f}, name={self.name!r})"
        )


# ----------------------------------------------------------------------
# Backend conversion helpers
# ----------------------------------------------------------------------
def as_backend(model, backend: str = "auto"):
    """Return ``model`` converted to the requested coupling backend.

    ``backend`` is ``"dense"``, ``"sparse"``, ``"packed"`` or ``"auto"``
    (pick by the density heuristic of :func:`recommended_backend`, which
    promotes sparse to packed when all couplings are sign-only).  Models
    already in the requested backend are returned unchanged; requesting
    ``"sparse"`` on a packed model returns the plain CSR twin (so
    backend comparisons measure genuinely unpacked kernels).
    """
    check_choice("backend", backend, BACKENDS)
    # Local import: the packed model subclasses SparseIsingModel, so a
    # module-level import here would be circular.
    from repro.ising.packed import PackedIsingModel, packed_scale

    if backend == "auto":
        if model.backend == "dense":
            J = model.J
            pairs = (np.count_nonzero(J) - np.count_nonzero(np.diag(J))) // 2
        else:
            pairs = model.num_interactions
        backend = recommended_backend(
            model.num_spins, pairs, uniform_signs=packed_scale(model) is not None
        )
    if backend == model.backend:
        return model
    if backend == "dense":
        return model.to_dense()
    if model.backend == "packed":
        return model.to_sparse()
    sparse = SparseIsingModel.from_ising(model) if model.backend == "dense" else model
    return sparse if backend == "sparse" else PackedIsingModel.from_sparse(sparse)


def dense_couplings(model) -> np.ndarray:
    """The dense coupling matrix of either backend.

    Consumers that physically need the full matrix (crossbar programming,
    quantizer sweeps) call this; everything on the solver path should go
    through :func:`repro.core.coupling.coupling_ops` instead so sparse
    models stay sparse.
    """
    J = getattr(model, "J", None)
    if J is not None:
        return J
    if isinstance(model, SparseIsingModel):
        return model.toarray()
    raise TypeError(
        f"expected an IsingModel or SparseIsingModel, got {type(model).__name__}"
    )
