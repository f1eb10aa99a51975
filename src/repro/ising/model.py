"""Ising model substrate: energy, local fields and spin-flip increments.

The paper (Eq. 1-2) works with the Hamiltonian

.. math::  E(\\sigma) = \\sigma^T J \\sigma + h^T \\sigma,

with symmetric coupling matrix ``J`` and ±1 spins.  Because ``σ_i² = 1`` the
diagonal of ``J`` only contributes a constant, so all increment formulas below
are independent of ``diag(J)``; we keep the diagonal around (the paper's Eq. 2
stores self couplings there) and account for it exactly in :meth:`energy`.

The central identity of the paper's incremental-E transformation (Eq. 5-9) is

.. math::  E(\\sigma_{new}) - E(\\sigma) = 4\\,\\sigma_r^T J \\sigma_c
            + 2\\,h^T \\sigma_c,

where ``σ_c`` keeps the flipped entries of ``σ_new`` (others zeroed) and
``σ_r`` keeps the unflipped entries.  :meth:`delta_energy_flips` implements it
and the test-suite verifies it against brute-force recomputation for random
models and flip sets.  It is written once, in the base that the dense
:class:`IsingModel` shares with the sparse and packed backends
(:mod:`repro.ising.sparse`, :mod:`repro.ising.packed`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_count,
    check_finite,
    check_flip_set,
    check_index,
    check_permutation,
    check_positive,
    check_probability,
    check_real,
    check_spin_vector,
    check_square_symmetric,
    check_vector,
)


class _IsingBase:
    """The half of every coupling backend that does not depend on storage.

    Each model names its backend in ``backend`` (``"dense"``, ``"sparse"``
    or ``"packed"``), the name :func:`~repro.core.coupling.coupling_ops`,
    :func:`~repro.ising.sparse.as_backend` and the solve plan dispatch on,
    and supplies the primitives over its own storage of ``J``:

    * ``_matvec(s)`` — ``J s``;
    * ``_row_field(s, i)`` — the single field ``(J s)_i``;
    * ``_flip_product(σ_c, F)`` — ``J σ_c`` for a ``σ_c`` that is zero
      off the flip set ``F``;
    * ``coupling_diagonal()`` — ``diag(J)``;
    * ``_digest_parts()`` — the header tags and coupling arrays
      :meth:`content_fingerprint` hashes.

    The formulas built on them are written once here, so every backend
    evaluates the same expressions, and for couplings whose partial sums
    are exact (integer or dyadic weights) the same floats.  ``energy``
    stays per backend: the dense ``σᵀJσ`` rounds differently from the
    CSR ``σᵀ(Jσ)``.
    """

    backend: ClassVar[str]
    _h: np.ndarray
    offset: float
    num_spins: int

    @property
    def h(self) -> np.ndarray:
        """The validated external-field vector (do not mutate)."""
        return self._h

    @property
    def has_fields(self) -> bool:
        """Whether any external field is non-zero."""
        return bool(np.any(self._h))

    def content_fingerprint(self) -> str:
        """Content digest of the problem data (couplings, fields, offset).

        Two models hash equal iff they carry byte-identical numbers on the
        same coupling backend; the display ``name`` is deliberately
        excluded.  This is the model half of the
        :class:`~repro.core.plan.PlanCache` key — backends hash
        differently on purpose, because the compiled artifacts differ.
        """
        tags, arrays = self._digest_parts()
        header = ":".join(
            (type(self).__name__, str(self.num_spins), *tags, repr(self.offset))
        )
        digest = hashlib.sha256(header.encode())
        for arr in (*arrays, self._h):
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()

    def local_fields(self, sigma) -> np.ndarray:
        """Return ``g = J σ`` for the given configuration.

        ``g`` lets single-flip increments be evaluated in O(1) per spin and is
        the state the software annealers keep incrementally up to date.
        """
        s = check_spin_vector(sigma, self.num_spins).astype(np.float64)
        return self._matvec(s)

    def delta_energy_single(self, sigma, index: int, g: np.ndarray | None = None) -> float:
        """Energy change from flipping the single spin ``index``.

        Parameters
        ----------
        sigma:
            Current ±1 configuration.
        index:
            Spin to flip.
        g:
            Optional precomputed local fields ``J σ`` (without them one
            row's field is computed: O(n) dense, O(degree) sparse).
        """
        n = self.num_spins
        s = check_spin_vector(sigma, n)
        index = check_index("index", index, n)
        si = float(s[index])
        gi = self._row_field(s, index) if g is None else float(g[index])
        # Diagonal term does not change under a flip; remove its contribution
        # from the local field before applying the rank-1 update formula.
        gi_off = gi - self.coupling_diagonal()[index] * si
        return -4.0 * si * gi_off - 2.0 * self._h[index] * si

    def delta_energy_flips(self, sigma, flip_indices) -> float:
        """Energy change from flipping the set ``flip_indices`` simultaneously.

        Implements the paper's incremental identity
        ``ΔE = 4 σ_rᵀ J σ_c + 2 hᵀ σ_c`` (Eq. 9 extended with fields), which
        costs ``O(n·|F|)`` dense and ``O(Σ degree(f))`` sparse instead of
        the ``O(n²)`` direct recomputation.
        """
        s = check_spin_vector(sigma, self.num_spins).astype(np.float64)
        flips = check_flip_set(flip_indices, self.num_spins)
        if flips.size == 0:
            return 0.0
        sigma_new = s.copy()
        sigma_new[flips] *= -1.0
        # σ_c: flipped entries of σ_new; σ_r: unflipped entries of σ_new.
        sigma_c = np.zeros_like(s)
        sigma_c[flips] = sigma_new[flips]
        sigma_r = sigma_new.copy()
        sigma_r[flips] = 0.0
        cross = float(sigma_r @ self._flip_product(sigma_c, flips))
        return 4.0 * cross + 2.0 * float(self._h @ sigma_c)

    def random_configuration(self, seed=None) -> np.ndarray:
        """Draw a uniform random ±1 configuration of the right length."""
        rng = ensure_rng(seed)
        return rng.choice(np.array([-1, 1], dtype=np.int8), size=self.num_spins)


@dataclass
class IsingModel(_IsingBase):
    """An Ising Hamiltonian ``E(σ) = σᵀJσ + hᵀσ + offset``.

    Parameters
    ----------
    couplings:
        Symmetric ``(n, n)`` matrix ``J``.  Both triangles must be populated
        (the energy sums over *all* ordered pairs, as in the paper's Eq. 2).
    fields:
        Optional length-``n`` external field ``h`` (``None`` means zero).
    offset:
        Constant added to every energy; used to preserve objective values
        through QUBO/Max-Cut conversions.
    name:
        Free-form label used in reports.
    """

    backend = "dense"

    couplings: np.ndarray
    fields: np.ndarray | None = None
    offset: float = 0.0
    name: str = "ising"
    _J: np.ndarray = field(init=False, repr=False)
    _h: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._J = check_square_symmetric(
            check_finite("couplings", self.couplings), "couplings"
        )
        n = self._J.shape[0]
        self._h = check_vector("fields", self.fields, n)
        self.offset = check_real("offset", self.offset)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_spins(self) -> int:
        """Number of spins ``n``."""
        return self._J.shape[0]

    @property
    def J(self) -> np.ndarray:
        """The validated symmetric coupling matrix (do not mutate)."""
        return self._J

    def coupling_diagonal(self) -> np.ndarray:
        """``diag(J)``, a read-only view of the matrix."""
        return np.diag(self._J)

    def _digest_parts(self) -> tuple[tuple[str, ...], tuple[np.ndarray, ...]]:
        return (), (self._J,)

    # ------------------------------------------------------------------
    # Energies
    # ------------------------------------------------------------------
    def energy(self, sigma) -> float:
        """Exact energy ``σᵀJσ + hᵀσ + offset`` of a ±1 configuration."""
        s = check_spin_vector(sigma, self.num_spins).astype(np.float64)
        return float(s @ self._J @ s + self._h @ s) + self.offset

    def _matvec(self, s: np.ndarray) -> np.ndarray:
        return self._J @ s

    def _row_field(self, s: np.ndarray, index: int) -> float:
        return float(self._J[index] @ s.astype(np.float64))

    def _flip_product(self, sigma_c: np.ndarray, flips: np.ndarray) -> np.ndarray:
        return self._J @ sigma_c

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_ancilla(self) -> "IsingModel":
        """Fold the external field into couplings via one ancilla spin.

        Returns an ``(n+1)``-spin model whose spin 0 is pinned to +1 by
        convention: ``J'_{0j} = J'_{j0} = h_j / 2`` reproduces ``hᵀσ`` exactly
        when ``σ_0 = +1``.  This is how a field is mapped onto a crossbar that
        only stores couplings.
        """
        n = self.num_spins
        J2 = np.zeros((n + 1, n + 1), dtype=np.float64)
        J2[1:, 1:] = self._J
        J2[0, 1:] = self._h / 2.0
        J2[1:, 0] = self._h / 2.0
        return IsingModel(J2, None, offset=self.offset, name=f"{self.name}+ancilla")

    def scaled(self, factor: float) -> "IsingModel":
        """Return a copy with ``J``, ``h`` and ``offset`` scaled by ``factor``."""
        return IsingModel(
            self._J * factor,
            self._h * factor if self.has_fields else None,
            offset=self.offset * factor,
            name=self.name,
        )

    def permuted(self, perm) -> "IsingModel":
        """Relabel the spins through a permutation.

        Dense counterpart of :meth:`SparseIsingModel.permuted`: ``perm`` is
        a :class:`~repro.core.reorder.Permutation` (or a raw ``forward``
        array) and entry ``(i, j)`` moves to ``(forward[i], forward[j])``.
        Values are gathered, never recomputed, so the round trip through
        ``perm.inverse`` is exact.
        """
        _, bwd = check_permutation(perm, self.num_spins)
        return IsingModel(
            self._J[np.ix_(bwd, bwd)],
            self._h[bwd] if self.has_fields else None,
            offset=self.offset,
            name=self.name,
        )

    def max_abs_coupling(self) -> float:
        """Largest |J_ij| off the diagonal (used for quantization scaling)."""
        off = self._J - np.diag(np.diag(self._J))
        return float(np.max(np.abs(off))) if off.size else 0.0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        n: int,
        density: float = 1.0,
        coupling_scale: float = 1.0,
        with_fields: bool = False,
        seed=None,
    ) -> "IsingModel":
        """Random symmetric model for tests and demos.

        Couplings are drawn uniform in ``[-coupling_scale, coupling_scale]``
        and thinned to the requested ``density``; the diagonal is zero.
        """
        n = check_count("n", n)
        check_probability("density", density)
        coupling_scale = check_positive("coupling_scale", coupling_scale)
        rng = ensure_rng(seed)
        upper = rng.uniform(-coupling_scale, coupling_scale, size=(n, n))
        mask = rng.random((n, n)) < density
        upper = np.triu(upper * mask, k=1)
        J = upper + upper.T
        h = rng.uniform(-coupling_scale, coupling_scale, size=n) if with_fields else None
        return cls(J, h, name=f"random-{n}")

    def brute_force_minimum(self) -> tuple[np.ndarray, float]:
        """Exhaustively minimise the Hamiltonian (only for ``n <= 20``).

        Used by tests and tiny examples to validate the annealers against
        ground truth.
        """
        n = self.num_spins
        if n > 20:
            raise ValueError(f"brute force limited to 20 spins, got {n}")
        best_sigma = None
        best_energy = np.inf
        for bits in range(1 << n):
            s = np.fromiter(
                ((1 if bits >> i & 1 else -1) for i in range(n)),
                dtype=np.int8,
                count=n,
            )
            e = self.energy(s)
            if e < best_energy:
                best_energy = e
                best_sigma = s
        return best_sigma, float(best_energy)
