"""The incremental-E transformation (paper Sec. 3.2, Fig 4/5).

Given the current spin vector ``σ`` and a set ``F`` of spins to flip, define

* ``σ_f`` — the 0/1 flip mask (1 on ``F``),
* ``σ_new = σ ∘ (1 − 2 σ_f)`` — the proposed configuration,
* ``σ_c = σ_new ∘ σ_f`` — flipped entries of ``σ_new``, zero elsewhere,
* ``σ_r = σ_new ∘ (1 − σ_f)`` — unflipped entries, zero elsewhere.

Then (Eq. 9) the energy difference of a symmetric-``J`` Hamiltonian is

.. math::  \\Delta E = E(\\sigma_{new}) - E(\\sigma) = 4\\,\\sigma_r^T J \\sigma_c,

with only ``(n − |F|)·|F|`` product terms instead of the ``n²`` of the
direct-E recomputation.  External fields add ``2 hᵀ σ_c`` (handled by
:meth:`repro.ising.IsingModel.delta_energy_flips`, or exactly absorbed into
``J`` by :meth:`~repro.ising.IsingModel.with_ancilla`).

These helpers are shared by the software annealers and the hardware
machines so both sides of the repo agree on the transformation.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_flip_set, check_spin_vector


def flip_mask(n: int, flip_indices) -> np.ndarray:
    """Build the 0/1 flip mask ``σ_f`` for the index set ``F``."""
    mask = np.zeros(n, dtype=np.int8)
    mask[check_flip_set(flip_indices, n)] = 1
    return mask


def apply_flips(sigma, sigma_f) -> np.ndarray:
    """Compute ``σ_new = σ ∘ (1 − 2 σ_f)`` (Algorithm 1, line 4)."""
    s = check_spin_vector(sigma)
    mask = np.asarray(sigma_f, dtype=np.int8)
    if mask.shape != s.shape:
        raise ValueError("sigma_f must match sigma's shape")
    return (s * (1 - 2 * mask)).astype(np.int8)


def decompose(sigma_new, sigma_f) -> tuple[np.ndarray, np.ndarray]:
    """Split ``σ_new`` into ``(σ_r, σ_c)`` (Algorithm 1, line 5).

    Returns ``σ_r`` (unflipped entries kept, flipped zeroed) and ``σ_c``
    (flipped entries kept, others zeroed); both in {−1, 0, +1}.
    """
    s_new = check_spin_vector(sigma_new).astype(np.float64)
    mask = np.asarray(sigma_f, dtype=np.float64)
    if mask.shape != s_new.shape:
        raise ValueError("sigma_f must match sigma_new's shape")
    sigma_c = s_new * mask
    sigma_r = s_new * (1.0 - mask)
    return sigma_r, sigma_c


def incremental_vectors(sigma, flip_indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-call convenience: ``(σ_new, σ_r, σ_c)`` for a flip set."""
    s = check_spin_vector(sigma)
    mask = flip_mask(s.shape[0], flip_indices)
    sigma_new = apply_flips(s, mask)
    sigma_r, sigma_c = decompose(sigma_new, mask)
    return sigma_new, sigma_r, sigma_c


def cross_term(J: np.ndarray, sigma_r: np.ndarray, sigma_c: np.ndarray) -> float:
    """The VMV core ``σ_rᵀ J σ_c``, evaluated sparsely over ``F``.

    Cost is ``O(n · |F|)``: one matrix column per flipped spin.
    """
    cols = np.flatnonzero(sigma_c)
    if cols.size == 0:
        return 0.0
    partial = J[:, cols] @ sigma_c[cols]
    return float(sigma_r @ partial)


def delta_energy(model, sigma, flip_indices) -> float:
    """ΔE via the incremental identity (including any field term).

    Works for both coupling backends: dense models go through the explicit
    ``σ_r``/``σ_c`` decomposition and :func:`cross_term`; sparse models
    delegate to their own O(Σ degree) ``delta_energy_flips``.
    """
    s = check_spin_vector(sigma, model.num_spins)
    J = getattr(model, "J", None)
    if J is None:
        return float(model.delta_energy_flips(s, flip_indices))
    _, sigma_r, sigma_c = incremental_vectors(s, flip_indices)
    value = cross_term(J, sigma_r, sigma_c)
    return 4.0 * value + 2.0 * float(model.h @ sigma_c)


def num_product_terms(n: int, flips: int) -> tuple[int, int]:
    """Product-term counts ``(direct, incremental)`` of Fig 5.

    Direct-E evaluates ``n²`` terms; incremental-E ``(n − |F|)·|F|``.
    """
    if n <= 0 or flips < 0 or flips > n:
        raise ValueError("need 0 <= flips <= n and n > 0")
    return n * n, (n - flips) * flips
