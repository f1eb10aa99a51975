"""Tests for the incremental-E transformation (paper Sec. 3.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    apply_flips,
    cross_term,
    decompose,
    delta_energy,
    flip_mask,
    incremental_vectors,
    num_product_terms,
)
from repro.ising import IsingModel
from repro.utils.rng import ensure_rng


class TestVectors:
    def test_flip_mask(self):
        mask = flip_mask(5, [1, 3])
        assert mask.tolist() == [0, 1, 0, 1, 0]

    def test_flip_mask_validation(self):
        with pytest.raises(IndexError):
            flip_mask(3, [3])
        with pytest.raises(ValueError):
            flip_mask(3, [1, 1])
        with pytest.raises(ValueError, match="unique"):
            flip_mask(4, [2, 0, 3, 2])

    def test_apply_flips(self):
        sigma = np.array([1, -1, 1, -1], dtype=np.int8)
        mask = flip_mask(4, [0, 3])
        assert apply_flips(sigma, mask).tolist() == [-1, -1, 1, 1]

    def test_decompose_partitions_sigma_new(self):
        sigma = np.array([1, -1, 1, -1], dtype=np.int8)
        sigma_new, sigma_r, sigma_c = incremental_vectors(sigma, [1, 2])
        # σ_r + σ_c reassembles σ_new
        assert np.array_equal(sigma_r + sigma_c, sigma_new.astype(float))
        # σ_c non-zero exactly on the flip set, σ_r elsewhere
        assert np.flatnonzero(sigma_c).tolist() == [1, 2]
        assert np.flatnonzero(sigma_r).tolist() == [0, 3]

    def test_sigma_c_is_negated_original(self):
        sigma = np.array([1, -1, 1], dtype=np.int8)
        _, _, sigma_c = incremental_vectors(sigma, [0])
        assert sigma_c[0] == -1  # flipped value of +1

    def test_decompose_validates_shapes(self):
        with pytest.raises(ValueError):
            decompose(np.array([1, -1], dtype=np.int8), np.array([1, 0, 0]))


class TestDeltaEnergy:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_matches_model_delta(self, seed, data):
        """4 σ_rᵀJσ_c + 2 hᵀσ_c equals the direct energy difference."""
        rng = ensure_rng(seed)
        n = int(rng.integers(2, 14))
        model = IsingModel.random(n, with_fields=True, seed=rng)
        sigma = model.random_configuration(rng)
        k = data.draw(st.integers(1, n))
        flips = data.draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
        )
        sigma_new = sigma.copy()
        sigma_new[flips] *= -1
        direct = model.energy(sigma_new) - model.energy(sigma)
        assert delta_energy(model, sigma, flips) == pytest.approx(direct, abs=1e-9)

    def test_cross_term_sparse_equals_dense(self, rng):
        model = IsingModel.random(10, seed=1)
        sigma = model.random_configuration(rng)
        _, sigma_r, sigma_c = incremental_vectors(sigma, [2, 7])
        dense = float(sigma_r @ model.J @ sigma_c)
        assert cross_term(model.J, sigma_r, sigma_c) == pytest.approx(dense)

    def test_cross_term_empty(self):
        J = np.zeros((4, 4))
        assert cross_term(J, np.ones(4), np.zeros(4)) == 0.0


class TestComplexity:
    def test_product_term_counts(self):
        direct, incremental = num_product_terms(100, 1)
        assert direct == 10_000
        assert incremental == 99

    def test_incremental_linear_in_n(self):
        """The paper's O(n²) → O(n) claim, literally."""
        for n in (100, 200, 400):
            _, inc = num_product_terms(n, 2)
            assert inc == (n - 2) * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            num_product_terms(0, 0)
        with pytest.raises(ValueError):
            num_product_terms(5, 6)
