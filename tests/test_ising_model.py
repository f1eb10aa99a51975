"""Tests for the Ising model substrate, including the central flip identity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ising import IsingModel
from repro.utils.rng import ensure_rng


def random_model_and_state(seed, n=None, with_fields=True):
    rng = ensure_rng(seed)
    n = n or int(rng.integers(2, 16))
    model = IsingModel.random(n, with_fields=with_fields, seed=rng)
    sigma = model.random_configuration(rng)
    return model, sigma


class TestConstruction:
    def test_rejects_asymmetric_couplings(self):
        J = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            IsingModel(J)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            IsingModel(np.zeros((2, 3)))

    def test_rejects_wrong_field_length(self):
        with pytest.raises(ValueError, match="fields"):
            IsingModel(np.zeros((3, 3)), np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_couplings_before_symmetry(self, bad):
        """A NaN coupling used to fail as "must be symmetric"."""
        J = np.zeros((3, 3))
        J[0, 2] = J[2, 0] = bad
        with pytest.raises(ValueError, match=r"^couplings must be finite, got .* at \[0, 2\]$"):
            IsingModel(J)

    def test_rejects_non_finite_fields_and_offset(self):
        with pytest.raises(ValueError, match=r"^fields must be finite, got nan at \[1\]$"):
            IsingModel(np.zeros((3, 3)), np.array([0.0, np.nan, 1.0]))
        with pytest.raises(ValueError, match="^offset must be finite, got inf$"):
            IsingModel(np.zeros((3, 3)), offset=np.inf)

    def test_defaults(self):
        m = IsingModel(np.zeros((4, 4)))
        assert m.num_spins == 4
        assert not m.has_fields
        assert m.offset == 0.0

    def test_random_density_zero_gives_empty_couplings(self):
        m = IsingModel.random(10, density=0.0, seed=1)
        assert np.all(m.J == 0)

    def test_random_rejects_bad_args(self):
        with pytest.raises(ValueError):
            IsingModel.random(0)
        with pytest.raises(ValueError):
            IsingModel.random(5, density=1.5)

    @pytest.mark.parametrize(
        "scale, match",
        [(-1.0, "> 0, got -1.0"), (np.nan, "finite, got nan"), (True, "a real number, got True")],
    )
    def test_random_refuses_bad_coupling_scale(self, scale, match):
        with pytest.raises(ValueError, match=f"^coupling_scale must be {match}$"):
            IsingModel.random(5, coupling_scale=scale)


class TestEnergy:
    def test_energy_of_known_model(self):
        J = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = IsingModel(J, np.array([0.5, -0.5]), offset=2.0)
        # E = 2*J01*s0*s1 + h·s + offset
        assert m.energy([1, 1]) == pytest.approx(2.0 + 0.0 + 2.0)
        assert m.energy([1, -1]) == pytest.approx(-2.0 + 1.0 + 2.0)

    def test_energy_requires_pm1(self, small_model):
        with pytest.raises(ValueError, match="±1"):
            small_model.energy(np.zeros(small_model.num_spins))

    def test_diagonal_contributes_constant(self):
        J = np.diag([1.0, 2.0, 3.0])
        m = IsingModel(J)
        for sigma in ([1, 1, 1], [-1, 1, -1], [-1, -1, -1]):
            assert m.energy(sigma) == pytest.approx(6.0)

    def test_local_fields_match_definition(self, small_model, rng):
        sigma = small_model.random_configuration(rng)
        g = small_model.local_fields(sigma)
        assert np.allclose(g, small_model.J @ sigma.astype(float))


class TestFlipIdentity:
    """ΔE = 4 σ_rᵀJσ_c + 2 hᵀσ_c — the identity the whole paper rests on."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_multi_flip_identity_matches_direct(self, seed, data):
        model, sigma = random_model_and_state(seed)
        n = model.num_spins
        k = data.draw(st.integers(1, n))
        flips = data.draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
        )
        sigma_new = sigma.copy()
        sigma_new[flips] *= -1
        direct = model.energy(sigma_new) - model.energy(sigma)
        incremental = model.delta_energy_flips(sigma, flips)
        assert incremental == pytest.approx(direct, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_single_flip_identity(self, seed):
        model, sigma = random_model_and_state(seed)
        g = model.local_fields(sigma)
        for i in range(model.num_spins):
            sigma_new = sigma.copy()
            sigma_new[i] *= -1
            direct = model.energy(sigma_new) - model.energy(sigma)
            assert model.delta_energy_single(sigma, i) == pytest.approx(direct, abs=1e-9)
            assert model.delta_energy_single(sigma, i, g) == pytest.approx(direct, abs=1e-9)

    def test_flip_identity_independent_of_diagonal(self, rng):
        base = IsingModel.random(8, seed=4)
        with_diag = IsingModel(base.J + np.diag(rng.uniform(-2, 2, 8)))
        sigma = base.random_configuration(rng)
        for flips in ([0], [1, 5], [2, 3, 4]):
            assert base.delta_energy_flips(sigma, flips) == pytest.approx(
                with_diag.delta_energy_flips(sigma, flips)
            )

    def test_empty_flip_set_is_zero(self, small_model, rng):
        sigma = small_model.random_configuration(rng)
        assert small_model.delta_energy_flips(sigma, []) == 0.0

    def test_duplicate_flips_rejected(self, small_model, rng):
        sigma = small_model.random_configuration(rng)
        with pytest.raises(ValueError, match="unique"):
            small_model.delta_energy_flips(sigma, [1, 1])

    def test_out_of_range_flip_rejected(self, small_model, rng):
        sigma = small_model.random_configuration(rng)
        with pytest.raises(IndexError):
            small_model.delta_energy_single(sigma, small_model.num_spins)


class TestDeltaEnergySingleBoundary:
    """``index=True`` used to pass ``0 <= index < n`` and silently flip
    spin 1, and the index path skipped ``check_spin_vector`` entirely.
    Both backends share the regression."""

    def models(self):
        from repro.ising import SparseIsingModel

        dense = IsingModel.random(8, with_fields=True, seed=5)
        return dense, SparseIsingModel.from_dense(dense.J, dense.h)

    def test_boolean_index_rejected(self):
        for model in self.models():
            sigma = model.random_configuration(ensure_rng(1))
            with pytest.raises(ValueError, match="integer index"):
                model.delta_energy_single(sigma, True)

    def test_non_integer_index_rejected(self):
        for model in self.models():
            sigma = model.random_configuration(ensure_rng(1))
            with pytest.raises(ValueError, match="integer index"):
                model.delta_energy_single(sigma, 2.7)
            with pytest.raises(ValueError, match="integer index"):
                model.delta_energy_single(sigma, "3")

    def test_integral_float_and_numpy_index_accepted(self):
        dense, sparse = self.models()
        sigma = dense.random_configuration(ensure_rng(1))
        exact = dense.delta_energy_single(sigma, 2)
        assert dense.delta_energy_single(sigma, 2.0) == exact
        assert sparse.delta_energy_single(sigma, np.int64(2)) == pytest.approx(exact)

    def test_negative_index_rejected(self):
        for model in self.models():
            sigma = model.random_configuration(ensure_rng(1))
            with pytest.raises(IndexError, match=r"\[0, 8\)"):
                model.delta_energy_single(sigma, -1)

    def test_non_spin_sigma_rejected(self):
        for model in self.models():
            with pytest.raises(ValueError, match="±1"):
                model.delta_energy_single(np.zeros(8), 2)


class TestAncilla:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_ancilla_reproduces_field_energy(self, seed):
        model, sigma = random_model_and_state(seed, with_fields=True)
        folded = model.with_ancilla()
        extended = np.concatenate([[1], sigma]).astype(np.int8)
        assert folded.energy(extended) == pytest.approx(model.energy(sigma))

    def test_ancilla_has_no_fields(self, small_model):
        assert not small_model.with_ancilla().has_fields


class TestUtilities:
    def test_scaled(self, small_model, rng):
        sigma = small_model.random_configuration(rng)
        scaled = small_model.scaled(2.5)
        assert scaled.energy(sigma) == pytest.approx(2.5 * small_model.energy(sigma))

    def test_max_abs_coupling_ignores_diagonal(self):
        J = np.array([[9.0, 1.0], [1.0, 9.0]])
        assert IsingModel(J).max_abs_coupling() == 1.0

    def test_brute_force_minimum_is_global(self):
        model = IsingModel.random(8, with_fields=True, seed=2)
        sigma_star, e_star = model.brute_force_minimum()
        assert model.energy(sigma_star) == pytest.approx(e_star)
        rng = ensure_rng(0)
        for _ in range(50):
            s = model.random_configuration(rng)
            assert model.energy(s) >= e_star - 1e-9

    def test_brute_force_rejects_large(self):
        with pytest.raises(ValueError):
            IsingModel.random(21, seed=1).brute_force_minimum()

    def test_random_configuration_is_pm1(self, small_model):
        s = small_model.random_configuration(5)
        assert set(np.unique(s)).issubset({-1, 1})
