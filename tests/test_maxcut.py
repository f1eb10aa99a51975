"""Tests for Max-Cut instances and their Ising embedding."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ising import MaxCutProblem
from repro.utils.rng import ensure_rng
from tests.conftest import brute_force_maxcut


class TestConstruction:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self loops"):
            MaxCutProblem(3, np.array([[0, 0]]))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            MaxCutProblem(3, np.array([[0, 1], [1, 0]]))

    def test_duplicate_error_names_the_first_repeat(self):
        # Rows 3, 4 and 5 repeat rows 0, 2 and 1: the first repeat is row
        # 3's, not the smallest pair's.
        edges = np.array([[3, 1], [1, 2], [0, 2], [1, 3], [2, 0], [2, 1]])
        with pytest.raises(
            ValueError,
            match=r"edge rows 0 and 3 both join nodes 1 and 3 \(0-based\)$",
        ):
            MaxCutProblem(4, edges)

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(ValueError, match="out of range"):
            MaxCutProblem(3, np.array([[0, 3]]))

    def test_rejects_bad_weights_shape(self):
        with pytest.raises(ValueError, match="weights"):
            MaxCutProblem(3, np.array([[0, 1]]), np.array([1.0, 2.0]))

    def test_empty_graph(self):
        p = MaxCutProblem(4, np.zeros((0, 2), dtype=int))
        assert p.num_edges == 0
        assert p.cut_value([1, 1, -1, -1]) == 0.0

    def test_degrees(self):
        p = MaxCutProblem(4, np.array([[0, 1], [0, 2], [0, 3]]))
        assert list(p.degrees()) == [3, 1, 1, 1]


class TestObjective:
    def test_triangle_cut_values(self):
        p = MaxCutProblem(3, np.array([[0, 1], [1, 2], [0, 2]]))
        assert p.cut_value([1, 1, 1]) == 0.0
        assert p.cut_value([1, -1, 1]) == 2.0

    def test_weighted_cut(self):
        p = MaxCutProblem(3, np.array([[0, 1], [1, 2]]), np.array([2.0, -1.0]))
        assert p.cut_value([1, -1, 1]) == pytest.approx(1.0)
        assert p.total_weight == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_energy_cut_bijection(self, seed):
        """cut(σ) = W_tot/2 − σᵀJσ for every configuration."""
        rng = ensure_rng(seed)
        n = int(rng.integers(4, 14))
        m = int(rng.integers(1, n * (n - 1) // 2 + 1))
        p = MaxCutProblem.random(n, m, weighted=bool(rng.integers(2)), seed=rng)
        model = p.to_ising()
        for _ in range(10):
            sigma = model.random_configuration(rng)
            assert p.cut_value(sigma) == pytest.approx(
                p.cut_from_energy(model.energy(sigma)), abs=1e-9
            )
            assert p.energy_from_cut(p.cut_value(sigma)) == pytest.approx(
                model.energy(sigma), abs=1e-9
            )

    def test_minimum_energy_is_maximum_cut(self, tiny_maxcut):
        model = tiny_maxcut.to_ising()
        _, e_min = model.brute_force_minimum()
        assert tiny_maxcut.cut_from_energy(e_min) == pytest.approx(
            brute_force_maxcut(tiny_maxcut)
        )

    def test_partition_covers_all_nodes(self, small_maxcut, rng):
        sigma = small_maxcut.to_ising().random_configuration(rng)
        left, right = small_maxcut.partition(sigma)
        assert len(left) + len(right) == small_maxcut.num_nodes
        assert set(left).isdisjoint(right)


class TestConversions:
    def test_adjacency_symmetric(self, small_maxcut):
        W = small_maxcut.adjacency()
        assert np.allclose(W, W.T)
        assert np.all(np.diag(W) == 0)
        assert W.sum() == pytest.approx(2 * small_maxcut.total_weight)

    def test_networkx_round_trip(self, small_maxcut):
        g = small_maxcut.to_networkx()
        back = MaxCutProblem.from_networkx(g)
        assert back.num_nodes == small_maxcut.num_nodes
        assert back.num_edges == small_maxcut.num_edges
        rng = ensure_rng(1)
        sigma = rng.choice(np.array([-1, 1], dtype=np.int8), small_maxcut.num_nodes)
        assert back.cut_value(sigma) == pytest.approx(small_maxcut.cut_value(sigma))

    def test_from_networkx_reads_weights(self):
        g = nx.Graph()
        g.add_weighted_edges_from([(0, 1, 3.0), (1, 2, -1.0)])
        p = MaxCutProblem.from_networkx(g)
        assert p.total_weight == pytest.approx(2.0)

    def test_ising_has_no_fields_and_quarter_weights(self, small_maxcut):
        model = small_maxcut.to_ising()
        assert not model.has_fields
        W = small_maxcut.adjacency()
        assert np.allclose(model.J, W / 4.0)
