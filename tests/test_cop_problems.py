"""Tests for the non-Max-Cut COP families (coloring, knapsack, partitioning)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import solve_ising
from repro.ising import (
    GraphColoringProblem,
    KnapsackProblem,
    NumberPartitioningProblem,
    QuboModel,
)
from repro.utils.rng import ensure_rng
from tests.conftest import dense_qubo_to_ising, model_bytes

BACKENDS = ("dense", "sparse", "auto")


def dense_coloring_qubo(prob):
    """The matrix-filling colouring builder: the oracle for ``to_qubo``."""
    nv, k = prob.num_variables, prob.num_colors
    Q = np.zeros((nv, nv), dtype=np.float64)
    q = np.zeros(nv, dtype=np.float64)
    offset = 0.0
    A, B = float(prob.one_hot_weight), float(prob.conflict_weight)
    for v in range(prob.num_nodes):
        offset += A
        for c in range(k):
            q[prob.variable_index(v, c)] += -A
        for c in range(k):
            for c2 in range(c + 1, k):
                i, j = prob.variable_index(v, c), prob.variable_index(v, c2)
                Q[i, j] += A
                Q[j, i] += A
    for u, v in np.asarray(prob.edges).reshape(-1, 2):
        for c in range(k):
            i, j = prob.variable_index(int(u), c), prob.variable_index(int(v), c)
            Q[i, j] += B / 2.0
            Q[j, i] += B / 2.0
    return Q, q, offset


@st.composite
def coloring_instances(draw):
    """Small colourings with repeated and reversed edges, dyadic A and B."""
    n = draw(st.integers(2, 8))
    node = st.integers(0, n - 1)
    edges = draw(
        st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=20)
    )
    edges += [(v, u) for u, v in edges[: draw(st.integers(0, len(edges)))]]
    edges = draw(st.permutations(edges))
    return GraphColoringProblem(
        n,
        np.array(edges, dtype=np.intp).reshape(-1, 2),
        draw(st.integers(1, 5)),
        one_hot_weight=draw(st.integers(1, 64)) / 8.0,
        conflict_weight=draw(st.integers(1, 64)) / 16.0,
    )


class TestColoring:
    def triangle(self, k=3):
        return GraphColoringProblem(3, np.array([[0, 1], [1, 2], [0, 2]]), k)

    def test_proper_coloring_has_zero_energy(self):
        prob = self.triangle()
        x = np.zeros((3, 3))
        for v, c in enumerate((0, 1, 2)):
            x[v, c] = 1
        assert prob.to_qubo().value(x.ravel()) == pytest.approx(0.0)
        assert prob.is_proper(x.ravel())

    def test_conflict_costs_energy(self):
        prob = self.triangle()
        x = np.zeros((3, 3))
        x[0, 0] = x[1, 0] = x[2, 1] = 1  # vertices 0,1 share colour 0
        value = prob.to_qubo().value(x.ravel())
        assert value == pytest.approx(prob.conflict_weight)
        assert prob.violations(x.ravel())["conflicts"] == 1

    def test_missing_colour_costs_energy(self):
        prob = self.triangle()
        x = np.zeros((3, 3))
        x[0, 0] = x[1, 1] = 1  # vertex 2 uncoloured
        assert prob.to_qubo().value(x.ravel()) == pytest.approx(prob.one_hot_weight)
        assert prob.violations(x.ravel())["one_hot"] == 1

    def test_minimum_over_all_assignments_is_ground_energy(self):
        prob = GraphColoringProblem(3, np.array([[0, 1], [1, 2]]), 2)
        qubo = prob.to_qubo()
        best = min(
            qubo.value(np.array(bits))
            for bits in itertools.product((0, 1), repeat=prob.num_variables)
        )
        assert best == pytest.approx(prob.ground_energy)

    def test_triangle_not_2_colorable(self):
        prob = GraphColoringProblem(3, np.array([[0, 1], [1, 2], [0, 2]]), 2)
        qubo = prob.to_qubo()
        best = min(
            qubo.value(np.array(bits))
            for bits in itertools.product((0, 1), repeat=prob.num_variables)
        )
        assert best > 0

    def test_decode(self):
        prob = self.triangle()
        x = np.zeros((3, 3))
        x[0, 2] = x[1, 0] = 1
        assert prob.decode(x.ravel()).tolist() == [2, 0, -1]

    def test_solver_finds_proper_coloring(self):
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])  # 4-cycle, 2-colorable
        prob = GraphColoringProblem(4, edges, 2)
        model = prob.to_qubo().to_ising()
        result = solve_ising(model, method="insitu", iterations=4000, seed=3)
        x = QuboModel.sigma_to_x(result.best_sigma)
        assert result.best_energy == pytest.approx(prob.ground_energy, abs=1e-9)
        assert prob.is_proper(x)

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphColoringProblem(0, np.zeros((0, 2)), 2)
        with pytest.raises(ValueError):
            GraphColoringProblem(3, np.array([[0, 0]]), 2)


class TestColoringPairParity:
    """The pair builder against the matrix-filling loops it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(prob=coloring_instances(), seed=st.integers(0, 2**32 - 1))
    def test_to_ising_byte_equal_to_dense_loops(self, prob, seed):
        Q, q, offset = dense_coloring_qubo(prob)
        qubo = prob.to_qubo()
        for backend in BACKENDS:
            assert model_bytes(qubo.to_ising(backend=backend)) == model_bytes(
                dense_qubo_to_ising(Q, q, offset, backend, name=prob.name)
            )
        x = ensure_rng(seed).integers(0, 2, prob.num_variables).astype(float)
        assert qubo.value(x) == pytest.approx(x @ Q @ x + q @ x + offset, abs=1e-9)

    @pytest.mark.parametrize(
        "weights, kind", [((4.0, 2.0), "SparseIsingModel"), ((1.0, 2.0), "PackedIsingModel")]
    )
    def test_auto_backend_decision_matches(self, weights, kind):
        """600 spins: ``auto`` goes sparse, or packed when every |J| is one value."""
        rng = ensure_rng(21)
        edges = np.unique(np.sort(rng.integers(0, 150, (400, 2)), axis=1), axis=0)
        edges = edges[edges[:, 0] != edges[:, 1]][:300]
        prob = GraphColoringProblem(150, edges, 4, *weights)
        model = prob.to_qubo().to_ising()
        assert type(model).__name__ == kind
        Q, q, offset = dense_coloring_qubo(prob)
        assert model_bytes(model) == model_bytes(
            dense_qubo_to_ising(Q, q, offset, "auto", name=prob.name)
        )


class TestKnapsack:
    def test_qubo_matches_objective_for_feasible(self):
        prob = KnapsackProblem(np.array([10.0, 7.0]), np.array([3.0, 2.0]), 5)
        qubo = prob.to_qubo()
        # take both items, exact capacity → slack 0, objective −17
        x = np.concatenate([[1, 1], np.zeros(prob.num_slack_bits)])
        assert qubo.value(x) == pytest.approx(-17.0)

    def test_slack_register_covers_capacity(self):
        from repro.ising.knapsack import _slack_coefficients

        for cap in (0, 1, 2, 3, 7, 10, 100):
            coeffs = _slack_coefficients(cap)
            assert coeffs.sum() == cap
            reachable = {0}
            for c in coeffs:
                reachable |= {r + c for r in reachable}
            assert set(range(cap + 1)) <= reachable

    def test_qubo_minimum_matches_dp(self):
        prob = KnapsackProblem.random(6, seed=5)
        qubo = prob.to_qubo()
        best_val = None
        for bits in itertools.product((0, 1), repeat=qubo.num_variables):
            v = qubo.value(np.array(bits))
            best_val = v if best_val is None else min(best_val, v)
        _, dp_value = prob.brute_force_optimum()
        # QUBO minimum = −(optimal value) at a feasible, slack-consistent point
        assert best_val == pytest.approx(-dp_value, abs=1e-9)

    def test_dp_optimum_feasible(self):
        prob = KnapsackProblem.random(10, seed=8)
        sel, value = prob.brute_force_optimum()
        assert prob.is_feasible(sel)
        assert prob.total_value(sel) == pytest.approx(value)

    def test_decode_extracts_items(self):
        prob = KnapsackProblem(np.array([5.0]), np.array([2.0]), 4)
        x = np.concatenate([[1], np.zeros(prob.num_slack_bits)])
        assert prob.decode(x).tolist() == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            KnapsackProblem(np.array([1.0]), np.array([-1.0]), 3)
        with pytest.raises(ValueError):
            KnapsackProblem(np.array([1.0, 2.0]), np.array([1.0]), 3)

    @pytest.mark.parametrize("capacity", [10.9, True, -1])
    def test_capacity_is_a_count(self, capacity):
        """A fractional or bool capacity used to truncate (10.9 ran as 10)."""
        items = (np.array([1.0, 2.0]), np.array([1.0, 3.0]))
        with pytest.raises(ValueError, match="capacity"):
            KnapsackProblem(*items, capacity)
        assert KnapsackProblem(*items, 10.0).capacity == 10
        assert KnapsackProblem(*items, 0).capacity == 0

    def test_solver_finds_good_solution(self):
        prob = KnapsackProblem.random(8, seed=2)
        model = prob.to_qubo().to_ising()
        result = solve_ising(model, method="sa", iterations=8000, seed=4)
        x = QuboModel.sigma_to_x(result.best_sigma)
        sel = prob.decode(x)
        _, dp_value = prob.brute_force_optimum()
        assert prob.is_feasible(sel)
        assert prob.total_value(sel) >= 0.8 * dp_value


class TestPartitioning:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_energy_equals_squared_residue(self, seed):
        prob = NumberPartitioningProblem.random(8, seed=seed)
        model = prob.to_ising()
        rng = ensure_rng(seed)
        sigma = rng.choice(np.array([-1, 1], dtype=np.int8), prob.num_items)
        assert model.energy(sigma) == pytest.approx(prob.residue(sigma) ** 2)
        assert prob.residue_from_energy(model.energy(sigma)) == pytest.approx(
            prob.residue(sigma)
        )

    def test_perfect_partition_found(self):
        prob = NumberPartitioningProblem(np.array([4.0, 3.0, 2.0, 5.0]))  # 4+3 = 2+5
        result = solve_ising(prob.to_ising(), method="insitu", iterations=2000, seed=1)
        assert prob.residue(result.best_sigma) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NumberPartitioningProblem(np.array([1.0]))
        with pytest.raises(ValueError):
            NumberPartitioningProblem(np.array([1.0, -2.0]))
