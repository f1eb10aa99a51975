"""Tests for the QUBO model and the exact Ising ⇄ QUBO conversions."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ising import (
    GraphColoringProblem,
    IsingModel,
    PackedIsingModel,
    QuboModel,
    SparseIsingModel,
)
from repro.utils.guards import forbid_densification
from repro.utils.rng import ensure_rng
from tests.conftest import dense_qubo_to_ising, model_bytes


def random_qubo(seed, n=None):
    rng = ensure_rng(seed)
    n = n or int(rng.integers(2, 9))
    Q = rng.uniform(-2, 2, (n, n))
    Q = (Q + Q.T) / 2
    np.fill_diagonal(Q, 0.0)
    q = rng.uniform(-2, 2, n)
    return QuboModel(Q, q, offset=float(rng.uniform(-3, 3)))


class TestConstruction:
    def test_diagonal_absorbed_into_linear(self):
        Q = np.array([[2.0, 1.0], [1.0, -3.0]])
        m = QuboModel(Q, np.array([0.5, 0.5]))
        assert np.all(np.diag(m.Q) == 0)
        assert m.q == pytest.approx([2.5, -2.5])
        # objective values unchanged versus naive evaluation
        for x in itertools.product((0, 1), repeat=2):
            arr = np.array(x, dtype=float)
            naive = arr @ Q @ arr + np.array([0.5, 0.5]) @ arr
            assert m.value(list(x)) == pytest.approx(naive)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            QuboModel(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_value_validates_binary(self):
        m = random_qubo(1)
        with pytest.raises(ValueError, match="0/1"):
            m.value(np.full(m.num_variables, 0.5))

    def test_value_validates_shape(self):
        m = random_qubo(1)
        with pytest.raises(ValueError):
            m.value(np.zeros(m.num_variables + 1))


class TestConversions:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_to_ising_preserves_objective(self, seed):
        qubo = random_qubo(seed)
        ising = qubo.to_ising()
        n = qubo.num_variables
        for bits in itertools.product((0, 1), repeat=n):
            x = np.array(bits, dtype=np.int8)
            sigma = QuboModel.x_to_sigma(x)
            assert ising.energy(sigma) == pytest.approx(qubo.value(x), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_round_trip_preserves_objective(self, seed):
        qubo = random_qubo(seed)
        back = QuboModel.from_ising(qubo.to_ising())
        n = qubo.num_variables
        for bits in itertools.product((0, 1), repeat=n):
            x = np.array(bits, dtype=np.int8)
            assert back.value(x) == pytest.approx(qubo.value(x), abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_from_ising_preserves_objective(self, seed):
        model = IsingModel.random(6, with_fields=True, seed=seed)
        qubo = QuboModel.from_ising(model)
        for bits in itertools.product((0, 1), repeat=6):
            x = np.array(bits, dtype=np.int8)
            sigma = QuboModel.x_to_sigma(x)
            assert qubo.value(x) == pytest.approx(model.energy(sigma), abs=1e-9)

    def test_variable_maps_are_inverse(self):
        x = np.array([0, 1, 1, 0], dtype=np.int8)
        assert np.array_equal(QuboModel.sigma_to_x(QuboModel.x_to_sigma(x)), x)
        sigma = np.array([1, -1, 1], dtype=np.int8)
        assert np.array_equal(QuboModel.x_to_sigma(QuboModel.sigma_to_x(sigma)), sigma)

    def test_ising_diagonal_handled_as_constant(self):
        J = np.array([[1.5, 0.5], [0.5, -1.0]])
        model = IsingModel(J)
        qubo = QuboModel.from_ising(model)
        for bits in itertools.product((0, 1), repeat=2):
            x = np.array(bits, dtype=np.int8)
            sigma = QuboModel.x_to_sigma(x)
            assert qubo.value(x) == pytest.approx(model.energy(sigma), abs=1e-9)


class TestFromPairs:
    def test_matches_dense_constructor(self):
        rng = ensure_rng(3)
        Q = rng.integers(-3, 4, (7, 7)).astype(float)
        Q = Q + Q.T
        q = rng.uniform(-1, 1, 7)
        dense = QuboModel(Q, q, offset=1.5)
        r, c = np.nonzero(Q)
        # Both triangles and the diagonal, as one entry per matrix cell:
        # a dense builder writes each off-diagonal value twice.
        off = r != c
        pairs = QuboModel.from_pairs(
            7, r, c, np.where(off, Q[r, c] / 2.0, Q[r, c]), linear=q, offset=1.5
        )
        assert np.array_equal(pairs.Q, dense.Q)
        assert np.array_equal(pairs.q, dense.q)
        for a, b in zip(pairs.pairs(), dense.pairs()):
            assert a.tobytes() == b.tobytes()

    def test_diagonal_folds_into_linear(self):
        m = QuboModel.from_pairs(3, [1, 0, 1], [1, 2, 1], [2.0, 1.0, 0.5],
                                 linear=[0.25, 0.25, 0.25])
        assert m.q.tolist() == [0.25, 2.75, 0.25]
        assert m.pairs()[2].tolist() == [1.0]
        assert np.all(np.diag(m.Q) == 0)

    def test_duplicate_and_reversed_pairs_sum(self):
        m = QuboModel.from_pairs(4, [2, 0, 3, 0], [0, 2, 1, 2], [1.0, 0.5, 2.0, 0.25])
        rows, cols, values = m.pairs()
        assert rows.tolist() == [0, 1]
        assert cols.tolist() == [2, 3]
        assert values.tolist() == [1.75, 2.0]
        assert m.Q[2, 0] == m.Q[0, 2] == 1.75

    def test_pairs_summing_to_zero_are_dropped(self):
        m = QuboModel.from_pairs(3, [0, 1, 1], [1, 0, 2], [1.5, -1.5, 1.0])
        rows, cols, _ = m.pairs()
        assert list(zip(rows.tolist(), cols.tolist())) == [(1, 2)]

    def test_sums_in_input_order(self):
        # Sequential `+=` from 0.0 rounds the 1.0 away at 1e16, so the
        # dense builder ends at exactly 0 and drops the pair; any other
        # order (or an exact sum) keeps 1.0.
        values = (1.0, 1e16, -1e16)
        Q = np.zeros((2, 2))
        for w in values:
            Q[0, 1] += w
            Q[1, 0] += w
        assert Q[0, 1] == 0.0
        m = QuboModel.from_pairs(2, [0, 1, 0], [1, 0, 1], values)
        assert m.pairs()[2].size == 0
        reverse = QuboModel.from_pairs(2, [0, 1, 0], [1, 0, 1], values[::-1])
        assert reverse.pairs()[2].tolist() == [1.0]

    @pytest.mark.parametrize(
        "args, match",
        [
            ((3, [0], [3], [1.0]), r"cols must lie in \[0, 3\)"),
            ((3, [-1], [1], [1.0]), r"rows must lie in \[0, 3\)"),
            ((3, [0], [1], [np.nan]), "values must be finite"),
            ((3, [0], [1], [np.inf]), "values must be finite"),
            ((3, [0, 1], [1], [1.0]), "rows, cols and values must be matching"),
            ((3, [0], [1], [1.0, 2.0]), "rows, cols and values must be matching"),
            ((0, [], [], []), "n must be >= 1"),
            ((-2, [], [], []), "n must be >= 1"),
        ],
    )
    def test_boundary_errors_name_the_argument(self, args, match):
        with pytest.raises(ValueError, match=match):
            QuboModel.from_pairs(*args)

    def test_fractional_indices_refused(self):
        """A fractional index is refused, not truncated onto another variable."""
        with pytest.raises(ValueError, match="^rows must hold integer variable indices"):
            QuboModel.from_pairs(3, [0.7], [2.2], [1.0])
        with pytest.raises(ValueError, match="^cols must hold integer variable indices"):
            QuboModel.from_pairs(3, [0], [2.2], [1.0])
        integral = QuboModel.from_pairs(3, [0.0], [2.0], [1.0])
        assert integral.value([1, 0, 1]) == 2.0

    def test_linear_shape_checked(self):
        with pytest.raises(ValueError, match=r"linear must have shape \(3,\)"):
            QuboModel.from_pairs(3, [0], [1], [1.0], linear=[1.0, 2.0])

    def test_empty_pair_list(self):
        m = QuboModel.from_pairs(2, [], [], [], linear=[1.0, -1.0], offset=2.0)
        assert m.value([1, 0]) == 3.0
        ising = m.to_ising(backend="sparse")
        assert ising.nnz == 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), backend=st.sampled_from(["dense", "sparse", "auto"]))
    def test_to_ising_matches_dense_reference(self, seed, backend):
        """Dyadic Q and q: the pair conversion is byte-equal to the matrix one."""
        rng = ensure_rng(seed)
        n = int(rng.integers(2, 12))
        Q = rng.integers(-4, 5, (n, n)) * (rng.random((n, n)) < 0.4) / 8.0
        Q = np.triu(Q, 1)
        Q = Q + Q.T
        q = rng.integers(-8, 9, n) / 4.0
        qubo = QuboModel(Q, q, offset=float(rng.integers(-8, 9)) / 2.0)
        assert model_bytes(qubo.to_ising(backend=backend)) == model_bytes(
            dense_qubo_to_ising(Q, q, qubo.offset, backend)
        )


class TestNoDensification:
    def test_from_ising_sparse_never_densifies(self):
        model = SparseIsingModel.random(600, degree=6.0, with_fields=True, seed=4)
        with forbid_densification(trap_matrix_hat=False):
            qubo = QuboModel.from_ising(model)
            back = qubo.to_ising(backend="sparse")
        sigma = model.random_configuration(seed=5)
        assert back.energy(sigma) == pytest.approx(model.energy(sigma), abs=1e-9)
        assert qubo.value(QuboModel.sigma_to_x(sigma)) == pytest.approx(
            model.energy(sigma), abs=1e-9
        )

    def test_from_ising_packed_round_trip(self):
        edges = ensure_rng(6).integers(0, 64, (200, 2))
        edges = np.unique(np.sort(edges[edges[:, 0] != edges[:, 1]], axis=1), axis=0)
        signs = np.where(ensure_rng(7).random(len(edges)) < 0.5, -0.25, 0.25)
        sparse = SparseIsingModel.from_edges(64, edges[:, 0], edges[:, 1], signs)
        packed = PackedIsingModel.from_sparse(sparse)
        with forbid_densification(trap_matrix_hat=False):
            back = QuboModel.from_ising(packed).to_ising(backend="packed")
        assert isinstance(back, PackedIsingModel)
        for a, b in zip(back.csr_arrays(), packed.csr_arrays()):
            assert a.tobytes() == b.tobytes()
        sigma = packed.random_configuration(seed=8)
        assert back.energy(sigma) == pytest.approx(packed.energy(sigma), abs=1e-12)

    def test_coloring_build_memory_is_o_nnz(self):
        """The benchmark's colouring shape builds in a few MiB, not n² floats."""
        rng = ensure_rng(0)
        edges = np.empty((0, 2), dtype=np.intp)
        while len(edges) < 2000:
            draw = rng.integers(0, 1000, (2500, 2))
            draw = np.sort(draw[draw[:, 0] != draw[:, 1]], axis=1)
            edges = np.unique(np.concatenate([edges, draw]), axis=0)
        edges = edges[:2000]
        tracemalloc.start()
        try:
            model = GraphColoringProblem(1000, edges, 4).to_qubo().to_ising()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(model, SparseIsingModel)
        assert model.num_spins == 4000
        # One dense 4000×4000 float64 matrix alone would be 122 MiB.
        assert peak < 16 * 2**20
