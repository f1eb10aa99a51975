"""Tests for the extension features: TSP, MIS, tiling, program-and-verify."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import InSituCimAnnealer, TiledCrossbar
from repro.circuits import DgFefetCrossbar
from repro.core import solve_ising
from repro.devices import VBG_MAX, FeFET, PulseTrain, program_and_verify
from repro.ising import (
    MaxCutProblem,
    MaxIndependentSetProblem,
    QuboModel,
    TravellingSalesmanProblem,
)
from repro.utils.rng import ensure_rng
from tests.conftest import dense_qubo_to_ising, model_bytes

BACKENDS = ("dense", "sparse", "auto")


def dense_tsp_qubo(tsp):
    """The matrix-filling Lucas builder: the oracle for ``to_qubo``."""
    n, nv, A = tsp.num_cities, tsp.num_variables, float(tsp.penalty)
    D = tsp.distances
    Q = np.zeros((nv, nv), dtype=np.float64)
    q = np.zeros(nv, dtype=np.float64)
    offset = 0.0

    def add_pair(i, j, w):
        Q[i, j] += w / 2.0
        Q[j, i] += w / 2.0

    for v in range(n):
        offset += A
        for p in range(n):
            q[tsp.variable_index(v, p)] += -A
        for p1 in range(n):
            for p2 in range(p1 + 1, n):
                add_pair(tsp.variable_index(v, p1), tsp.variable_index(v, p2), 2 * A)
    for p in range(n):
        offset += A
        for v in range(n):
            q[tsp.variable_index(v, p)] += -A
        for v1 in range(n):
            for v2 in range(v1 + 1, n):
                add_pair(tsp.variable_index(v1, p), tsp.variable_index(v2, p), 2 * A)
    for p in range(n):
        for u in range(n):
            for v in range(n):
                if u != v:
                    add_pair(
                        tsp.variable_index(u, p),
                        tsp.variable_index(v, (p + 1) % n),
                        float(D[u, v]),
                    )
    return Q, q, offset


def dense_mis_qubo(prob):
    """The matrix-filling MIS builder: the oracle for ``to_qubo``."""
    Q = np.zeros((prob.num_nodes, prob.num_nodes), dtype=np.float64)
    for u, v in np.asarray(prob.edges).reshape(-1, 2):
        Q[u, v] += prob.penalty / 2.0
        Q[v, u] += prob.penalty / 2.0
    return Q, -np.ones(prob.num_nodes, dtype=np.float64), 0.0


@st.composite
def integer_tsps(draw):
    n = draw(st.integers(3, 6))
    D = np.array(
        draw(st.lists(st.integers(0, 20), min_size=n * n, max_size=n * n)),
        dtype=np.float64,
    ).reshape(n, n)
    D = np.triu(D, 1)
    penalty = draw(st.one_of(st.none(), st.integers(1, 100)))
    return TravellingSalesmanProblem(D + D.T, penalty=penalty)


@st.composite
def mis_instances(draw):
    n = draw(st.integers(2, 10))
    node = st.integers(0, n - 1)
    edges = draw(
        st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=25)
    )
    edges += [(v, u) for u, v in edges[: draw(st.integers(0, len(edges)))]]
    return MaxIndependentSetProblem(
        n,
        np.array(edges, dtype=np.intp).reshape(-1, 2),
        penalty=draw(st.integers(9, 64)) / 8.0,
    )


class TestTsp:
    def small_instance(self):
        # 4 cities on a square: optimal tour = the perimeter, length 4.
        D = np.array(
            [
                [0.0, 1.0, np.sqrt(2), 1.0],
                [1.0, 0.0, 1.0, np.sqrt(2)],
                [np.sqrt(2), 1.0, 0.0, 1.0],
                [1.0, np.sqrt(2), 1.0, 0.0],
            ]
        )
        return TravellingSalesmanProblem(D)

    def test_validation(self):
        with pytest.raises(ValueError):
            TravellingSalesmanProblem(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            TravellingSalesmanProblem(np.array([[0, 1.0], [2.0, 0]]))
        D = np.ones((3, 3)) - np.eye(3)
        with pytest.raises(ValueError):
            TravellingSalesmanProblem(D, penalty=-1.0)

    def test_tour_length(self):
        tsp = self.small_instance()
        assert tsp.tour_length([0, 1, 2, 3]) == pytest.approx(4.0)
        assert tsp.tour_length([0, 2, 1, 3]) == pytest.approx(2 + 2 * np.sqrt(2))
        with pytest.raises(ValueError):
            tsp.tour_length([0, 0, 1, 2])

    def test_brute_force(self):
        tsp = self.small_instance()
        tour, length = tsp.brute_force_tour()
        assert length == pytest.approx(4.0)
        assert tsp.tour_length(tour) == pytest.approx(length)

    def test_qubo_value_matches_tour_length_on_valid_tours(self):
        tsp = self.small_instance()
        qubo = tsp.to_qubo()
        for perm in itertools.permutations(range(4)):
            x = np.zeros((4, 4))
            for pos, city in enumerate(perm):
                x[city, pos] = 1
            # valid tours: penalty part vanishes, value = tour length
            assert qubo.value(x.ravel()) == pytest.approx(
                tsp.tour_length(np.argmax(x, axis=0))
            )

    def test_invalid_assignment_penalised(self):
        tsp = self.small_instance()
        qubo = tsp.to_qubo()
        x = np.zeros(16)
        # empty assignment: 2n penalty terms of weight A
        assert qubo.value(x) == pytest.approx(2 * 4 * tsp.penalty)

    def test_decode(self):
        tsp = self.small_instance()
        x = np.eye(4)
        assert tsp.decode(x.ravel()).tolist() == [0, 1, 2, 3]
        x[0, 0] = 0  # break the permutation
        assert tsp.decode(x.ravel()) is None

    def test_annealer_finds_valid_tour(self):
        tsp = TravellingSalesmanProblem.random_euclidean(4, seed=3)
        model = tsp.to_qubo().to_ising().with_ancilla()
        best_tour = None
        for attempt in range(8):
            result = solve_ising(model, method="insitu", iterations=12_000, seed=attempt)
            sigma = result.best_sigma
            if sigma[0] == -1:
                sigma = -sigma
            tour = tsp.decode(QuboModel.sigma_to_x(sigma[1:]))
            if tour is not None:
                best_tour = tour
                break
        assert best_tour is not None
        _, optimal = tsp.brute_force_tour()
        assert tsp.tour_length(best_tour) <= 1.5 * optimal


class TestTspPairParity:
    """The pair builder against the matrix-filling loops it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(tsp=integer_tsps(), seed=st.integers(0, 2**32 - 1))
    def test_integer_distances_byte_equal(self, tsp, seed):
        Q, q, offset = dense_tsp_qubo(tsp)
        qubo = tsp.to_qubo()
        for backend in BACKENDS:
            assert model_bytes(qubo.to_ising(backend=backend)) == model_bytes(
                dense_qubo_to_ising(Q, q, offset, backend, name=tsp.name)
            )
        x = ensure_rng(seed).integers(0, 2, tsp.num_variables).astype(float)
        assert qubo.value(x) == pytest.approx(x @ Q @ x + q @ x + offset, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 7), seed=st.integers(0, 10_000))
    def test_float_distances_agree_to_rounding(self, n, seed):
        """Float sums run in another order: J is exact, h/offset to 1e-12."""
        tsp = TravellingSalesmanProblem.random_euclidean(n, seed=seed)
        Q, q, offset = dense_tsp_qubo(tsp)
        for backend in ("dense", "sparse"):
            got = tsp.to_qubo().to_ising(backend=backend)
            ref = dense_qubo_to_ising(Q, q, offset, backend)
            if backend == "dense":
                assert got.J.tobytes() == ref.J.tobytes()
            else:
                for a, b in zip(got.csr_arrays(), ref.csr_arrays()):
                    assert a.tobytes() == b.tobytes()
            np.testing.assert_allclose(got.h, ref.h, rtol=1e-12, atol=0.0)
            assert got.offset == pytest.approx(ref.offset, rel=1e-12)


class TestMisPairParity:
    @settings(max_examples=40, deadline=None)
    @given(prob=mis_instances(), seed=st.integers(0, 2**32 - 1))
    def test_to_ising_byte_equal_to_dense_loops(self, prob, seed):
        Q, q, offset = dense_mis_qubo(prob)
        qubo = prob.to_qubo()
        for backend in BACKENDS:
            assert model_bytes(qubo.to_ising(backend=backend)) == model_bytes(
                dense_qubo_to_ising(Q, q, offset, backend, name=prob.name)
            )
        x = ensure_rng(seed).integers(0, 2, prob.num_nodes).astype(float)
        assert qubo.value(x) == pytest.approx(x @ Q @ x + q @ x + offset, abs=1e-9)


class TestMis:
    def test_path_graph_optimum(self):
        # path 0-1-2-3-4: MIS = {0, 2, 4}, size 3
        prob = MaxIndependentSetProblem(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
        assert prob.brute_force_optimum() == 3

    def test_qubo_minimum_is_negative_mis_size(self):
        prob = MaxIndependentSetProblem.random(8, 12, seed=4)
        qubo = prob.to_qubo()
        best = min(
            qubo.value(np.array(bits))
            for bits in itertools.product((0, 1), repeat=8)
        )
        assert best == pytest.approx(-prob.brute_force_optimum())

    def test_independence_checks(self):
        prob = MaxIndependentSetProblem(3, np.array([[0, 1]]))
        assert prob.is_independent([1, 0, 1])
        assert not prob.is_independent([1, 1, 0])
        assert prob.set_size([1, 0, 1]) == 2

    def test_solver_finds_optimum(self):
        prob = MaxIndependentSetProblem.random(12, 20, seed=9)
        model = prob.to_qubo().to_ising().with_ancilla()
        best_size = 0
        for attempt in range(5):
            result = solve_ising(model, method="sa", iterations=6_000, seed=attempt)
            sigma = result.best_sigma
            if sigma[0] == -1:
                sigma = -sigma
            x = QuboModel.sigma_to_x(sigma[1:])
            if prob.is_independent(x):
                best_size = max(best_size, prob.set_size(x))
        assert best_size >= prob.brute_force_optimum() - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MaxIndependentSetProblem(3, np.array([[0, 1]]), penalty=0.5)
        with pytest.raises(ValueError):
            MaxIndependentSetProblem(2, np.array([[0, 0]]))


class TestTiling:
    def test_stored_image_matches_monolithic(self):
        p = MaxCutProblem.random(40, 200, seed=2)
        J = p.to_ising().J
        mono = DgFefetCrossbar(J, seed=0)
        tiled = TiledCrossbar(J, tile_size=16, seed=0)
        assert tiled.grid == 3
        assert tiled.num_tiles == 9
        assert np.allclose(tiled.matrix_hat, mono.matrix_hat, atol=1e-9)

    def test_increment_values_match_monolithic(self):
        p = MaxCutProblem.random(40, 200, seed=2)
        J = p.to_ising().J
        mono = DgFefetCrossbar(J, seed=0)
        tiled = TiledCrossbar(J, tile_size=16, seed=0)
        rng = ensure_rng(7)
        sigma = rng.choice([-1.0, 1.0], 40)
        for trial in range(6):
            flips = rng.choice(40, size=1 + trial % 3, replace=False)
            c = np.zeros(40)
            c[flips] = -sigma[flips]
            r = sigma.copy()
            r[flips] = 0.0
            vbg = float(rng.uniform(0.2, VBG_MAX))
            vm, _ = mono.compute_increment(r, c, vbg)
            vt, _ = tiled.compute_increment(r, c, vbg)
            assert vt == pytest.approx(vm, abs=1e-9)

    def test_parallel_slots_and_summed_conversions(self):
        p = MaxCutProblem.random(40, 200, seed=2)
        J = p.to_ising().J
        tiled = TiledCrossbar(J, tile_size=16, seed=0)
        rng = ensure_rng(3)
        sigma = rng.choice([-1.0, 1.0], 40)
        c = np.zeros(40)
        c[5] = -sigma[5]
        r = sigma.copy()
        r[5] = 0.0
        _, stats = tiled.compute_increment(r, c, VBG_MAX)
        # one active tile-column × 3 row tiles × 2 phases × 4 bits
        assert stats.adc_conversions == 3 * 2 * 4
        assert stats.mux_slots == 2  # tiles sense in parallel

    def test_machine_runs_on_tiles(self):
        p = MaxCutProblem.random(30, 120, seed=5)
        model = p.to_ising()
        machine = InSituCimAnnealer(model, tile_size=12, seed=1)
        assert isinstance(machine.crossbar, TiledCrossbar)
        result = machine.run(300)
        check = machine.hw_model.energy(result.anneal.best_sigma)
        assert check == pytest.approx(result.anneal.best_energy, abs=1e-6)

    # constructor validation lives in tests/test_tiling.py
    # (TestSolveApiRouting.test_tiled_crossbar_validation)


class TestProgramVerify:
    def test_programs_one_state(self):
        fefet = FeFET()
        result = program_and_verify(fefet, 1)
        assert result.success
        assert fefet.stored_bit == 1
        assert result.final_current > 1e-6
        assert result.pulses_used >= 1

    def test_programs_zero_state(self):
        fefet = FeFET()
        program_and_verify(fefet, 1)
        result = program_and_verify(fefet, 0)
        assert result.success
        assert fefet.stored_bit == 0
        assert result.final_current < 1e-6

    def test_uses_fewer_pulses_with_strong_start(self):
        weak = program_and_verify(FeFET(), 1, v_start=1.0, v_step=0.25)
        strong = program_and_verify(FeFET(), 1, v_start=4.0, v_step=0.25)
        assert strong.pulses_used <= weak.pulses_used

    def test_fails_gracefully_when_unreachable(self):
        result = program_and_verify(
            FeFET(), 1, v_start=0.1, v_step=0.01, max_pulses=3
        )
        assert not result.success
        assert result.pulses_used == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            program_and_verify(FeFET(), 2)
        with pytest.raises(ValueError):
            program_and_verify(FeFET(), 1, max_pulses=0)

    def test_pulse_train(self):
        train = PulseTrain.staircase(1.0, 4.0, 7)
        fefet = FeFET()
        vths = train.apply(fefet)
        assert len(vths) == 7
        # ramping positive pulses can only lower (or hold) the threshold
        assert all(b <= a + 1e-12 for a, b in zip(vths, vths[1:]))
        with pytest.raises(ValueError):
            PulseTrain(())
        with pytest.raises(ValueError):
            PulseTrain.staircase(1.0, 2.0, 0)
