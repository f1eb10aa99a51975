"""Bit-packed ±1 coupling backend: primitives, eligibility, bit-identity.

The packed backend's contract is *transparency*: on an eligible model
(zero diagonal, one shared dyadic coupling magnitude ±c) every kernel
computes the identical float64 values as the sparse backend, so solver
trajectories at a fixed seed are bit-identical — not merely close.  The
harness below therefore asserts exact equality (``==`` /
``np.array_equal``), never ``approx``, across all solver families
including the rank-t replica batch engines and the reordered /
partitioned / explicitly-permuted solve rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchDirectEAnnealer,
    BatchInSituAnnealer,
    FloatBatchState,
    PackedBatchState,
    PackedCouplingOps,
    coupling_ops,
    solve_ising,
    solve_maxcut,
)
from repro.ising import (
    IsingModel,
    MaxCutProblem,
    PackedIsingModel,
    SparseIsingModel,
    as_backend,
    dyadic_uniform_scale,
    generate_random,
    packed_scale,
    recommended_backend,
)
from repro.ising.packed import (
    PACKED_MAX_NUMERATOR,
    pack_bits,
    pack_spin_rows,
    popcount_bytes,
    unpack_spin_rows,
    words_to_bytes,
)
from repro.utils.bits import popcount_lut
from repro.utils.rng import ensure_rng

relaxed = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def eligible_models(n: int, m: int, seed: int, weighted: bool = True):
    """A packed-eligible instance as (sparse, packed) model twins."""
    problem = generate_random(n, m, weighted=weighted, seed=seed)
    sparse = problem.to_ising(backend="sparse")
    return sparse, PackedIsingModel.from_sparse(sparse)


# ---------------------------------------------------------------------------
# Packing primitives
# ---------------------------------------------------------------------------


class TestPackingPrimitives:
    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_spin_row_roundtrip(self, seed):
        """pack → unpack is the identity for every (R, n) shape,
        including the n % 64 ∈ {0, 1, 63} word boundaries."""
        rng = ensure_rng(seed)
        for n in (1, 7, 63, 64, 65, int(rng.integers(2, 200))):
            sigma = rng.choice(np.array([-1, 1], dtype=np.int8), size=(3, n))
            words = pack_spin_rows(sigma)
            assert words.dtype == np.uint64
            assert words.shape == (3, max(1, -(-n // 64)))
            assert np.array_equal(unpack_spin_rows(words, n), sigma)

    def test_pack_bits_places_bit_j_in_word_j64(self):
        for j in (0, 1, 13, 63, 64, 100, 127, 128):
            bits = np.zeros(130, dtype=np.uint8)
            bits[j] = 1
            words = pack_bits(bits[None, :])[0]
            assert words[j >> 6] == np.uint64(1) << np.uint64(j & 63)
            assert words.sum() == words[j >> 6]

    def test_words_to_bytes_is_little_end_first(self):
        words = np.array([0x0123456789ABCDEF], dtype=np.uint64)
        assert list(words_to_bytes(words)) == [
            0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,
        ]

    def test_popcount_bytes_matches_bit_count(self):
        """Whichever implementation is active (np.bitwise_count on
        numpy ≥ 2, the byte LUT otherwise) agrees with int.bit_count."""
        a = np.arange(256, dtype=np.uint8)
        expect = np.array([int(v).bit_count() for v in range(256)], dtype=np.uint8)
        assert np.array_equal(popcount_bytes(a), expect)

    def test_popcount_lut_fallback_equivalent(self):
        """The numpy<2 LUT table matches the active popcount on every byte value."""
        a = np.arange(256, dtype=np.uint8)
        assert np.array_equal(popcount_lut(a), popcount_bytes(a))

    def test_pack_spin_rows_rejects_non_2d(self):
        with pytest.raises(ValueError, match="spin tensor"):
            pack_spin_rows(np.ones(8, dtype=np.int8))


# ---------------------------------------------------------------------------
# Eligibility
# ---------------------------------------------------------------------------


class TestEligibility:
    def test_dyadic_uniform_scale(self):
        assert dyadic_uniform_scale([1.0, -1.0, 1.0]) == 1.0
        assert dyadic_uniform_scale([-0.25, 0.25]) == 0.25  # G-set J = W/4
        assert dyadic_uniform_scale([2.0, -2.0]) == 2.0
        assert dyadic_uniform_scale([]) == 1.0
        assert dyadic_uniform_scale([1.0, 0.5]) is None  # mixed magnitudes
        assert dyadic_uniform_scale([0.0, 0.0]) is None  # no sign image
        assert dyadic_uniform_scale([0.3, -0.3]) is None  # huge numerator

    def test_dyadic_numerator_bound(self):
        ok = float(PACKED_MAX_NUMERATOR)
        assert dyadic_uniform_scale([ok, -ok]) == ok
        assert dyadic_uniform_scale([ok + 2.0, -(ok + 2.0)]) is None

    def test_packed_scale_on_models(self):
        sparse, packed = eligible_models(30, 80, seed=1)
        assert packed_scale(sparse) == 0.25
        assert packed_scale(packed) == 0.25
        assert packed.scale == 0.25
        # dense models are probed through J
        assert packed_scale(sparse.to_dense()) == 0.25
        assert packed_scale(IsingModel.random(10, seed=0)) is None

    def test_ineligible_couplings_rejected_with_actionable_message(self):
        general = SparseIsingModel.from_dense(IsingModel.random(8, seed=2).J)
        with pytest.raises(ValueError, match="sparse backend"):
            PackedIsingModel.from_sparse(general)

    def test_nonzero_diagonal_rejected(self):
        J = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="zero coupling diagonal"):
            PackedIsingModel.from_sparse(SparseIsingModel.from_dense(J))


# ---------------------------------------------------------------------------
# Model transformations and structure
# ---------------------------------------------------------------------------


class TestPackedModel:
    def test_is_a_sparse_model(self):
        _, packed = eligible_models(20, 50, seed=3)
        assert isinstance(packed, SparseIsingModel)
        assert isinstance(packed.to_sparse(), SparseIsingModel)
        assert not isinstance(packed.to_sparse(), PackedIsingModel)

    def test_energy_contract_unchanged(self):
        sparse, packed = eligible_models(25, 60, seed=4)
        rng = ensure_rng(0)
        sigma = sparse.random_configuration(rng)
        assert packed.energy(sigma) == sparse.energy(sigma)
        assert np.array_equal(packed.local_fields(sigma), sparse.local_fields(sigma))

    def test_permuted_stays_packed(self):
        _, packed = eligible_models(16, 40, seed=5)
        perm = np.arange(16)[::-1].copy()
        relabelled = packed.permuted(perm)
        assert isinstance(relabelled, PackedIsingModel)
        assert relabelled.scale == packed.scale

    def test_scaled_repacks_when_eligible(self):
        _, packed = eligible_models(16, 40, seed=5)
        doubled = packed.scaled(2.0)
        assert isinstance(doubled, PackedIsingModel)
        assert doubled.scale == 2.0 * packed.scale
        # 0.3 · 0.25 has a huge dyadic numerator → plain sparse
        downgraded = packed.scaled(0.3)
        assert isinstance(downgraded, SparseIsingModel)
        assert not isinstance(downgraded, PackedIsingModel)

    def test_ancilla_fold_downgrades(self):
        """h/2 ancilla couplings break magnitude uniformity: the fold
        returns a plain sparse model rather than failing."""
        problem = generate_random(14, 30, weighted=True, seed=6)
        indptr, indices, data = problem.to_ising(backend="sparse").csr_arrays()
        model = PackedIsingModel(
            indptr, indices, data, fields=np.linspace(-1.0, 1.0, 14)
        )
        folded = model.with_ancilla()
        assert isinstance(folded, SparseIsingModel)
        assert not isinstance(folded, PackedIsingModel)

    def test_memory_accounts_for_packed_structures(self):
        _, packed = eligible_models(50, 150, seed=7)
        assert packed.memory_bytes() > packed.to_sparse().memory_bytes()

    def test_num_spin_words(self):
        for n, expect in ((5, 1), (64, 1), (65, 2), (200, 4)):
            _, packed = eligible_models(n, max(4, n), seed=8)
            assert packed.num_spin_words == expect


# ---------------------------------------------------------------------------
# Field kernels: exact equality with the sparse backend
# ---------------------------------------------------------------------------


class TestFieldExactness:
    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_local_fields_bit_identical(self, seed):
        """The popcount kernel's callers reproduce the sparse SpMV exactly."""
        rng = ensure_rng(seed)
        n = int(rng.integers(2, 150))
        m = int(rng.integers(1, n * (n - 1) // 2 + 1))
        sparse, packed = eligible_models(n, m, seed=seed)
        batch = rng.choice(np.array([-1, 1], dtype=np.int8), size=(5, n))
        gs = coupling_ops(sparse).batch_local_fields(batch)
        ops_p = coupling_ops(packed)
        assert isinstance(ops_p, PackedCouplingOps)
        state = ops_p.make_batch_state(batch)
        assert isinstance(state, PackedBatchState)
        assert np.array_equal(state.fields, gs)
        assert state.fields.flags["C_CONTIGUOUS"]
        row = packed.packed_fields(pack_spin_rows(batch[:1])[0], np.empty(n))
        assert np.array_equal(row, gs[0])

    def test_empty_coupling_fields_are_zero(self):
        empty = PackedIsingModel.from_sparse(
            SparseIsingModel.from_dense(np.zeros((5, 5)))
        )
        sigma = np.ones((2, 5), dtype=np.int8)
        state = coupling_ops(empty).make_batch_state(sigma)
        assert np.array_equal(state.fields, np.zeros((2, 5)))
        row = empty.packed_fields(pack_spin_rows(sigma)[0], np.full(5, np.nan))
        assert np.array_equal(row, np.zeros(5))

    def test_batch_state_protocol_matches_float_twin(self):
        """gather / flip / record_best / readout agree step for step."""
        sparse, packed = eligible_models(40, 120, seed=9)
        rng = ensure_rng(3)
        sigma = rng.choice(np.array([-1, 1], dtype=np.int8), size=(4, 40)).astype(
            np.float64
        )
        fstate = coupling_ops(sparse).make_batch_state(sigma.copy())
        pstate = coupling_ops(packed).make_batch_state(sigma.copy())
        assert isinstance(fstate, FloatBatchState)
        assert isinstance(pstate, PackedBatchState)
        assert np.array_equal(fstate.fields, pstate.fields)

        rows = np.arange(4)
        idx = rng.integers(0, 40, size=(4, 3))
        assert np.array_equal(fstate.gather(rows[:, None], idx),
                              pstate.gather(rows[:, None], idx))

        acc = np.array([0, 2])
        cols = idx[acc]
        vals = fstate.gather(acc[:, None], cols)
        fstate.flip(acc, cols, vals)
        pstate.flip(acc, cols, vals)
        assert np.array_equal(fstate.final_sigmas(), pstate.final_sigmas())

        improved = np.array([True, False, True, False])
        fstate.record_best(improved)
        pstate.record_best(improved)
        assert np.array_equal(fstate.best_sigmas(), pstate.best_sigmas())
        assert pstate.memory_bytes() < fstate.memory_bytes()

    def test_flip_handles_two_spins_in_one_word(self):
        """Two accepted flips landing in the same uint64 word must both
        toggle (XOR via ufunc.at, not last-write-wins assignment)."""
        _, packed = eligible_models(70, 150, seed=10)
        sigma = np.ones((1, 70), dtype=np.float64)
        state = coupling_ops(packed).make_batch_state(sigma)
        cols = np.array([[2, 7, 66]])  # 2 and 7 share word 0
        state.flip(np.array([0]), cols, np.ones((1, 3)))
        out = state.final_sigmas()[0]
        expect = np.ones(70, dtype=np.int8)
        expect[[2, 7, 66]] = -1
        assert np.array_equal(out, expect)


# ---------------------------------------------------------------------------
# Backend selection and conversion
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_recommended_backend_requires_uniform_signs(self):
        # sparse-regime sizes promote only when the sign-only flag is set
        assert recommended_backend(10_000, 30_000) == "sparse"
        assert recommended_backend(10_000, 30_000, uniform_signs=True) == "packed"
        # dense-regime sizes never promote
        assert recommended_backend(10, 45, uniform_signs=True) == "dense"
        # an edgeless model has nothing to pack
        assert recommended_backend(10_000, 0, uniform_signs=True) == "sparse"

    def test_as_backend_packed(self):
        sparse, packed = eligible_models(30, 80, seed=11)
        up = as_backend(sparse, "packed")
        assert isinstance(up, PackedIsingModel)
        # downgrade: an explicit "sparse" request unpacks
        down = as_backend(packed, "sparse")
        assert isinstance(down, SparseIsingModel)
        assert not isinstance(down, PackedIsingModel)
        # identity: already packed
        assert as_backend(packed, "packed") is packed

    def test_as_backend_auto_promotes_uniform_large_instances(self):
        problem = generate_random(600, 1800, weighted=True, seed=12)
        auto = as_backend(problem.to_ising(backend="sparse"), "auto")
        assert isinstance(auto, PackedIsingModel)
        # a general float model must not promote
        general = SparseIsingModel.from_dense(IsingModel.random(60, seed=0).J)
        assert not isinstance(as_backend(general, "auto"), PackedIsingModel)

    def test_to_ising_backend_packed(self):
        problem = generate_random(40, 100, weighted=True, seed=13)
        model = problem.to_ising(backend="packed")
        assert isinstance(model, PackedIsingModel)
        assert model.scale == 0.25

    def test_ineligible_to_ising_packed_raises(self):
        problem = MaxCutProblem.random(12, 30, seed=1)
        mixed = MaxCutProblem(
            12,
            problem.edge_array,
            problem.weight_array * np.linspace(1.0, 2.0, problem.num_edges),
        )
        with pytest.raises(ValueError, match="sparse backend"):
            mixed.to_ising(backend="packed")


# ---------------------------------------------------------------------------
# Solver bit-identity: every family, every routing row
# ---------------------------------------------------------------------------


def assert_results_identical(a, b):
    assert a.best_energy == b.best_energy
    assert np.array_equal(a.best_sigma, b.best_sigma)


class TestSolverBitIdentity:
    @relaxed
    @given(
        seed=st.integers(0, 10_000),
        method=st.sampled_from(["insitu", "sa", "mesa", "sb"]),
    )
    def test_sequential_families(self, seed, method):
        sparse, packed = eligible_models(30, 90, seed=seed)
        rs = solve_ising(
            sparse, method=method, iterations=200, seed=seed, backend="sparse"
        )
        rp = solve_ising(
            packed, method=method, iterations=200, seed=seed, backend="packed"
        )
        assert_results_identical(rs, rp)
        assert rs.energy == rp.energy
        assert np.array_equal(rs.sigma, rp.sigma)

    @relaxed
    @given(seed=st.integers(0, 10_000), flips=st.integers(1, 4))
    def test_replica_batch_rank_t(self, seed, flips):
        """The rank-t multi-flip batch engines, packed vs sparse."""
        sparse, packed = eligible_models(40, 120, seed=seed)
        for engine in (BatchInSituAnnealer, BatchDirectEAnnealer):
            rs = engine(
                sparse, replicas=5, seed=seed, flips_per_iteration=flips
            ).run(150)
            rp = engine(
                packed, replicas=5, seed=seed, flips_per_iteration=flips
            ).run(150)
            assert np.array_equal(rs.best_energies, rp.best_energies)
            assert np.array_equal(rs.final_energies, rp.final_energies)
            assert np.array_equal(rs.best_sigmas, rp.best_sigmas)
            assert np.array_equal(rs.final_sigmas, rp.final_sigmas)
            assert np.array_equal(rs.accepted, rp.accepted)

    def test_reordered_and_partitioned_rows(self):
        sparse, packed = eligible_models(60, 150, seed=14)
        for kwargs in (
            {"reorder": "rcm"},
            {"reorder": "auto"},
            {"reorder": "rcm", "replicas": 4},
            {"reorder": "partition", "tile_size": 16},
            {"reorder": "rcm", "tile_size": 16},
        ):
            rs = solve_ising(
                sparse, iterations=200, seed=14, backend="sparse", **kwargs
            )
            rp = solve_ising(
                packed, iterations=200, seed=14, backend="packed", **kwargs
            )
            assert_results_identical(rs, rp)

    def test_explicit_permutation_row(self):
        sparse, packed = eligible_models(32, 80, seed=15)
        perm = ensure_rng(0).permutation(32)
        rs = solve_ising(
            sparse, iterations=200, seed=15, backend="sparse", permutation=perm
        )
        rp = solve_ising(
            packed, iterations=200, seed=15, backend="packed", permutation=perm
        )
        assert_results_identical(rs, rp)

    def test_backend_kwarg_end_to_end(self):
        """solve_ising / solve_maxcut backend="packed" equals "sparse"."""
        problem = generate_random(40, 110, weighted=True, seed=16)
        model = problem.to_ising(backend="dense")
        rs = solve_ising(model, iterations=300, seed=16, backend="sparse")
        rp = solve_ising(model, iterations=300, seed=16, backend="packed")
        assert_results_identical(rs, rp)
        cs = solve_maxcut(problem, iterations=300, seed=16, backend="sparse")
        cp = solve_maxcut(problem, iterations=300, seed=16, backend="packed")
        assert cs.best_cut == cp.best_cut
        assert np.array_equal(cs.anneal.best_sigma, cp.anneal.best_sigma)

    def test_sb_replicas_batch(self):
        sparse, packed = eligible_models(40, 110, seed=17)
        rs = solve_ising(
            sparse, method="sb", iterations=200, seed=17, replicas=4,
            backend="sparse",
        )
        rp = solve_ising(
            packed, method="sb", iterations=200, seed=17, replicas=4,
            backend="packed",
        )
        assert np.array_equal(rs.best_energies, rp.best_energies)
        assert np.array_equal(rs.best_sigmas, rp.best_sigmas)
