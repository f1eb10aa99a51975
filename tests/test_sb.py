"""Tests for the simulated-bifurcation solver family (:mod:`repro.core.sb`).

Three layers, mirroring the backend-equivalence suite's contract:

* the new ``matvec`` / ``batch_matvec`` coupling ops agree across the
  dense and CSR adapters — bit-for-bit when couplings *and* inputs are
  dyadic rationals (every sum exact in any order), allclose otherwise;
* the bSB/dSB engines are backend-transparent: fixed-seed trajectories
  on dyadic models coincide bit for bit between backends, under declared
  permutations, and on the tiled crossbar's behavioral MVM;
* the ``method="sb"`` dispatch returns the standard result shapes with
  self-consistent energies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    SB_VARIANTS,
    SbEngine,
    coupling_ops,
    solve_ising,
    solve_maxcut,
    solve_sb,
)
from repro.core.reorder import Permutation
from repro.ising import IsingModel, MaxCutProblem, SparseIsingModel
from repro.utils.rng import ensure_rng

relaxed = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def dyadic_sparse_model(seed: int, with_fields: bool = False) -> SparseIsingModel:
    """Seeded random sparse model with exactly-representable couplings."""
    rng = ensure_rng(seed)
    n = int(rng.integers(6, 40))
    m = int(rng.integers(n, 3 * n))
    pairs = rng.choice(n * (n - 1) // 2, size=min(m, n * (n - 1) // 2), replace=False)
    rows, cols = np.triu_indices(n, k=1)
    r, c = rows[pairs], cols[pairs]
    vals = rng.integers(-8, 9, size=r.size) / 8.0
    keep = vals != 0
    h = rng.integers(-8, 9, size=n) / 8.0 if with_fields else None
    return SparseIsingModel.from_edges(
        n, r[keep], c[keep], vals[keep], h, offset=0.25, name=f"dyadic-{n}"
    )


def signed_problem(n: int, m: int, seed: int) -> MaxCutProblem:
    """A ±1-weighted Max-Cut instance (J = W/4 stores exactly)."""
    return MaxCutProblem.random(n, m, weighted=True, seed=seed)


# ----------------------------------------------------------------------
# Coupling-op parity: matvec / batch_matvec across backends
# ----------------------------------------------------------------------
class TestMatvecParity:
    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_dyadic_inputs_are_bit_identical(self, seed):
        """Dyadic couplings × dyadic inputs: every sum is exact, so the
        dense product and the CSR bincount SpMV agree bit for bit."""
        sparse = dyadic_sparse_model(seed)
        dense_ops = coupling_ops(sparse.to_dense())
        sparse_ops = coupling_ops(sparse)
        rng = ensure_rng(seed + 1)
        n = sparse.num_spins
        # spins and dyadic continuous positions (k/64 ∈ [-1, 1])
        for x in (
            rng.choice([-1.0, 1.0], size=n),
            rng.integers(-64, 65, size=n) / 64.0,
        ):
            assert np.array_equal(dense_ops.matvec(x), sparse_ops.matvec(x))
        X = rng.integers(-64, 65, size=(5, n)) / 64.0
        assert np.array_equal(
            dense_ops.batch_matvec(X), sparse_ops.batch_matvec(X)
        )

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_float_inputs_are_allclose(self, seed):
        """Arbitrary float inputs: same mathematics, different summation
        order — backends agree to floating-point tolerance."""
        sparse = dyadic_sparse_model(seed)
        dense_ops = coupling_ops(sparse.to_dense())
        sparse_ops = coupling_ops(sparse)
        rng = ensure_rng(seed + 2)
        x = rng.normal(size=sparse.num_spins)
        assert np.allclose(
            dense_ops.matvec(x), sparse_ops.matvec(x), rtol=1e-12, atol=1e-12
        )
        X = rng.normal(size=(4, sparse.num_spins))
        assert np.allclose(
            dense_ops.batch_matvec(X), sparse_ops.batch_matvec(X),
            rtol=1e-12, atol=1e-12,
        )

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_batch_rows_equal_single_matvec(self, seed):
        """batch_matvec is row-wise matvec, bit for bit, on both backends."""
        sparse = dyadic_sparse_model(seed)
        rng = ensure_rng(seed + 3)
        X = rng.integers(-64, 65, size=(4, sparse.num_spins)) / 64.0
        for ops in (coupling_ops(sparse), coupling_ops(sparse.to_dense())):
            batch = ops.batch_matvec(X)
            for r in range(X.shape[0]):
                assert np.array_equal(batch[r], ops.matvec(X[r]))

    def test_matvec_matches_local_fields_on_spins(self):
        """On ±1 inputs matvec is exactly the cached local-fields product."""
        model = dyadic_sparse_model(7)
        sigma = model.random_configuration(3).astype(np.float64)
        for ops in (coupling_ops(model), coupling_ops(model.to_dense())):
            assert np.array_equal(ops.matvec(sigma), ops.local_fields(sigma))


# ----------------------------------------------------------------------
# Engine: backend transparency and dynamics
# ----------------------------------------------------------------------
class TestSbEngine:
    @pytest.mark.parametrize("variant", ["discrete", "ballistic"])
    def test_dense_sparse_bit_identical(self, variant):
        """Fixed-seed trajectories coincide bit for bit across backends
        on a ±1-weighted instance (dyadic J = W/4)."""
        problem = signed_problem(48, 180, seed=5)
        dense = problem.to_ising(backend="dense")
        sparse = problem.to_ising(backend="sparse")
        rd = SbEngine(dense, replicas=4, variant=variant, seed=11).run(300)
        rs = SbEngine(sparse, replicas=4, variant=variant, seed=11).run(300)
        assert np.array_equal(rd.best_energies, rs.best_energies)
        assert np.array_equal(rd.best_sigmas, rs.best_sigmas)
        assert np.array_equal(rd.final_energies, rs.final_energies)
        assert np.array_equal(rd.final_sigmas, rs.final_sigmas)
        assert np.array_equal(rd.accepted, rs.accepted)

    @relaxed
    @given(
        seed=st.integers(0, 10_000),
        variant=st.sampled_from(["discrete", "ballistic"]),
    )
    def test_dyadic_models_bit_identical(self, seed, variant):
        """The hypothesis version of the backend-transparency contract,
        including external fields (gradient term 2Jx + h)."""
        sparse = dyadic_sparse_model(seed, with_fields=True)
        rd = SbEngine(sparse.to_dense(), replicas=2, variant=variant, seed=3).run(120)
        rs = SbEngine(sparse, replicas=2, variant=variant, seed=3).run(120)
        assert np.array_equal(rd.best_energies, rs.best_energies)
        assert np.array_equal(rd.best_sigmas, rs.best_sigmas)
        assert np.array_equal(rd.accepted, rs.accepted)

    def test_reported_energies_are_self_consistent(self):
        """Every reported energy reproduces from its configuration."""
        model = dyadic_sparse_model(21, with_fields=True)
        result = SbEngine(model, replicas=6, seed=2).run(200)
        for r in range(6):
            assert model.energy(result.best_sigmas[r]) == result.best_energies[r]
            assert model.energy(result.final_sigmas[r]) == result.final_energies[r]
        assert np.all(result.best_energies <= result.final_energies)
        assert np.all(result.accepted <= result.iterations)
        assert result.best_sigmas.dtype == np.int8

    def test_variant_aliases_and_label(self):
        model = dyadic_sparse_model(1)
        for alias, canonical, label in (
            ("bsb", "ballistic", "bSB"),
            ("dsb", "discrete", "dSB"),
        ):
            engine = SbEngine(model, variant=alias, seed=0)
            assert engine.variant == canonical
            assert engine.variant_label == label
            assert alias in SB_VARIANTS and canonical in SB_VARIANTS

    def test_variants_actually_differ(self):
        """bSB and dSB are different dynamics, not the same code path."""
        problem = signed_problem(40, 150, seed=9)
        model = problem.to_ising(backend="sparse")
        b = SbEngine(model, variant="ballistic", seed=4).run(200)
        d = SbEngine(model, variant="discrete", seed=4).run(200)
        assert not np.array_equal(b.final_sigmas, d.final_sigmas) or (
            b.accepted.tolist() != d.accepted.tolist()
        )

    def test_initial_configuration_seeding(self):
        model = dyadic_sparse_model(13)
        n = model.num_spins
        sigma = model.random_configuration(0)
        engine = SbEngine(model, replicas=3, seed=1)
        result = engine.run(50, initial=sigma)
        assert result.best_sigmas.shape == (3, n)
        # (R, n) stacks are accepted too
        stack = np.tile(sigma, (2, 1))
        SbEngine(model, replicas=2, seed=1).run(10, initial=stack)
        with pytest.raises(ValueError, match="shape"):
            SbEngine(model, replicas=2, seed=1).run(10, initial=sigma[:-1])
        with pytest.raises(ValueError, match="±1"):
            SbEngine(model, seed=1).run(10, initial=np.zeros(n))

    def test_validation(self):
        model = dyadic_sparse_model(2)
        with pytest.raises(ValueError, match="unknown variant 'goto'"):
            SbEngine(model, variant="goto")
        with pytest.raises(ValueError, match="replicas must be an integer"):
            SbEngine(model, replicas=True)
        with pytest.raises(ValueError, match="replicas must be >= 1"):
            SbEngine(model, replicas=0)
        with pytest.raises(ValueError, match="dt must be > 0"):
            SbEngine(model, dt=0.0)
        with pytest.raises(ValueError, match="a0 must be > 0"):
            SbEngine(model, a0=-1.0)
        with pytest.raises(ValueError, match="c0 must be > 0"):
            SbEngine(model, c0=0.0)
        for knob in ("dt", "a0", "c0"):
            with pytest.raises(ValueError, match=f"{knob} must be finite, got nan"):
                SbEngine(model, **{knob: float("nan")})
        with pytest.raises(ValueError, match="best_every must be an integer"):
            SbEngine(model, best_every=True)
        with pytest.raises(ValueError, match="iterations must be an integer"):
            SbEngine(model, seed=0).run(True)
        with pytest.raises(ValueError, match="no spins"):
            SbEngine(IsingModel(np.zeros((0, 0))))

    def test_auto_c0_is_backend_independent(self):
        model = dyadic_sparse_model(31)
        assert SbEngine(model, seed=0).c0 == SbEngine(model.to_dense(), seed=0).c0

    def test_auto_c0_falls_back_on_empty_couplings(self):
        empty = SparseIsingModel.from_edges(4, [], [], [])
        assert SbEngine(empty, seed=0).c0 == 1.0

    def test_explicit_matvec_override_is_used(self):
        """The matvec= hook really serves the inner loop."""
        model = dyadic_sparse_model(17)
        ops = coupling_ops(model)
        calls = []

        def counting(x):
            calls.append(x.shape)
            return ops.batch_matvec(x)

        base = SbEngine(model, replicas=2, seed=6).run(40)
        hooked = SbEngine(model, replicas=2, seed=6, matvec=counting).run(40)
        assert calls  # the hook was exercised
        assert np.array_equal(base.best_sigmas, hooked.best_sigmas)
        assert np.array_equal(base.best_energies, hooked.best_energies)

    @pytest.mark.parametrize("variant", ["discrete"])
    def test_declared_permutation_is_bit_identical(self, variant):
        """SB obeys the PR 3 transparency contract: solving a relabelled
        model with the relabelling declared coincides bit for bit (dSB:
        matvec inputs are ±1, so row sums are exact in any order)."""
        model = dyadic_sparse_model(41, with_fields=True)
        p = Permutation(ensure_rng(8).permutation(model.num_spins))
        base = SbEngine(model, replicas=3, variant=variant, seed=9).run(150)
        mapped = SbEngine(
            model.permuted(p), replicas=3, variant=variant, seed=9,
            permutation=p,
        ).run(150)
        assert np.array_equal(mapped.best_energies, base.best_energies)
        assert np.array_equal(mapped.best_sigmas, base.best_sigmas)
        assert np.array_equal(mapped.final_sigmas, base.final_sigmas)
        assert np.array_equal(mapped.accepted, base.accepted)


# ----------------------------------------------------------------------
# solve_sb / method="sb" dispatch
# ----------------------------------------------------------------------
class TestSolveSb:
    def test_single_run_result_shape(self):
        model = dyadic_sparse_model(3, with_fields=True)
        result = solve_sb(model, 100, seed=0)
        assert result.solver == "simulated bifurcation (dSB)"
        assert result.metadata["variant"] == "discrete"
        assert set(result.metadata) >= {"variant", "dt", "a0", "c0"}
        assert model.energy(result.best_sigma) == result.best_energy
        assert result.uphill_accepted == 0  # no Metropolis channel

    def test_batch_run_result_shape(self):
        model = dyadic_sparse_model(3)
        result = solve_sb(model, 100, seed=0, replicas=5)
        assert result.num_replicas == 5
        assert result.best_energies.shape == (5,)

    def test_solve_ising_dispatch_matches_solve_sb(self):
        model = dyadic_sparse_model(19)
        direct = solve_sb(model, 150, seed=4)
        via_api = solve_ising(model, method="sb", iterations=150, seed=4)
        assert via_api.best_energy == direct.best_energy
        assert np.array_equal(via_api.best_sigma, direct.best_sigma)

    def test_solve_maxcut_sb_both_backends(self):
        problem = signed_problem(40, 160, seed=1)
        results = {
            backend: solve_maxcut(
                problem, method="sb", iterations=200, seed=3, backend=backend
            )
            for backend in ("dense", "sparse")
        }
        d, s = results["dense"], results["sparse"]
        assert d.best_cut == s.best_cut
        assert np.array_equal(d.anneal.best_sigma, s.anneal.best_sigma)
        assert problem.cut_value(d.anneal.best_sigma) == d.best_cut

    def test_solve_maxcut_sb_replica_batch(self):
        problem = signed_problem(40, 160, seed=1)
        result = solve_maxcut(
            problem, method="sb", iterations=200, seed=3, replicas=6,
            backend="sparse",
        )
        assert result.best_cuts.shape == (6,)
        assert problem.cut_value(result.anneal.best_sigma) == result.best_cut

    def test_ballistic_variant_through_solve_api(self):
        model = dyadic_sparse_model(23)
        result = solve_ising(
            model, method="sb", iterations=100, seed=2, variant="ballistic"
        )
        assert result.solver == "simulated bifurcation (bSB)"

    def test_reorder_knob_is_bit_identical(self):
        """reorder="rcm" never changes the SB output (dSB, dyadic)."""
        model = dyadic_sparse_model(29, with_fields=True)
        base = solve_ising(model, method="sb", iterations=150, seed=7)
        reordered = solve_ising(
            model, method="sb", iterations=150, seed=7, reorder="rcm"
        )
        assert reordered.best_energy == base.best_energy
        assert reordered.accepted == base.accepted
        assert np.array_equal(reordered.best_sigma, base.best_sigma)


# ----------------------------------------------------------------------
# Tiled-crossbar SB: the behavioral MVM serves the inner loop
# ----------------------------------------------------------------------
class TestTiledSb:
    def test_crossbar_matvec_matches_stored_model(self):
        """TiledCrossbar's digitally-combined MVM equals the stored-image
        CSR SpMV bit for bit on spin inputs (dyadic stored values)."""
        from repro.arch.tiling import TiledCrossbar

        problem = signed_problem(50, 200, seed=8)
        model = problem.to_ising(backend="sparse")
        crossbar = TiledCrossbar(model, tile_size=16)
        ops = coupling_ops(crossbar.stored_model())
        rng = ensure_rng(0)
        x = rng.choice([-1.0, 1.0], size=model.num_spins)
        assert np.array_equal(crossbar.matvec(x), ops.matvec(x))
        X = rng.choice([-1.0, 1.0], size=(4, model.num_spins))
        assert np.array_equal(crossbar.batch_matvec(X), ops.batch_matvec(X))
        # 1-D input through the batch entry point delegates to matvec
        assert np.array_equal(crossbar.batch_matvec(x), crossbar.matvec(x))
        xc = rng.uniform(-1, 1, size=model.num_spins)
        assert np.allclose(crossbar.matvec(xc), ops.matvec(xc))

    @pytest.mark.parametrize("tile_size", [16, 25])
    def test_tiled_sb_equals_software_sb(self, tile_size):
        """±1 weights store exactly, so the tiled SB solve is bit-identical
        to the software solve — tile-size-invariant, like the flip path."""
        problem = signed_problem(50, 200, seed=8)
        base = solve_maxcut(
            problem, method="sb", iterations=300, seed=12, backend="sparse"
        )
        tiled = solve_maxcut(
            problem, method="sb", iterations=300, seed=12, backend="sparse",
            tile_size=tile_size,
        )
        assert tiled.best_cut == base.best_cut
        assert tiled.anneal.best_energy == base.anneal.best_energy
        assert tiled.anneal.accepted == base.anneal.accepted
        assert np.array_equal(tiled.anneal.best_sigma, base.anneal.best_sigma)

    def test_tiled_sb_replicas_and_reorder(self):
        problem = signed_problem(50, 200, seed=8)
        base = solve_maxcut(
            problem, method="sb", iterations=300, seed=12, backend="sparse",
            replicas=4,
        )
        for kwargs in ({"reorder": "rcm"}, {}):
            tiled = solve_maxcut(
                problem, method="sb", iterations=300, seed=12,
                backend="sparse", tile_size=16, replicas=4, **kwargs,
            )
            assert np.array_equal(tiled.best_cuts, base.best_cuts)
            assert np.array_equal(
                tiled.anneal.best_sigmas, base.anneal.best_sigmas
            )

    def test_tiled_sb_with_fields_strips_ancilla(self):
        """A fielded model folds through the ancilla spin and the returned
        configurations are in the caller's n-spin space.

        Single-magnitude weights (J ∈ ±1/4, h ∈ ±1/2 so the folded ancilla
        row is also ±1/4) keep the k-bit stored image exactly representable
        — the same story as the ±1-weighted G-sets — so the stored-image
        energies the tiled path reports equal the true model energies.
        """
        rng = ensure_rng(77)
        n = 30
        rows, cols = np.triu_indices(n, k=1)
        keep = rng.random(rows.size) < 0.15
        model = SparseIsingModel.from_edges(
            n, rows[keep], cols[keep],
            rng.choice([-0.25, 0.25], size=int(keep.sum())),
            rng.choice([-0.5, 0.5], size=n),
            name="fielded-single-magnitude",
        )
        single = solve_ising(model, method="sb", iterations=120, seed=5,
                             tile_size=8)
        assert single.best_sigma.shape == (n,)
        batch = solve_ising(model, method="sb", iterations=120, seed=5,
                            tile_size=8, replicas=3)
        assert batch.best_sigmas.shape == (3, n)
        # The fold pins the ancilla to +1 under a global-flip symmetry, so
        # the stripped configuration reproduces the reported energy on the
        # *original* fielded model (the stored image is exact: dyadic J).
        assert model.energy(single.best_sigma) == single.best_energy
        for r in range(3):
            assert model.energy(batch.best_sigmas[r]) == batch.best_energies[r]
