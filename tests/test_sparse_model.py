"""Property-based equivalence tests: SparseIsingModel vs the dense model.

The sparse CSR backend must be a drop-in replacement for the dense one.
These tests draw seeded random sparse graphs with *dyadic-rational*
couplings (integers / 8) — values whose sums are exactly representable in
binary floating point — so equality assertions are **bit-for-bit**, not
approximate: ``energy``, ``local_fields`` and ``delta_energy_flips`` must
agree exactly, and fixed-seed anneal trajectories must coincide across
backends for every solver family and both batch engines.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchDirectEAnnealer,
    BatchInSituAnnealer,
    auto_acceptance_scale,
    compile_plan,
    coupling_ops,
    delta_energy,
    solve_ising,
)
from repro.ising import (
    SPARSE_MIN_SPINS,
    IsingModel,
    MaxCutProblem,
    PackedIsingModel,
    SparseIsingModel,
    as_backend,
    dense_couplings,
    generate_random,
    recommended_backend,
)
from repro.utils.rng import ensure_rng

relaxed = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def dyadic_pair(seed: int, n: int | None = None, with_fields: bool = True):
    """A (dense, sparse) model pair with exactly-representable couplings."""
    rng = ensure_rng(seed)
    n = int(rng.integers(2, 25)) if n is None else n
    values = rng.integers(-8, 9, size=(n, n)) / 8.0
    mask = rng.random((n, n)) < 0.3
    upper = np.triu(values * mask, k=1)
    J = upper + upper.T
    h = rng.integers(-8, 9, size=n) / 8.0 if with_fields else None
    dense = IsingModel(J, h, offset=0.25, name=f"dyadic-{n}")
    return dense, SparseIsingModel.from_ising(dense)


class TestModelEquivalence:
    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_energy_and_local_fields_bit_for_bit(self, seed):
        dense, sparse = dyadic_pair(seed)
        rng = ensure_rng(seed + 1)
        for _ in range(3):
            sigma = dense.random_configuration(rng)
            assert sparse.energy(sigma) == dense.energy(sigma)
            assert np.array_equal(
                sparse.local_fields(sigma), dense.local_fields(sigma)
            )

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_delta_energy_flips_bit_for_bit(self, seed):
        dense, sparse = dyadic_pair(seed)
        rng = ensure_rng(seed + 2)
        n = dense.num_spins
        sigma = dense.random_configuration(rng)
        for _ in range(4):
            k = int(rng.integers(1, n + 1))
            flips = rng.choice(n, size=k, replace=False)
            d_dense = dense.delta_energy_flips(sigma, flips)
            assert sparse.delta_energy_flips(sigma, flips) == d_dense
            # ... and both match brute-force recomputation.
            sigma_new = sigma.copy()
            sigma_new[flips] *= -1
            assert d_dense == pytest.approx(
                dense.energy(sigma_new) - dense.energy(sigma), abs=1e-9
            )

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_delta_energy_single_and_helper(self, seed):
        dense, sparse = dyadic_pair(seed)
        rng = ensure_rng(seed + 3)
        sigma = dense.random_configuration(rng)
        g = dense.local_fields(sigma)
        for idx in rng.integers(dense.num_spins, size=4):
            idx = int(idx)
            assert sparse.delta_energy_single(sigma, idx) == dense.delta_energy_single(
                sigma, idx
            )
            assert sparse.delta_energy_single(sigma, idx, g) == dense.delta_energy_single(
                sigma, idx, g
            )
        flips = rng.choice(dense.num_spins, size=2, replace=False)
        assert delta_energy(sparse, sigma, flips) == pytest.approx(
            delta_energy(dense, sigma, flips), abs=1e-12
        )

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_transformations_match(self, seed):
        dense, sparse = dyadic_pair(seed)
        assert sparse.max_abs_coupling() == dense.max_abs_coupling()
        # Equivalence harness: comparing against the dense backend
        # is the point here.  # repro-lint: disable=RPL001
        assert np.array_equal(dense_couplings(sparse), dense.J)
        rng = ensure_rng(seed + 4)
        sigma = np.concatenate(([1], dense.random_configuration(rng)))
        assert sparse.with_ancilla().energy(sigma) == pytest.approx(
            dense.with_ancilla().energy(sigma), abs=1e-12
        )
        s2 = sigma[1:]
        assert sparse.scaled(0.5).energy(s2) == dense.scaled(0.5).energy(s2)

    def test_auto_acceptance_scale_matches_across_backends(self):
        dense, sparse = dyadic_pair(77)
        assert auto_acceptance_scale(sparse) == auto_acceptance_scale(dense)

    def test_coupling_ops_dispatch(self):
        dense, sparse = dyadic_pair(5)
        assert coupling_ops(dense).kind == "dense"
        assert coupling_ops(sparse).kind == "sparse"
        with pytest.raises(TypeError, match="IsingModel"):
            coupling_ops(object())
        assert coupling_ops(sparse).memory_bytes() < coupling_ops(dense).memory_bytes()

    @pytest.mark.parametrize("backend", ["dense", "sparse", "packed"])
    def test_backend_name_is_the_dispatch_key(self, backend):
        """The adapter, the plan and as_backend all read ``model.backend``."""
        dense = generate_random(40, 100, weighted=True, seed=3).to_ising("dense")
        model = as_backend(dense, backend)
        assert model.backend == backend
        assert coupling_ops(model).kind == backend
        assert compile_plan(model).summary()["backend"] == backend
        assert as_backend(model, model.backend) is model
        # A matrix alone names no backend: no adapter is guessed for it.
        with pytest.raises(TypeError, match="expected an IsingModel or SparseIsingModel"):
            coupling_ops(SimpleNamespace(J=dense.J, num_spins=40))


class TestTrajectoryEquivalence:
    @relaxed
    @given(
        seed=st.integers(0, 10_000),
        method=st.sampled_from(["insitu", "sa", "mesa"]),
    )
    def test_fixed_seed_trajectories_coincide(self, seed, method):
        dense, sparse = dyadic_pair(seed, n=30)
        rd = solve_ising(dense, method=method, iterations=300, seed=seed)
        rs = solve_ising(sparse, method=method, iterations=300, seed=seed)
        assert rs.best_energy == rd.best_energy
        assert rs.energy == rd.energy
        assert np.array_equal(rs.sigma, rd.sigma)
        assert np.array_equal(rs.best_sigma, rd.best_sigma)
        assert rs.accepted == rd.accepted
        assert rs.uphill_accepted == rd.uphill_accepted

    @relaxed
    @given(seed=st.integers(0, 10_000), flips=st.integers(2, 5))
    def test_multi_flip_trajectories_coincide(self, seed, flips):
        """The t > 1 cross-term path (flip-set submatrix) is exact too."""
        dense, sparse = dyadic_pair(seed, n=24)
        for method in ("insitu", "sa"):
            rd = solve_ising(
                dense, method=method, iterations=200, seed=seed,
                flips_per_iteration=flips,
            )
            rs = solve_ising(
                sparse, method=method, iterations=200, seed=seed,
                flips_per_iteration=flips,
            )
            assert rs.best_energy == rd.best_energy
            assert np.array_equal(rs.sigma, rd.sigma)

    @pytest.mark.parametrize("engine", [BatchInSituAnnealer, BatchDirectEAnnealer])
    @pytest.mark.parametrize("proposal", ["scan", "random"])
    @pytest.mark.parametrize("flips", [1, 4])
    def test_batch_replicas_coincide(self, engine, proposal, flips):
        problem = MaxCutProblem.random(60, 200, weighted=True, seed=13)
        md = problem.to_ising(backend="dense")
        ms = problem.to_ising(backend="sparse")
        bd = engine(
            md, replicas=6, proposal=proposal, flips_per_iteration=flips, seed=3
        ).run(250)
        bs = engine(
            ms, replicas=6, proposal=proposal, flips_per_iteration=flips, seed=3
        ).run(250)
        assert np.array_equal(bs.best_energies, bd.best_energies)
        assert np.array_equal(bs.final_energies, bd.final_energies)
        assert np.array_equal(bs.final_sigmas, bd.final_sigmas)
        assert np.array_equal(bs.accepted, bd.accepted)


class TestConstructionAndSelection:
    def test_from_edges_matches_from_dense(self):
        problem = MaxCutProblem.random(40, 120, weighted=True, seed=21)
        via_edges = problem.to_ising(backend="sparse")
        via_dense = SparseIsingModel.from_dense(problem.adjacency() / 4.0)
        sigma = via_edges.random_configuration(1)
        assert via_edges.num_interactions == problem.num_edges
        assert via_edges.energy(sigma) == via_dense.energy(sigma)
        # Equivalence harness (tiny model): densify to compare.
        # repro-lint: disable=RPL001
        assert np.array_equal(via_edges.toarray(), via_dense.toarray())

    def test_from_edges_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseIsingModel.from_edges(4, [0, 1], [1, 0], [1.0, 2.0])
        with pytest.raises(
            ValueError, match="entries 1 and 3 both couple spins 2 and 2$"
        ):
            SparseIsingModel.from_edges(
                4, [0, 2, 1, 2, 0], [1, 2, 3, 2, 1], [1.0, 0.5, 2.0, 0.5, 1.0]
            )

    def test_duplicate_flips_rejected(self):
        model = SparseIsingModel.random(20, seed=4)
        sigma = model.random_configuration(5)
        with pytest.raises(ValueError, match="unique"):
            model.delta_energy_flips(sigma, [7, 2, 9, 2])

    @relaxed
    @given(st.integers(0, 2**32 - 1))
    def test_csr_order_is_lexsort_order(self, seed):
        """from_edges and permuted sort by one key; lexsort is the reference."""
        rng = ensure_rng(seed)
        n = int(rng.integers(2, 60))
        rows, cols = np.triu_indices(n)
        pick = np.flatnonzero(rng.random(rows.size) < 0.3)
        pick = pick[rng.permutation(pick.size)]
        swap = rng.random(pick.size) < 0.5
        r = np.where(swap, cols[pick], rows[pick])
        c = np.where(swap, rows[pick], cols[pick])
        v = rng.integers(-3, 4, size=r.size) / 3.0  # explicit zeros too
        model = SparseIsingModel.from_edges(n, r, c, v)
        r, c, v = r[v != 0], c[v != 0], v[v != 0]
        off = r != c
        full_r, full_c = np.r_[r, c[off]], np.r_[c, r[off]]
        full_v = np.r_[v, v[off]]
        order = np.lexsort((full_c, full_r))
        _, indices, data = model.csr_arrays()
        assert np.array_equal(indices, full_c[order])
        assert np.array_equal(data, full_v[order])
        # A raw CSR may repeat an entry: permuted keeps its two copies in
        # stored order, as the stable lexsort does.
        k = int(rng.integers(full_r.size)) if full_r.size else 0
        raw_r = np.r_[full_r[order], full_r[order][k:k + 1]]
        raw_c = np.r_[full_c[order], full_c[order][k:k + 1]]
        raw_v = np.r_[full_v[order], full_v[order][k:k + 1] + 0.5]
        by_row = np.argsort(raw_r, kind="stable")
        indptr = np.r_[0, np.cumsum(np.bincount(raw_r, minlength=n))]
        raw = SparseIsingModel(indptr, raw_c[by_row], raw_v[by_row])
        fwd = rng.permutation(n)
        moved_r, moved_c = fwd[raw_r[by_row]], fwd[raw_c[by_row]]
        want = np.lexsort((moved_c, moved_r))
        _, indices, data = raw.permuted(fwd).csr_arrays()
        assert np.array_equal(indices, moved_c[want])
        assert np.array_equal(data, raw_v[by_row][want])
        with pytest.raises(ValueError, match="out of range"):
            SparseIsingModel.from_edges(3, [0], [5], [1.0])
        with pytest.raises(ValueError, match="fields"):
            SparseIsingModel.from_edges(3, [0], [1], [1.0], fields=np.ones(5))
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            SparseIsingModel.from_edges(0, [], [], [])

    def test_from_edges_refuses_fractional_indices(self):
        """A fractional index is refused, not truncated onto another spin."""
        with pytest.raises(ValueError, match="^rows must hold integer spin indices"):
            SparseIsingModel.from_edges(3, [0.7], [1.9], [1.0])
        with pytest.raises(ValueError, match="^cols must hold integer spin indices"):
            SparseIsingModel.from_edges(3, [0], [1.9], [1.0])
        integral = SparseIsingModel.from_edges(3, [1.0], [2.0], [1.0])
        assert integral.csr_arrays()[1].tolist() == [2, 1]

    def test_non_finite_entries_refused(self):
        """Every constructor path names the bad entry; packed inherits it."""
        with pytest.raises(ValueError, match=r"^couplings must be finite, got nan at \[0, 2\]$"):
            SparseIsingModel.from_edges(3, [0, 2], [1, 0], [1.0, np.nan])
        J = np.zeros((3, 3))
        J[1, 2] = J[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"^couplings must be finite, got nan at \[1, 2\]$"):
            SparseIsingModel.from_dense(J)
        with pytest.raises(ValueError, match=r"^couplings must be finite, got inf at \[1, 0\]$"):
            SparseIsingModel([0, 1, 2], [1, 0], [1.0, np.inf])
        with pytest.raises(ValueError, match=r"^fields must be finite, got -inf at \[2\]$"):
            SparseIsingModel.from_edges(3, [0], [1], [1.0], fields=[0.0, 0.0, -np.inf])
        with pytest.raises(ValueError, match="^offset must be finite, got nan$"):
            SparseIsingModel.from_edges(3, [0], [1], [1.0], offset=np.nan)
        with pytest.raises(ValueError, match="^couplings must be finite"):
            PackedIsingModel([0, 1, 2], [1, 0], [0.25, np.nan])

    def test_non_finite_model_never_reaches_the_solver(self):
        """It used to anneal to ``best_energy = inf`` without an error."""
        J = np.zeros((4, 4))
        J[0, 1] = J[1, 0] = np.inf
        with pytest.raises(ValueError, match="couplings must be finite"):
            solve_ising(IsingModel(J), iterations=20, seed=0)
        with pytest.raises(ValueError, match="couplings must be finite"):
            solve_ising(
                SparseIsingModel.from_edges(4, [0], [1], [np.inf]),
                iterations=20, seed=0,
            )

    def test_explicit_zeros_dropped(self):
        m = SparseIsingModel.from_edges(4, [0, 1, 2], [1, 2, 3], [1.0, 0.0, 2.0])
        assert m.num_interactions == 2
        assert m.nnz == 4

    def test_diagonal_entries_are_constant_energy(self):
        J = np.diag([0.5, -0.25, 0.125])
        dense = IsingModel(J)
        sparse = SparseIsingModel.from_dense(J)
        sigma = np.array([1, -1, 1], dtype=np.int8)
        assert sparse.energy(sigma) == dense.energy(sigma) == pytest.approx(0.375)
        assert sparse.delta_energy_flips(sigma, [0, 2]) == 0.0

    def test_round_trip_dense_sparse_dense(self):
        dense, sparse = dyadic_pair(11)
        back = sparse.to_dense()
        assert np.array_equal(back.J, dense.J)
        assert np.array_equal(back.h, dense.h)
        assert back.offset == dense.offset

    def test_recommended_backend_thresholds(self):
        n = SPARSE_MIN_SPINS
        assert recommended_backend(n - 1, 10) == "dense"
        assert recommended_backend(n, 3 * n) == "sparse"
        # density above the ceiling stays dense even at scale
        dense_pairs = int(0.5 * n * (n - 1) / 2)
        assert recommended_backend(n, dense_pairs) == "dense"

    def test_to_ising_auto_selects_by_size(self):
        small = MaxCutProblem.random(40, 120, seed=1)
        assert isinstance(small.to_ising(), IsingModel)
        big = MaxCutProblem.random(SPARSE_MIN_SPINS, 3 * SPARSE_MIN_SPINS, seed=2)
        assert isinstance(big.to_ising(), SparseIsingModel)
        assert isinstance(big.to_ising(backend="dense"), IsingModel)
        with pytest.raises(ValueError, match="backend"):
            small.to_ising(backend="csr")

    def test_as_backend_conversions(self):
        dense, sparse = dyadic_pair(31)
        assert as_backend(dense, "dense") is dense
        assert as_backend(sparse, "sparse") is sparse
        assert isinstance(as_backend(dense, "sparse"), SparseIsingModel)
        assert isinstance(as_backend(sparse, "dense"), IsingModel)
        # auto on a small model picks dense either way
        assert isinstance(as_backend(sparse, "auto"), IsingModel)
        with pytest.raises(ValueError, match="backend"):
            as_backend(dense, "bogus")

    @pytest.mark.parametrize(
        "knobs, match",
        [
            ({"degree": -1.0}, "^degree must be > 0, got -1.0$"),
            ({"degree": True}, "^degree must be a real number, got True$"),
            ({"coupling_scale": -2.0}, "^coupling_scale must be > 0, got -2.0$"),
            ({"coupling_scale": np.nan}, "^coupling_scale must be finite, got nan$"),
            ({"coupling_scale": True}, "^coupling_scale must be a real number, got True$"),
        ],
    )
    def test_sparse_random_refuses_bad_knobs(self, knobs, match):
        with pytest.raises(ValueError, match=match):
            SparseIsingModel.random(10, **knobs)

    def test_sparse_random_constructor(self):
        m = SparseIsingModel.random(100, degree=6.0, with_fields=True, seed=4)
        assert m.num_spins == 100
        assert m.num_interactions == 300
        assert m.has_fields
        assert 0.0 < m.density < 0.07
        sigma = m.random_configuration(0)
        assert m.energy(sigma) == pytest.approx(m.to_dense().energy(sigma), abs=1e-9)

    def test_brute_force_minimum_matches(self):
        dense, sparse = dyadic_pair(3, n=8)
        sd, ed = dense.brute_force_minimum()
        ss, es = sparse.brute_force_minimum()
        assert es == ed
        assert np.array_equal(ss, sd)
