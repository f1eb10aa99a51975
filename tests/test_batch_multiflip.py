"""Rank-t replica batch engine: bit-identity against a straight-line loop.

The batch engines advance R replicas with array-wide rank-``t`` moves
(``batch_cross_term`` / rank-t ``batch_update_fields``).  The pin here is
the strongest available: for dyadic couplings — where every floating-point
sum is exact in any order — a batch run must be **bit-identical, replica by
replica**, to a straight-line reference loop that replays the same RNG
stream through the *sequential* coupling ops (``cross_term`` /
``update_fields``) one replica at a time.  That ties the vectorised rank-t
kernels to the sequential rank-t mathematics on both coupling backends.

Also covered: acceptance-rule parity between the batch and sequential
engines at comparison boundaries (the satellite audit), rank-t validation,
and permutation transparency of the replica path.
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
    batch,
    coupling_ops,
    solve_ising,
)
from repro.core.factors import FractionalFactor, VbgEncoder
from repro.core.reorder import reorder_permutation
from repro.core.schedule import (
    ConstantSchedule,
    GeometricSchedule,
    LinearSchedule,
    ReverseVbgSchedule,
    Schedule,
    VbgStepSchedule,
)
from repro.ising import IsingModel, MaxCutProblem, SparseIsingModel
from repro.ising.packed import PackedIsingModel
from repro.utils.rng import ensure_rng

relaxed = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ENGINES = (BatchInSituAnnealer, BatchDirectEAnnealer)


def dyadic_pair(seed: int, n: int = 18, with_fields: bool = True):
    """A (dense, sparse) model pair with exactly-representable couplings."""
    rng = ensure_rng(seed)
    values = rng.integers(-8, 9, size=(n, n)) / 8.0
    mask = rng.random((n, n)) < 0.35
    upper = np.triu(values * mask, k=1)
    J = upper + upper.T
    h = rng.integers(-8, 9, size=n) / 8.0 if with_fields else None
    dense = IsingModel(J, h, offset=0.125, name=f"dyadic-{n}")
    return dense, SparseIsingModel.from_ising(dense)


def reference_batch_run(engine, iterations: int):
    """Straight-line per-replica replay of ``engine``'s batch run.

    Consumes the engine's RNG in exactly the order :meth:`_BatchEngine.run`
    does (schedule → initial state → proposal tensor → per-iteration
    uniforms), then advances each replica independently with the
    *sequential* coupling ops and the *sequential* acceptance rules.
    Returns ``(best_energies, best_sigmas, final_energies, final_sigmas,
    accepted)`` in the caller's original spin ordering.
    """
    rng = engine._rng
    R, n = engine.replicas, engine.n
    schedule = engine._build_schedule(iterations)
    sigma0 = engine._initial_sigma(None, rng)
    if engine._bwd is not None:
        sigma0 = np.ascontiguousarray(sigma0[:, engine._bwd])
    proposals = engine._proposal_tensor(iterations)
    if engine._fwd is not None:
        proposals = engine._fwd[proposals]
    uniforms = np.stack([rng.random(R) for _ in range(iterations)])

    ops = coupling_ops(engine.model)
    h = engine.model.h
    has_fields = engine.model.has_fields
    insitu = isinstance(engine, BatchInSituAnnealer)

    best_energies = np.empty(R)
    final_energies = np.empty(R)
    best_sigmas = np.empty((R, n))
    final_sigmas = np.empty((R, n))
    accepted = np.zeros(R, dtype=np.int64)
    for r in range(R):
        sig = sigma0[r].copy()
        g = ops.local_fields(sig)
        energy = float(sig @ g + h @ sig) + engine.model.offset
        best_energy, best_sig = energy, sig.copy()
        for it in range(iterations):
            temperature = schedule.temperature(it)
            flips = proposals[it, r].astype(np.intp)
            sig_f = sig[flips]
            cross = ops.cross_term(g, flips, sig_f)
            field_term = (
                float(-(h[flips] * sig_f).sum()) if has_fields else 0.0
            )
            delta_e = 4.0 * cross + 2.0 * field_term
            u = uniforms[it, r]
            if insitu:
                # the sequential InSituAnnealer rule, verbatim
                f_value = scalar_factor(engine, temperature)
                e_inc = (
                    (cross + field_term / 2.0)
                    * f_value
                    * engine.acceptance_scale
                )
                accept = e_inc <= 0.0 or e_inc <= u
            else:
                # the sequential DirectEAnnealer rule, verbatim
                if delta_e <= 0.0:
                    accept = True
                else:
                    accept = u < np.exp(
                        -delta_e / max(float(temperature), 1e-12)
                    )
            if accept:
                accepted[r] += 1
                ops.update_fields(g, flips, sig_f)
                sig[flips] = -sig_f
                energy += delta_e
                if energy < best_energy:
                    best_energy, best_sig = energy, sig.copy()
        best_energies[r], final_energies[r] = best_energy, energy
        best_sigmas[r], final_sigmas[r] = best_sig, sig
    if engine._fwd is not None:
        best_sigmas = best_sigmas[:, engine._fwd]
        final_sigmas = final_sigmas[:, engine._fwd]
    return best_energies, best_sigmas, final_energies, final_sigmas, accepted


def scalar_factor(engine, temperature) -> float:
    """Per-iteration scalar ``f(T)``: the encoder's realised factor, else ``f``."""
    if engine.encoder is not None:
        return engine.encoder.realized_factor(temperature)
    return float(engine.factor.value(temperature))


def assert_matches_reference(result, ref) -> None:
    best_e, best_s, final_e, final_s, accepted = ref
    assert np.array_equal(result.best_energies, best_e)
    assert np.array_equal(result.final_energies, final_e)
    assert np.array_equal(result.best_sigmas, best_s.astype(np.int8))
    assert np.array_equal(result.final_sigmas, final_s.astype(np.int8))
    assert np.array_equal(result.accepted, accepted)


def nonlinear_transfer(v_bg: float) -> float:
    """A convex, non-decreasing stand-in for a device transfer curve."""
    return (v_bg / 0.7) ** 2


class TestBitIdentityAgainstReferenceLoop:
    @relaxed
    @given(
        seed=st.integers(0, 10_000),
        t=st.integers(1, 6),
        engine_cls=st.sampled_from(ENGINES),
        proposal=st.sampled_from(["scan", "random"]),
        backend=st.sampled_from(["dense", "sparse"]),
    )
    def test_batch_matches_per_replica_reference(
        self, seed, t, engine_cls, proposal, backend
    ):
        dense, sparse = dyadic_pair(seed)
        model = dense if backend == "dense" else sparse
        kwargs = dict(
            replicas=4, flips_per_iteration=t, proposal=proposal, seed=seed
        )
        result = engine_cls(model, **kwargs).run(120)
        ref = reference_batch_run(engine_cls(model, **kwargs), 120)
        assert_matches_reference(result, ref)

    @relaxed
    @given(
        seed=st.integers(0, 10_000),
        t=st.integers(1, 4),
        backend=st.sampled_from(["dense", "sparse"]),
        transfer=st.sampled_from([None, nonlinear_transfer]),
    )
    def test_encoder_batch_matches_per_replica_reference(
        self, seed, t, backend, transfer
    ):
        """The encoder's realised factor reaches the batch accept rule."""
        dense, sparse = dyadic_pair(seed)
        model = dense if backend == "dense" else sparse
        encoder = VbgEncoder(FractionalFactor(), transfer=transfer)
        kwargs = dict(
            replicas=4, flips_per_iteration=t, encoder=encoder, seed=seed
        )
        result = BatchInSituAnnealer(model, **kwargs).run(120)
        ref = reference_batch_run(BatchInSituAnnealer(model, **kwargs), 120)
        assert_matches_reference(result, ref)

    @relaxed
    @given(seed=st.integers(0, 10_000), t=st.integers(1, 5))
    def test_permuted_batch_matches_reference_and_identity(self, seed, t):
        """Reordered replica solves replay the identical trajectory."""
        problem = MaxCutProblem.random(40, 120, weighted=True, seed=seed)
        model = problem.to_ising(backend="sparse")
        perm = reorder_permutation(model, "rcm")
        if perm is None:
            return
        for engine_cls in ENGINES:
            kwargs = dict(replicas=3, flips_per_iteration=t, seed=seed)
            plain = engine_cls(model, **kwargs).run(100)
            permuted = engine_cls(
                model.permuted(perm), permutation=perm, **kwargs
            ).run(100)
            assert np.array_equal(plain.best_energies, permuted.best_energies)
            assert np.array_equal(plain.final_sigmas, permuted.final_sigmas)
            assert np.array_equal(plain.best_sigmas, permuted.best_sigmas)
            assert np.array_equal(plain.accepted, permuted.accepted)
            ref = reference_batch_run(
                engine_cls(model.permuted(perm), permutation=perm, **kwargs),
                100,
            )
            assert np.array_equal(permuted.best_energies, ref[0])
            assert np.array_equal(permuted.final_sigmas, ref[3].astype(np.int8))


def pm_quarter_triple(seed: int, n: int = 18):
    """Dense / sparse / packed twins of a ±1/4 model with dyadic fields."""
    base = SparseIsingModel.random(n, degree=5.0, seed=seed)
    indptr, indices, data = base.csr_arrays()
    h = ensure_rng(seed).integers(-4, 5, size=n) / 4.0
    sparse = SparseIsingModel(
        indptr, indices, np.sign(data) * 0.25, h, 0.5, f"pm-{n}-{seed}"
    )
    return sparse.to_dense(), sparse, PackedIsingModel.from_sparse(sparse)


class TestChunkBoundaries:
    """The loop draws uniforms (and lays out coefficients) in chunks; a
    run spanning several chunks and a ragged last one must still replay
    the straight-line reference on every backend, with and without a
    permutation."""

    @pytest.mark.parametrize("permuted", [False, True])
    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("backend", ["dense", "sparse", "packed"])
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_run_matches_reference_across_chunks(
        self, monkeypatch, engine_cls, backend, t, permuted
    ):
        chunk = 7
        monkeypatch.setattr(batch, "CHUNK_ITERATIONS", chunk)
        iterations = 3 * chunk + 2
        models = dict(zip(("dense", "sparse", "packed"), pm_quarter_triple(t)))
        model = models[backend]
        kwargs = dict(replicas=4, flips_per_iteration=t, seed=31 + t)
        if permuted:
            perm = ensure_rng(7).permutation(model.num_spins)
            model = model.permuted(perm)
            kwargs["permutation"] = perm
        result = engine_cls(model, **kwargs).run(iterations)
        ref = reference_batch_run(engine_cls(model, **kwargs), iterations)
        assert_matches_reference(result, ref)
        assert result.accepted.sum() > 0


class TestAcceptanceParity:
    """Satellite audit: batch accept rules == sequential rules at boundaries.

    The oracles below are the sequential engines' accept expressions
    verbatim (InSituAnnealer: ``e_inc <= 0 or e_inc <= u``;
    DirectEAnnealer: ``delta_e <= 0 or u < exp(-delta_e/T)``).  A drift in
    either comparison operator or in the factor/scale association flips
    one of the exact-boundary cases.
    """

    def test_insitu_boundaries(self, small_model):
        engine = BatchInSituAnnealer(
            small_model, replicas=1, acceptance_scale=1.5, seed=0
        )
        temperature = 0.35
        f_value = scalar_factor(engine, temperature)
        scale = engine.acceptance_scale
        cross = np.array([-1.0, 0.0, 0.25, 0.25, 0.25, 2.0])
        field = np.zeros(6)
        e_inc = cross * f_value * scale
        # u exactly at, just below, and far from the threshold
        u = np.array([0.0, 0.0, e_inc[2], np.nextafter(e_inc[3], -1.0), 1.0, 0.0])
        got = engine._accept(cross, field, 4.0 * cross, f_value, scale, u)
        expected = [
            bool(e <= 0.0 or e <= uu) for e, uu in zip(e_inc, u)
        ]
        assert got.tolist() == expected
        # the boundary rows are the interesting ones: pinned explicitly
        assert got[1]          # e_inc == 0 accepted without consuming luck
        assert got[2]          # e_inc == u accepted (<= comparison)
        assert not got[3]      # u one ulp below e_inc rejected

    def test_insitu_association_matches_sequential(self, small_model):
        """(x·f)·scale, not x·(f·scale) — last-ulp parity with sequential."""
        engine = BatchInSituAnnealer(
            small_model, replicas=1, acceptance_scale="auto", seed=0
        )
        temperature = 0.61
        f_value = scalar_factor(engine, temperature)
        scale = engine.acceptance_scale
        rng = ensure_rng(7)
        cross = rng.integers(-64, 65, size=512) / 64.0
        field = rng.integers(-64, 65, size=512) / 64.0
        e_inc_seq = (cross + field / 2.0) * f_value * scale
        u = np.abs(e_inc_seq)  # exact threshold for every row
        got = engine._accept(
            cross, field, 4.0 * cross + 2.0 * field, f_value, scale, u
        )
        expected = (e_inc_seq <= 0.0) | (e_inc_seq <= u)
        assert np.array_equal(got, expected)

    def test_direct_e_boundaries(self, small_model):
        engine = BatchDirectEAnnealer(small_model, replicas=1, seed=0)
        temperature = 0.8
        delta_e = np.array([-2.0, 0.0, 1.0, 1.0, 1.0])
        threshold = float(np.exp(-1.0 / temperature))
        u = np.array([1.0 - 1e-12, 1.0 - 1e-12, threshold,
                      np.nextafter(threshold, 0.0), 0.0])
        got = engine._accept(
            delta_e / 4.0, np.zeros(5), delta_e, max(temperature, 1e-12), 1.0, u
        )
        expected = [
            bool(d <= 0.0 or uu < np.exp(-d / max(temperature, 1e-12)))
            for d, uu in zip(delta_e, u)
        ]
        assert got.tolist() == expected
        assert got[1]          # ΔE == 0 accepted downhill-style
        assert not got[2]      # u == exp(-ΔE/T) rejected (strict <)
        assert got[3]          # one ulp below accepted

    #: Both ends of the uniforms' range [0, 1): the batch rules are one
    #: comparison each, exact only because u never reaches 1.
    EDGE_U = (0.0, float(np.nextafter(1.0, 0.0)))

    def test_insitu_one_comparison_edges(self, small_model):
        """Signed-zero and NaN increments at both ends of u's range."""
        engine = BatchInSituAnnealer(
            small_model, replicas=1, acceptance_scale=1.5, seed=0
        )
        f_value = scalar_factor(engine, 0.35)
        scale = engine.acceptance_scale
        # (cross, field) giving e_inc = +0.0, -0.0, NaN, and a small
        # increment of either sign.
        pairs = [(0.0, 0.0), (-0.0, -0.0), (np.nan, 0.0), (1e-300, 0.0),
                 (-1e-300, 0.0), (0.25, -0.5)]
        cross = np.array([c for c, _ in pairs for _ in self.EDGE_U])
        field = np.array([f for _, f in pairs for _ in self.EDGE_U])
        u = np.array(self.EDGE_U * len(pairs))
        e_inc = [(c + f / 2.0) * f_value * scale for c, f in zip(cross, field)]
        assert np.signbit(e_inc[0:2]).tolist() == [False, False]
        assert np.signbit(e_inc[2:4]).tolist() == [True, True]
        assert np.isnan(e_inc[4:6]).all()
        got = engine._accept(cross, field, 4.0 * cross + 2.0 * field,
                             f_value, scale, u)
        expected = [bool(e <= 0.0 or e <= uu) for e, uu in zip(e_inc, u)]
        assert got.tolist() == expected

    def test_direct_e_one_comparison_edges(self, small_model):
        """Signed-zero, NaN and vanishing ΔE at both ends of u's range."""
        engine = BatchDirectEAnnealer(small_model, replicas=1, seed=0)
        temperature = 0.8
        values = [0.0, -0.0, np.nan, 1e-300, -1.0, 1.0]
        delta_e = np.array([d for d in values for _ in self.EDGE_U])
        u = np.array(self.EDGE_U * len(values))
        got = engine._accept(
            delta_e / 4.0, np.zeros(delta_e.size), delta_e,
            max(temperature, 1e-12), 1.0, u,
        )
        expected = [
            bool(d <= 0.0 or uu < np.exp(-d / max(temperature, 1e-12)))
            for d, uu in zip(delta_e, u)
        ]
        assert got.tolist() == expected
        assert got[7]          # exp(-1e-300/T) rounds to 1.0 > u
        assert not got[4] and not got[5]   # NaN rejected like the oracle


class _SawtoothSchedule(Schedule):
    """A third-party schedule: only ``temperature`` is defined, so
    ``profile()`` is the base class's per-iteration loop."""

    def temperature(self, iteration: int) -> float:
        return 600.0 * (1.0 - (iteration % 7) / 7.0)


COEFFICIENT_SCHEDULES = [
    ConstantSchedule(40, 250.0),
    ConstantSchedule(5, 0.0),            # SA floors T = 0 at 1e-12
    GeometricSchedule(300, 600.0, 0.5),
    LinearSchedule(150, 650.0, 0.0),
    VbgStepSchedule(400),                # default hold: the full grid
    VbgStepSchedule(9),                  # compressed grid
    VbgStepSchedule(120, hold=3),        # explicit hold, truncated walk
    ReverseVbgSchedule(200),
    _SawtoothSchedule(50),
]


class TestAcceptCoefficients:
    """Each run derives one accept coefficient per iteration up front;
    every entry must equal the per-iteration scalar path bit for bit."""

    @pytest.mark.parametrize("curve", ["no-encoder", "ideal", "nonlinear"])
    @pytest.mark.parametrize(
        "schedule", COEFFICIENT_SCHEDULES,
        ids=lambda s: f"{type(s).__name__}-{s.iterations}",
    )
    def test_insitu_matches_scalar_factor(self, small_model, schedule, curve):
        factor = FractionalFactor()
        encoder = {
            "no-encoder": None,
            "ideal": VbgEncoder(factor),
            "nonlinear": VbgEncoder(factor, transfer=nonlinear_transfer),
        }[curve]
        engine = BatchInSituAnnealer(
            small_model, replicas=2, factor=factor, schedule=schedule,
            encoder=encoder, seed=0,
        )
        scalar = np.array([
            scalar_factor(engine, schedule.temperature(it))
            for it in range(schedule.iterations)
        ])
        got = engine._accept_coefficients(schedule)
        assert got.dtype == np.float64
        assert got.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize(
        "schedule", COEFFICIENT_SCHEDULES,
        ids=lambda s: f"{type(s).__name__}-{s.iterations}",
    )
    def test_sa_matches_floored_temperature(self, small_model, schedule):
        engine = BatchDirectEAnnealer(
            small_model, replicas=2, schedule=schedule, seed=0
        )
        scalar = np.array([
            max(float(schedule.temperature(it)), 1e-12)
            for it in range(schedule.iterations)
        ])
        got = engine._accept_coefficients(schedule)
        assert got.dtype == np.float64
        assert got.tobytes() == scalar.tobytes()


def zero_field_ring():
    """Dense / sparse / packed twins of a ±1/4 ring on spins 0-11.

    Spins 12-15 are isolated, so their local field is exactly 0.0 and a
    single-flip cross term there is ±0 (the sign follows the spin).
    """
    n = 16
    J = np.zeros((n, n))
    signs = ensure_rng(5).choice(np.array([-0.25, 0.25]), size=12)
    for i in range(12):
        j = (i + 1) % 12
        J[i, j] = J[j, i] = signs[i]
    dense = IsingModel(J, name="ring-12+4")
    sparse = SparseIsingModel.from_ising(dense)
    return dense, sparse, PackedIsingModel.from_sparse(sparse)


class TestCrossTermKernels:
    """``batch_cross_term`` is byte-equal to summing its per-slot kernel,
    including at t=1, where that sum turns -0.0 slots into +0.0."""

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("backend", ["dense", "sparse", "packed"])
    def test_batch_cross_term_equals_summed_slots(self, backend, t):
        models = dict(zip(("dense", "sparse", "packed"), zero_field_ring()))
        ops = coupling_ops(models[backend])
        rng = ensure_rng(11)
        R, n = 24, 16
        sigma = rng.choice(np.array([-1.0, 1.0]), size=(R, n))
        sigma[:, 12:] = 1.0
        sigma[::2, 12:] = -1.0
        state = ops.make_batch_state(sigma)
        g = state.fields
        idx = np.stack([rng.permutation(n)[:t] for _ in range(R)])
        idx[:8, 0] = 12 + np.arange(8) % 4     # isolated: cross term ±0
        rows = np.arange(R)[:, None]
        sig_f = state.gather(rows, idx)
        slots = ops.batch_cross_term_slots(g, idx, sig_f)
        got = ops.batch_cross_term(g, idx, sig_f)
        assert got.tobytes() == slots.sum(axis=1).tobytes()
        if t == 1:
            zero = slots[:, 0] == 0.0
            assert np.signbit(slots[zero, 0]).any()
            assert not np.signbit(slots[zero, 0]).all()

    @pytest.mark.parametrize("backend", ["sparse", "packed"])
    def test_gather_returns_float64_spins(self, backend):
        _, sparse, packed = zero_field_ring()
        model = sparse if backend == "sparse" else packed
        sigma = ensure_rng(2).choice(np.array([-1.0, 1.0]), size=(3, 16))
        state = coupling_ops(model).make_batch_state(sigma)
        assert isinstance(
            state, FloatBatchState if backend == "sparse" else PackedBatchState
        )
        rows = np.arange(3)[:, None]
        idx = np.array([[0, 5], [12, 15], [3, 9]])
        got = state.gather(rows, idx)
        assert got.dtype == np.float64
        assert np.array_equal(got, sigma[rows, idx])


class TestRankTValidation:
    def test_flips_bounds_and_bool(self, small_model):
        for engine_cls in ENGINES:
            with pytest.raises(ValueError, match="flips_per_iteration must be an integer"):
                engine_cls(small_model, replicas=2, flips_per_iteration=True)
            with pytest.raises(ValueError, match="flips_per_iteration must be >= 1"):
                engine_cls(small_model, replicas=2, flips_per_iteration=0)
            with pytest.raises(ValueError, match=r"must be in \[1, 12\]"):
                engine_cls(small_model, replicas=2, flips_per_iteration=13)

    def test_boolean_iterations_rejected(self, small_model):
        """run(iterations=True) used to silently run a single iteration."""
        for engine_cls in ENGINES:
            engine = engine_cls(small_model, replicas=2, seed=0)
            for bad in (True, False):
                with pytest.raises(ValueError, match="iterations must be an integer"):
                    engine.run(bad)
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            BatchInSituAnnealer(small_model, replicas=2, seed=0).run(0)

    def test_initial_must_be_spin_valued(self, small_model):
        """±2 entries used to corrupt the cached fields silently."""
        n = small_model.num_spins
        engine = BatchInSituAnnealer(small_model, replicas=3, seed=0)
        bad_flat = np.ones(n)
        bad_flat[4] = 2.0
        with pytest.raises(ValueError, match=r"must be ±1.*spin 4"):
            engine.run(10, initial=bad_flat)
        bad_batch = np.ones((3, n))
        bad_batch[1, 7] = 0.0
        with pytest.raises(ValueError, match=r"replica 1.*spin 7"):
            engine.run(10, initial=bad_batch)

    def test_valid_initial_still_accepted(self, small_model):
        n = small_model.num_spins
        engine = BatchInSituAnnealer(small_model, replicas=2, seed=0)
        init = np.ones((2, n))
        init[1] *= -1
        result = engine.run(5, initial=init)
        assert result.num_replicas == 2

    def test_fortran_ordered_initial_is_handled(self, small_model):
        """An F-ordered (R, n) initial must not break the sparse scatter."""
        sparse = SparseIsingModel.from_ising(small_model)
        n = small_model.num_spins
        init = np.asfortranarray(np.ones((4, n)))
        a = BatchInSituAnnealer(sparse, replicas=4, flips_per_iteration=2,
                                seed=3).run(60, initial=init)
        b = BatchInSituAnnealer(sparse, replicas=4, flips_per_iteration=2,
                                seed=3).run(60, initial=np.ones((4, n)))
        assert np.array_equal(a.final_sigmas, b.final_sigmas)
        assert np.array_equal(a.final_energies, b.final_energies)


class TestReplicaSolveAPI:
    def test_solve_ising_replica_path(self, small_model):
        result = solve_ising(
            small_model, replicas=6, iterations=80, seed=1,
            flips_per_iteration=3,
        )
        assert result.num_replicas == 6
        assert result.best_energy == result.best_energies.min()
        assert np.array_equal(
            result.best_sigma, result.best_sigmas[result.best_replica]
        )

    def test_replicas_reject_mesa_and_tiles(self, small_model):
        with pytest.raises(ValueError, match="no batch engine"):
            solve_ising(small_model, method="mesa", replicas=4)
        with pytest.raises(ValueError, match="tile_size"):
            solve_ising(small_model, replicas=4, tile_size=8)

    def test_replica_reorder_matches_identity(self):
        problem = MaxCutProblem.random(50, 140, weighted=True, seed=2)
        model = problem.to_ising(backend="sparse")
        plain = solve_ising(
            model, method="sa", replicas=5, iterations=150, seed=4,
            flips_per_iteration=2,
        )
        reordered = solve_ising(
            model, method="sa", replicas=5, iterations=150, seed=4,
            flips_per_iteration=2, reorder="rcm",
        )
        assert np.array_equal(plain.best_energies, reordered.best_energies)
        assert np.array_equal(plain.final_sigmas, reordered.final_sigmas)
