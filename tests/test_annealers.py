"""Tests for the software annealers: in-situ (Algorithm 1), SA, MESA."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ConstantSchedule,
    DirectEAnnealer,
    InSituAnnealer,
    MesaAnnealer,
    estimate_temperature_range,
    incremental_vectors,
    solve_ising,
    solve_maxcut,
)
from repro.core.coupling import coupling_ops
from repro.core.proposal import FlipSelector
from repro.ising import IsingModel, PackedIsingModel, SparseIsingModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_permutation
from tests.conftest import brute_force_maxcut


#: Read-out gains every in-situ engine refuses: not finite, or not > 0.
BAD_SCALES = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0]


class TestFlipSelector:
    def test_scan_covers_every_spin_once_per_sweep(self):
        rng = ensure_rng(0)
        sel = FlipSelector(10, 1, "scan", rng)
        seen = [int(sel.next()[0]) for _ in range(10)]
        assert sorted(seen) == list(range(10))

    def test_scan_reshuffles_between_sweeps(self):
        rng = ensure_rng(0)
        sel = FlipSelector(50, 1, "scan", rng)
        first = [int(sel.next()[0]) for _ in range(50)]
        second = [int(sel.next()[0]) for _ in range(50)]
        assert sorted(first) == sorted(second)
        assert first != second

    def test_random_mode_bounds(self):
        rng = ensure_rng(0)
        sel = FlipSelector(7, 3, "random", rng)
        for _ in range(20):
            flips = sel.next()
            assert len(set(flips.tolist())) == 3
            assert all(0 <= f < 7 for f in flips)

    def test_validation(self):
        rng = ensure_rng(0)
        with pytest.raises(ValueError):
            FlipSelector(5, 6, "scan", rng)
        with pytest.raises(ValueError):
            FlipSelector(5, 1, "sorted", rng)


class TestInSituAnnealer:
    def test_energy_bookkeeping_consistent(self, small_model):
        annealer = InSituAnnealer(small_model, seed=3)
        result = annealer.run(500)
        assert result.energy == pytest.approx(small_model.energy(result.sigma), abs=1e-6)
        assert result.best_energy == pytest.approx(
            small_model.energy(result.best_sigma), abs=1e-6
        )
        assert result.best_energy <= result.energy + 1e-9

    def test_reaches_small_instance_optimum(self, tiny_maxcut):
        result = solve_maxcut(tiny_maxcut, method="insitu", iterations=3000, seed=5)
        assert result.best_cut == pytest.approx(brute_force_maxcut(tiny_maxcut))

    def test_deterministic_given_seed(self, small_maxcut):
        a = solve_maxcut(small_maxcut, method="insitu", iterations=500, seed=9)
        b = solve_maxcut(small_maxcut, method="insitu", iterations=500, seed=9)
        assert a.best_cut == b.best_cut
        assert np.array_equal(a.anneal.sigma, b.anneal.sigma)

    def test_trace_recording(self, small_model):
        result = InSituAnnealer(small_model, record_trace=True, seed=1).run(200)
        assert result.energy_trace.shape == (200,)
        assert result.best_trace.shape == (200,)
        assert np.all(np.diff(result.best_trace) <= 1e-12)
        assert result.energy_trace[-1] == pytest.approx(result.energy)

    def test_handles_multi_flip(self, small_model):
        result = InSituAnnealer(small_model, flips_per_iteration=3, seed=2).run(300)
        assert result.energy == pytest.approx(small_model.energy(result.sigma), abs=1e-6)

    def test_initial_configuration_respected(self, small_model):
        init = np.ones(small_model.num_spins, dtype=np.int8)
        annealer = InSituAnnealer(small_model, seed=1)
        result = annealer.run(1, initial=init)
        # after one iteration at most one flip set (1 spin) differs
        assert np.count_nonzero(result.sigma != init) <= 1

    def test_iteration_hook_called(self, small_model):
        calls = []
        annealer = InSituAnnealer(
            small_model,
            seed=1,
            iteration_hook=lambda it, de, acc, t: calls.append((it, acc)),
        )
        annealer.run(50)
        assert len(calls) == 50
        assert calls[0][0] == 0

    @pytest.mark.parametrize("t", [1, 3])
    def test_evaluator_sees_incremental_vectors(self, small_model, t):
        """The scratch σ_r/σ_c buffers equal `incremental_vectors` per call.

        The annealer patches them in O(t) between proposals, so a flip
        left behind after an accepted or rejected proposal would show up
        here.  The evaluator is called exactly once per iteration.
        """
        calls = []

        def evaluator(sigma, flips, sigma_r, sigma_c, v_bg):
            _, want_r, want_c = incremental_vectors(sigma, flips)
            assert np.array_equal(sigma_r, want_r)
            assert np.array_equal(sigma_c, want_c)
            calls.append(v_bg)
            return float(sigma_r @ small_model.J @ sigma_c)

        result = InSituAnnealer(
            small_model, flips_per_iteration=t, evaluator=evaluator, seed=3
        ).run(200)
        assert len(calls) == 200
        assert 0 < result.accepted < 200  # both branches were exercised

    @pytest.mark.parametrize("scale", BAD_SCALES)
    def test_acceptance_scale_validation(self, small_model, scale):
        # A NaN gain used to run and accept nothing (NaN <= u is False).
        with pytest.raises(ValueError, match="^acceptance_scale must be"):
            InSituAnnealer(small_model, acceptance_scale=scale)

    @pytest.mark.parametrize("scale", BAD_SCALES)
    @pytest.mark.parametrize("replicas", [None, 2])
    def test_solve_ising_refuses_bad_acceptance_scale(
        self, small_model, scale, replicas
    ):
        with pytest.raises(ValueError, match="^acceptance_scale must be"):
            solve_ising(
                small_model, iterations=20, seed=0, replicas=replicas,
                acceptance_scale=scale,
            )

    def test_solve_ising_refuses_bool_acceptance_scale(self, small_model):
        # a bool must not run as a gain of 1.0
        with pytest.raises(ValueError, match="^acceptance_scale must be a real number, got True$"):
            solve_ising(small_model, iterations=20, seed=0, acceptance_scale=True)

    def test_flip_count_validation(self, small_model):
        with pytest.raises(ValueError):
            InSituAnnealer(small_model, flips_per_iteration=0)

    def test_schedule_length_mismatch_rejected(self, small_model):
        sched = ConstantSchedule(10, 1.0)
        annealer = InSituAnnealer(small_model, schedule=sched, seed=0)
        with pytest.raises(ValueError, match="schedule"):
            annealer.run(20)

    def test_exponent_evaluations_zero(self, small_model):
        """The whole point: no e^x hardware in the in-situ flow."""
        result = InSituAnnealer(small_model, seed=1).run(200)
        assert result.exponent_evaluations == 0

    def test_field_model_handled(self):
        model = IsingModel.random(10, with_fields=True, seed=4)
        result = InSituAnnealer(model, seed=1).run(400)
        assert result.energy == pytest.approx(model.energy(result.sigma), abs=1e-6)


@pytest.mark.parametrize("cls", [InSituAnnealer, DirectEAnnealer])
def test_bad_proposal_refused_at_construction(small_model, cls):
    # Refused before run() draws anything (SA's probe came first).
    rng = ensure_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="proposal 'walk'"):
        cls(small_model, proposal="walk", seed=rng)
    assert rng.bit_generator.state == state


class TestDirectEAnnealer:
    def test_energy_bookkeeping_consistent(self, small_model):
        result = DirectEAnnealer(small_model, seed=3).run(500)
        assert result.energy == pytest.approx(small_model.energy(result.sigma), abs=1e-6)

    def test_reaches_small_instance_optimum(self, tiny_maxcut):
        result = solve_maxcut(tiny_maxcut, method="sa", iterations=4000, seed=2)
        assert result.best_cut == pytest.approx(brute_force_maxcut(tiny_maxcut))

    def test_counts_exponent_evaluations(self, small_model):
        result = DirectEAnnealer(small_model, seed=1).run(500)
        assert result.exponent_evaluations == result.uphill_proposals
        assert result.exponent_evaluations > 0

    def test_zero_temperature_is_greedy(self, small_maxcut):
        model = small_maxcut.to_ising()
        sched = ConstantSchedule(300, 1e-12)
        result = DirectEAnnealer(model, schedule=sched, seed=1).run(300)
        assert result.uphill_accepted == 0

    def test_hot_temperature_accepts_most(self, small_maxcut):
        model = small_maxcut.to_ising()
        sched = ConstantSchedule(300, 1e6)
        result = DirectEAnnealer(model, schedule=sched, seed=1).run(300)
        assert result.acceptance_rate > 0.95

    def test_temperature_autotuning(self, small_maxcut):
        model = small_maxcut.to_ising()
        t0, t1 = estimate_temperature_range(model, seed=1)
        assert t0 > t1 > 0

    def test_autotune_validation(self, small_model):
        with pytest.raises(ValueError):
            estimate_temperature_range(small_model, p_start=0.5, p_end=0.9)

    @pytest.mark.parametrize("samples", [0, True, 2.5, -1])
    def test_autotune_rejects_bad_sample_counts(self, small_model, samples):
        rng = ensure_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^samples must be"):
            estimate_temperature_range(small_model, samples=samples, seed=rng)
        assert rng.bit_generator.state == state


def probe_models():
    """Dense / sparse / packed probe models, non-dyadic where allowed.

    The dense and sparse twins carry fields, a stored diagonal and
    non-dyadic couplings; the packed model (±1/4 couplings only, no
    diagonal) carries non-dyadic fields.
    """
    rng = ensure_rng(19)
    n = 23
    upper = np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.3), k=1)
    J = upper + upper.T + np.diag(rng.normal(size=n))
    dense = IsingModel(J, rng.normal(size=n), offset=0.3)
    base = SparseIsingModel.random(n, degree=4.0, seed=19)
    indptr, indices, data = base.csr_arrays()
    packed = PackedIsingModel(
        indptr, indices, np.sign(data) * 0.25, rng.normal(size=n)
    )
    return {
        "dense": dense,
        "sparse": SparseIsingModel.from_ising(dense),
        "packed": packed,
    }


def reference_probe(model, samples, p_start, p_end, rng, permutation):
    """The probe as a per-index ``delta_energy_single`` loop."""
    sigma = model.random_configuration(rng)
    idx = rng.integers(model.num_spins, size=samples)
    if permutation is not None:
        fwd, bwd = check_permutation(permutation, model.num_spins)
        sigma = sigma[bwd]
        idx = fwd[idx]
    g = model.local_fields(sigma)
    deltas = np.array(
        [model.delta_energy_single(sigma, int(i), g) for i in idx]
    )
    positive = np.abs(deltas[deltas != 0])
    mean_up = float(positive.mean()) if positive.size else 1.0
    t_start = mean_up / np.log(1.0 / p_start)
    t_end = mean_up / np.log(1.0 / p_end)
    return max(t_start, 1e-9), max(min(t_end, t_start), 1e-12)


class TestTemperatureProbe:
    """The array probe returns the per-index loop's floats and leaves the
    generator where the loop leaves it."""

    @pytest.mark.parametrize("samples", [1, 7, 200, 2000])
    @pytest.mark.parametrize("permuted", [False, True])
    @pytest.mark.parametrize("backend", ["dense", "sparse", "packed"])
    def test_matches_per_index_loop(self, backend, permuted, samples):
        model = probe_models()[backend]
        assert model.has_fields
        if backend != "packed":
            assert np.any(coupling_ops(model).diag())
        perm = None
        if permuted:
            perm = ensure_rng(5).permutation(model.num_spins)
            model = model.permuted(perm)
        got_rng, ref_rng = ensure_rng(samples), ensure_rng(samples)
        got = estimate_temperature_range(
            model, samples=samples, p_start=0.7, p_end=0.01,
            seed=got_rng, permutation=perm,
        )
        ref = reference_probe(model, samples, 0.7, 0.01, ref_rng, perm)
        assert np.array(got).tobytes() == np.array(ref).tobytes()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state


class TestMesa:
    def test_runs_epochs_and_improves(self, small_maxcut):
        model = small_maxcut.to_ising()
        result = MesaAnnealer(model, epochs=3, seed=1).run(900)
        assert result.iterations == 900
        assert result.best_energy <= result.energy + 1e-9
        assert result.metadata["epochs"] == 3

    def test_epoch_budget_split(self, small_model):
        result = MesaAnnealer(small_model, epochs=4, seed=1).run(1002)
        assert result.iterations == 1002

    @pytest.mark.parametrize("epochs", [2.7, True, 0, -1, "4"])
    def test_epochs_is_a_count(self, small_model, epochs):
        # 2.7 used to run 2 epochs and True 1.
        with pytest.raises(ValueError, match="^epochs must be"):
            MesaAnnealer(small_model, epochs=epochs)

    def test_validation(self, small_model):
        with pytest.raises(ValueError):
            MesaAnnealer(small_model, epochs=0)
        with pytest.raises(ValueError):
            MesaAnnealer(small_model, epoch_decay=1.5)
        with pytest.raises(ValueError):
            MesaAnnealer(small_model, epochs=5, seed=1).run(3)


class TestSolverApi:
    def test_solve_ising_methods(self, small_model):
        for method in ("insitu", "sa", "mesa"):
            result = solve_ising(small_model, method=method, iterations=300, seed=1)
            assert result.iterations == 300

    def test_unknown_method(self, small_model):
        with pytest.raises(ValueError, match="unknown method"):
            solve_ising(small_model, method="quantum")

    def test_solve_maxcut_reports_cuts(self, small_maxcut):
        result = solve_maxcut(
            small_maxcut, iterations=500, seed=1, reference_cut=50.0
        )
        assert result.best_cut >= result.cut - 1e9
        assert result.normalized_cut == pytest.approx(result.best_cut / 50.0)
        assert result.is_success(0.5) in (True, False)

    def test_solve_maxcut_without_reference(self, small_maxcut):
        result = solve_maxcut(small_maxcut, iterations=200, seed=1)
        assert result.normalized_cut is None
        assert result.is_success() is None

    def test_summaries_render(self, small_maxcut):
        result = solve_maxcut(small_maxcut, iterations=200, seed=1, reference_cut=50.0)
        assert "best cut" in result.summary()
        assert "iterations" in result.anneal.summary()
