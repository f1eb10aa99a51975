"""Compile/execute split: SolvePlan bit-identity, cache semantics, summary.

The contract under test: for exactly-representable (dyadic) couplings, a
solve routed through an explicitly compiled plan — including a plan
*reused* across runs — is bit-identical to the historical single-phase
``solve_ising`` call, across every solver family, coupling backend and
reorder mode.  On top of that: :class:`~repro.core.plan.PlanCache`
hit/miss/eviction semantics, fingerprint sensitivity (any coupling edit
or compile knob flips the key; the display name does not), the
golden-pinned ``SolvePlan.summary()`` provenance on the bundled G-set,
and the satellite boundary fix (``reorder="partition"`` without
``tile_size`` fails at the compile boundary, not deep in the layout
race).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PlanCache, compile_plan, solve_ising
from repro.core.plan import SOLVE_METHODS, _plan_fingerprint, resolve_layout
from repro.ising import IsingModel, MaxCutProblem, parse_gset
from repro.ising.packed import PackedIsingModel
from repro.ising.sparse import as_backend

GOLDEN_GSET = Path(__file__).parent / "data" / "golden_g60.gset"

relaxed = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def dyadic_model(seed: int, n: int = 24, backend: str = "dense") -> IsingModel:
    """A ±1-weighted Max-Cut Ising model (J = W/4, exactly representable)."""
    problem = MaxCutProblem.random(n, 3 * n, weighted=True, seed=seed)
    return as_backend(problem.to_ising(), backend)


def assert_results_equal(a, b) -> None:
    """Bit-exact equality of two single-run results."""
    assert a.energy == b.energy
    assert a.best_energy == b.best_energy
    assert a.accepted == b.accepted
    np.testing.assert_array_equal(a.sigma, b.sigma)
    np.testing.assert_array_equal(a.best_sigma, b.best_sigma)


def assert_batch_results_equal(a, b) -> None:
    """Bit-exact equality of two replica-batch results."""
    np.testing.assert_array_equal(a.best_energies, b.best_energies)
    np.testing.assert_array_equal(a.final_energies, b.final_energies)
    np.testing.assert_array_equal(a.best_sigmas, b.best_sigmas)
    np.testing.assert_array_equal(a.final_sigmas, b.final_sigmas)
    np.testing.assert_array_equal(a.accepted, b.accepted)


@pytest.fixture(scope="module")
def golden_problem():
    return parse_gset(GOLDEN_GSET, name="golden-g60")


# ----------------------------------------------------- bit-identity


class TestPlanBitIdentity:
    @relaxed
    @given(
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(sorted(SOLVE_METHODS)),
        backend=st.sampled_from(["dense", "sparse", "packed"]),
        reorder=st.sampled_from([None, "rcm", "auto"]),
    )
    def test_software_plan_reuse_matches_from_scratch(
        self, seed, method, backend, reorder
    ):
        model = dyadic_model(seed % 7, backend=backend)
        cold = solve_ising(
            model, method=method, iterations=150, seed=seed, reorder=reorder
        )
        plan = compile_plan(model, method=method, reorder=reorder)
        for _ in range(2):  # second pass exercises *warm* reuse
            warm = plan.execute(150, seed=seed)
            assert_results_equal(cold, warm)

    @relaxed
    @given(
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(["insitu", "sb"]),
        backend=st.sampled_from(["dense", "sparse", "packed"]),
        reorder=st.sampled_from([None, "rcm", "partition", "auto"]),
    )
    def test_tiled_plan_reuse_matches_from_scratch(
        self, seed, method, backend, reorder
    ):
        model = dyadic_model(seed % 5, backend=backend)
        cold = solve_ising(
            model, method=method, iterations=120, seed=seed,
            tile_size=8, reorder=reorder,
        )
        plan = compile_plan(model, method=method, tile_size=8, reorder=reorder)
        for _ in range(2):
            warm = plan.execute(120, seed=seed)
            assert_results_equal(cold, warm)

    @relaxed
    @given(
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(["insitu", "sa", "sb"]),
    )
    def test_replica_batch_plan_reuse_matches_from_scratch(self, seed, method):
        model = dyadic_model(3, backend="sparse")
        cold = solve_ising(
            model, method=method, iterations=100, seed=seed, replicas=4
        )
        plan = compile_plan(model, method=method, replicas=4)
        for _ in range(2):
            warm = plan.execute(100, seed=seed)
            assert_batch_results_equal(cold, warm)

    def test_tiled_sb_replicas_with_fields_fold_and_strip(self):
        from repro.utils.rng import ensure_rng

        rng = ensure_rng(17)
        n = 20
        upper = np.triu(rng.integers(-4, 5, size=(n, n)) / 4.0, k=1)
        h = rng.integers(-4, 5, size=n) / 4.0
        model = IsingModel(upper + upper.T, h, name="fielded")
        cold = solve_ising(
            model, method="sb", iterations=80, seed=11,
            tile_size=8, replicas=3,
        )
        plan = compile_plan(model, method="sb", tile_size=8, replicas=3)
        assert plan.folded
        warm = plan.execute(80, seed=11)
        assert_batch_results_equal(cold, warm)
        assert warm.best_sigmas.shape == (3, n)  # ancilla stripped

    def test_fielded_model_software_fold_free(self):
        # Software paths need no fold: the engines take fields directly.
        model = IsingModel.random(12, with_fields=True, seed=7)
        plan = compile_plan(model, method="sa")
        assert not plan.folded
        cold = solve_ising(model, method="sa", iterations=200, seed=5)
        assert_results_equal(cold, plan.execute(200, seed=5))

    def test_fresh_seeds_on_one_plan_match_cold_solves(self, golden_problem):
        # The --repeat contract: one compiled plan, a seed sweep over it.
        model = golden_problem.to_ising(backend="sparse")
        plan = compile_plan(model, method="insitu", tile_size=16, reorder="auto")
        for seed in (0, 1, 2):
            cold = solve_ising(
                model, method="insitu", iterations=300, seed=seed,
                tile_size=16, reorder="auto",
            )
            assert_results_equal(cold, plan.execute(300, seed=seed))


# ----------------------------------------------------- cache semantics


class TestPlanCache:
    def test_hit_miss_and_reuse(self):
        cache = PlanCache(maxsize=4)
        model = dyadic_model(1, backend="sparse")
        first = cache.get_or_compile(model, method="sa")
        again = cache.get_or_compile(model, method="sa")
        assert again is first
        assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 0)
        # A knob change is a different plan.
        other = cache.get_or_compile(model, method="insitu")
        assert other is not first
        assert cache.misses == 2
        # A byte-identical rebuild of the instance still hits.
        twin = dyadic_model(1, backend="sparse")
        assert cache.get_or_compile(twin, method="sa") is first
        assert cache.hits == 2

    def test_lru_eviction_order(self):
        cache = PlanCache(maxsize=2)
        models = [dyadic_model(s, n=12) for s in (1, 2, 3)]
        a = cache.get_or_compile(models[0], method="sa")
        cache.get_or_compile(models[1], method="sa")
        cache.get_or_compile(models[0], method="sa")  # refresh a
        cache.get_or_compile(models[2], method="sa")  # evicts models[1]
        assert cache.evictions == 1
        assert len(cache) == 2
        assert cache.get_or_compile(models[0], method="sa") is a  # still hot
        before = cache.misses
        cache.get_or_compile(models[1], method="sa")  # must recompile
        assert cache.misses == before + 1

    def test_maxsize_validated_and_stats_clear(self):
        with pytest.raises(ValueError, match="maxsize"):
            PlanCache(maxsize=0)
        cache = PlanCache()
        cache.get_or_compile(dyadic_model(4, n=12), method="sa")
        stats = cache.stats()
        assert stats["size"] == 1 and stats["misses"] == 1
        cache.clear()
        assert len(cache) == 0

    def test_cached_tiled_plan_skips_reprogramming_but_stays_exact(
        self, golden_problem
    ):
        cache = PlanCache()
        model = golden_problem.to_ising(backend="sparse")
        plan = cache.get_or_compile(model, method="insitu", tile_size=16)
        hit = cache.get_or_compile(model, method="insitu", tile_size=16)
        assert hit is plan and hit._crossbar is plan._crossbar
        cold = solve_ising(
            model, method="insitu", iterations=200, seed=9, tile_size=16
        )
        assert_results_equal(cold, hit.execute(200, seed=9))


# ----------------------------------------------------- fingerprints


class TestFingerprintSensitivity:
    def fingerprint(self, model, **knobs):
        defaults = dict(
            method="insitu", backend=None, tile_size=None, reorder=None,
            replicas=None, solver_kwargs={},
        )
        defaults.update(knobs)
        return _plan_fingerprint(model, **defaults)

    def test_model_content_drives_the_key(self):
        base = dyadic_model(1, backend="sparse")
        assert self.fingerprint(base) == self.fingerprint(
            dyadic_model(1, backend="sparse")
        )
        assert self.fingerprint(base) != self.fingerprint(
            dyadic_model(2, backend="sparse")
        )

    def test_name_is_excluded_offset_and_fields_are_not(self):
        J = np.zeros((3, 3))
        J[0, 1] = J[1, 0] = -0.25
        a = IsingModel(J, None, name="a")
        b = IsingModel(J, None, name="completely-different")
        assert a.content_fingerprint() == b.content_fingerprint()
        shifted = IsingModel(J, None, offset=1.5)
        fielded = IsingModel(J, np.array([0.5, 0.0, -0.5]))
        assert a.content_fingerprint() != shifted.content_fingerprint()
        assert a.content_fingerprint() != fielded.content_fingerprint()

    def test_backends_hash_distinctly(self):
        dense = dyadic_model(1, backend="dense")
        sparse = as_backend(dense, "sparse")
        packed = as_backend(dense, "packed")
        assert isinstance(packed, PackedIsingModel)
        prints = {
            m.content_fingerprint() for m in (dense, sparse, packed)
        }
        assert len(prints) == 3  # compiled artifacts differ per backend

    def test_every_compile_knob_flips_the_key(self):
        model = dyadic_model(1, backend="sparse")
        base = self.fingerprint(model)
        assert base != self.fingerprint(model, method="sa")
        assert base != self.fingerprint(model, backend="packed")
        assert base != self.fingerprint(model, tile_size=8)
        assert base != self.fingerprint(model, reorder="rcm")
        assert base != self.fingerprint(model, replicas=4)
        assert base != self.fingerprint(
            model, solver_kwargs={"flips_per_iteration": 2}
        )
        # reorder=None and reorder="none" are the same resolved layout.
        assert base == self.fingerprint(model, reorder="none")

    def test_packed_fingerprint_matches_contract(self):
        sparse = dyadic_model(1, backend="sparse")
        packed = as_backend(sparse, "packed")
        twin = as_backend(dyadic_model(1, backend="sparse"), "packed")
        assert packed.content_fingerprint() == twin.content_fingerprint()
        assert packed.content_fingerprint() != sparse.content_fingerprint()


# ----------------------------------------------------- summary / provenance


class TestSummary:
    def test_golden_summary_pinned(self, golden_problem):
        # Pins the auto-scorer outcome (RCM wins with 14 active tiles on
        # the 16-row grid — GOLDEN_AUTO_SCORER) plus the resolved
        # provenance fields the serving layer keys dashboards on.
        model = golden_problem.to_ising(backend="sparse")
        plan = compile_plan(
            model, method="insitu", tile_size=16, reorder="auto"
        )
        info = plan.summary()
        fingerprint = info.pop("fingerprint")
        assert len(fingerprint) == 12
        assert info == {
            "method": "insitu",
            "backend": "sparse",
            "num_spins": 60,
            "folded_fields": False,
            "reorder": "auto",
            "ordering": "rcm",
            "tile_size": 16,
            "replicas": None,
            "tiles": 14,
            "grid_tiles": 16,
            "bits": 4,
        }

    def test_summary_reports_resolved_backend(self, golden_problem):
        # solve_ising(backend=None) keeps the caller's representation;
        # solve_maxcut(backend="auto") resolves by heuristic — summary()
        # is where the resolution becomes visible.
        dense = golden_problem.to_ising(backend="dense")
        assert compile_plan(dense, method="sa").summary()["backend"] == "dense"
        promoted = compile_plan(dense, method="sa", backend="packed")
        assert promoted.summary()["backend"] == "packed"
        assert promoted.requested_backend == "packed"

    def test_software_summary_has_no_tile_fields(self):
        info = compile_plan(dyadic_model(1), method="sa").summary()
        assert "tiles" not in info
        assert info["ordering"] == "identity"
        assert info["tile_size"] is None


# ----------------------------------------------------- boundary validation


class TestBoundaries:
    def test_partition_without_tile_size_fails_at_the_boundary(self):
        model = dyadic_model(1)
        with pytest.raises(ValueError) as exc:
            solve_ising(model, method="sa", iterations=10, reorder="partition")
        # The satellite fix: the error names *both* knobs and the remedy,
        # instead of failing deep inside reorder_permutation.
        assert "tile_size" in str(exc.value)
        assert "partition" in str(exc.value)
        with pytest.raises(ValueError, match="tile_size"):
            compile_plan(model, method="sa", reorder="partition")

    def test_execute_validates_iterations(self):
        plan = compile_plan(dyadic_model(1), method="sa")
        with pytest.raises(ValueError, match="iterations"):
            plan.execute(0)
        with pytest.raises(ValueError, match="iterations"):
            plan.execute(True)

    def test_compile_rejects_legacy_misuse_identically(self):
        model = dyadic_model(1)
        with pytest.raises(ValueError, match="method"):
            compile_plan(model, method="quantum")
        with pytest.raises(ValueError, match="replicas"):
            compile_plan(model, method="mesa", replicas=4)
        with pytest.raises(ValueError, match="tile_size"):
            compile_plan(model, method="mesa", tile_size=8)
        with pytest.raises(ValueError, match="not both"):
            compile_plan(
                model, method="insitu", tile_size=8, reorder="rcm",
                permutation=np.arange(model.num_spins),
            )

    @pytest.mark.parametrize("knob", ["replicas", "tile_size"])
    def test_compile_refuses_counts_numpy_cannot_index(self, knob):
        """A count past ``intp`` gets one ``ValueError`` naming the knob, at
        compile time, not an ``OverflowError`` from inside numpy."""
        model = dyadic_model(1, backend="sparse")
        with pytest.raises(ValueError, match=f"{knob} must be <= "):
            compile_plan(model, method="insitu", **{knob: 10**30}).execute(10)

    def test_machine_program_kwarg_is_exclusive(self):
        from repro.arch.cim_annealer import InSituCimAnnealer, compile_cim_program

        model = dyadic_model(1, backend="sparse")
        program = compile_cim_program(model, tile_size=8)
        with pytest.raises(ValueError, match="program="):
            InSituCimAnnealer(model, program=program)
        with pytest.raises(ValueError, match="program="):
            InSituCimAnnealer(program=program, tile_size=8)
        with pytest.raises(ValueError, match="model is required"):
            InSituCimAnnealer()

    def test_resolve_layout_none_modes(self):
        model = dyadic_model(1, backend="sparse")
        assert resolve_layout(model, None) is None
        assert resolve_layout(model, "none") is None
        perm = resolve_layout(model, "rcm")
        assert perm is not None and perm.strategy == "rcm"


# ----------------------------------------------------- repeat-run state


class TestRepeatRunState:
    def test_machine_ledgers_identical_across_warm_executes(self, golden_problem):
        # The driver-toggle memory must reset per run: the second execute
        # on one programmed plan books exactly the costs of a cold run.
        from repro.arch.cim_annealer import InSituCimAnnealer, compile_cim_program

        model = golden_problem.to_ising(backend="sparse")
        program = compile_cim_program(model, tile_size=16)
        runs = [
            InSituCimAnnealer(program=program, seed=4).run(150)
            for _ in range(2)
        ]
        cold = InSituCimAnnealer(model, tile_size=16, seed=4).run(150)
        for warm in runs:
            assert warm.anneal.best_energy == cold.anneal.best_energy
            np.testing.assert_array_equal(
                warm.anneal.best_sigma, cold.anneal.best_sigma
            )
            assert warm.ledger.total_energy == cold.ledger.total_energy
            assert warm.ledger.total_time == cold.ledger.total_time
            assert (
                warm.ledger.entries["drivers"].energy
                == cold.ledger.entries["drivers"].energy
            )
