"""Golden regression tests: pinned fixed-seed end-to-end solver results.

These pin the exact best-energy / best-cut outputs of all three solver
families on a small bundled G-set instance (``tests/data/golden_g60.gset``,
60 nodes / 180 ±1-weighted edges) and on a fixed dyadic-coupling Ising
model.  ±1 weights make ``J = W/4`` exactly representable, so every value
below is bit-exact and backend-independent — a future refactor that
changes *any* of them has silently changed solver behaviour (RNG
consumption order, acceptance rule, schedule, field caching, …) and must
update these goldens deliberately.  The bit-packed popcount backend is
parametrized alongside dense/sparse wherever the instance is
packed-eligible: its trajectories must pin the identical values.

Pinned with numpy 2.x / seed repo state; values are arithmetic-exact, not
platform-float-luck, because all sums involved are dyadic rationals.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import solve_ising, solve_maxcut
from repro.ising import IsingModel, parse_gset
from repro.utils.rng import ensure_rng

GOLDEN_GSET = Path(__file__).parent / "data" / "golden_g60.gset"

#: method -> (best_cut, best_energy, accepted) at iterations=1600, seed=2024.
GOLDEN_MAXCUT = {
    "insitu": (46.0, -48.0, 282),
    "sa": (44.0, -46.0, 822),
    "mesa": (48.0, -50.0, 603),
}

#: method -> (best_energy, accepted) at iterations=1200, seed=7.
GOLDEN_ISING = {
    "insitu": (-106.375, 177),
    "sa": (-101.125, 633),
    "mesa": (-94.875, 484),
}


@pytest.fixture(scope="module")
def golden_problem():
    problem = parse_gset(GOLDEN_GSET, name="golden-g60")
    assert problem.num_nodes == 60
    assert problem.num_edges == 180
    assert problem.total_weight == -4.0
    return problem


def golden_ising_model() -> IsingModel:
    """The fixed 40-spin dyadic-coupling model with fields."""
    rng = ensure_rng(99)
    n = 40
    values = rng.integers(-8, 9, size=(n, n)) / 8.0
    upper = np.triu(values * (rng.random((n, n)) < 0.25), k=1)
    h = rng.integers(-8, 9, size=n) / 8.0
    return IsingModel(upper + upper.T, h, name="golden-ising-40")


class TestMaxCutGoldens:
    @pytest.mark.parametrize("method", sorted(GOLDEN_MAXCUT))
    @pytest.mark.parametrize("backend", ["dense", "sparse", "packed"])
    def test_pinned_best_cut(self, golden_problem, method, backend):
        cut, energy, accepted = GOLDEN_MAXCUT[method]
        result = solve_maxcut(
            golden_problem,
            method=method,
            iterations=1600,
            seed=2024,
            backend=backend,
        )
        assert result.best_cut == cut
        assert result.anneal.best_energy == energy
        assert result.anneal.accepted == accepted
        # the reported configuration must reproduce the reported cut
        assert golden_problem.cut_value(result.anneal.best_sigma) == cut


class TestTiledMachineGoldens:
    """Pinned tiled-crossbar machine run on the bundled golden instance.

    The hardware-in-the-loop path (``tile_size=`` routes through
    :class:`~repro.arch.cim_annealer.InSituCimAnnealer`) with ±1 weights:
    ``J = W/4`` is dyadic and 4-bit quantization stores it exactly, so the
    run is bit-exact, tile-size-invariant, and identical to the monolithic
    machine.
    """

    GOLDEN_TILED = (46.0, -48.0, 173)  # (best_cut, best_energy, accepted)

    @pytest.mark.parametrize("tile_size", [16, 25])
    def test_pinned_tiled_machine_run(self, golden_problem, tile_size):
        cut, energy, accepted = self.GOLDEN_TILED
        result = solve_maxcut(
            golden_problem,
            iterations=1600,
            seed=2024,
            backend="sparse",
            tile_size=tile_size,
        )
        assert result.best_cut == cut
        assert result.anneal.best_energy == energy
        assert result.anneal.accepted == accepted
        assert golden_problem.cut_value(result.anneal.best_sigma) == cut

    def test_tiled_equals_monolithic_machine(self, golden_problem):
        from repro.arch import InSituCimAnnealer

        mono = InSituCimAnnealer(
            golden_problem.to_ising(backend="dense"), seed=2024
        ).run(1600)
        cut, energy, accepted = self.GOLDEN_TILED
        assert mono.anneal.best_energy == energy
        assert mono.anneal.accepted == accepted

    #: tile_size -> (winning strategy, active tiles) of the ``auto``
    #: scorer on the golden instance.  ``auto`` now races RCM against the
    #: multilevel min-cut partition by exact active-tile count; both
    #: passes are deterministic, so the winner — and its exact tile count
    #: — is a pinnable value.  At tile 16 RCM's band (14 tiles) beats the
    #: partition layout (16) and the identity (16); at tile 25 nothing
    #: strictly beats the identity's 9 tiles and auto keeps it.
    GOLDEN_AUTO_SCORER = {16: ("rcm", 14), 25: (None, 9)}

    @pytest.mark.parametrize("tile_size", sorted(GOLDEN_AUTO_SCORER))
    def test_pinned_auto_scorer_is_deterministic(self, golden_problem, tile_size):
        from repro.core import count_active_tiles, reorder_permutation

        model = golden_problem.to_ising(backend="sparse")
        strategy, tiles = self.GOLDEN_AUTO_SCORER[tile_size]
        first = reorder_permutation(model, "auto", tile_size=tile_size)
        second = reorder_permutation(model, "auto", tile_size=tile_size)
        if strategy is None:
            assert first is None and second is None
            assert count_active_tiles(model, tile_size) == tiles
        else:
            assert first.strategy == second.strategy == strategy
            assert np.array_equal(first.forward, second.forward)
            assert first.estimated_active_tiles(tile_size) == tiles

    #: The reordered tiled machine pins the *same* values as GOLDEN_TILED:
    #: reordering is an internal layout change and ±1 weights store
    #: exactly, so the quantized image's representability story — and the
    #: whole fixed-seed trajectory — is unchanged.  Pinned separately so a
    #: regression that splits the two paths is caught by name.
    GOLDEN_TILED_REORDERED = (46.0, -48.0, 173)

    @pytest.mark.parametrize("reorder", ["rcm", "partition", "auto"])
    def test_pinned_reordered_machine_run(self, golden_problem, reorder):
        cut, energy, accepted = self.GOLDEN_TILED_REORDERED
        assert self.GOLDEN_TILED_REORDERED == self.GOLDEN_TILED
        result = solve_maxcut(
            golden_problem,
            iterations=1600,
            seed=2024,
            backend="sparse",
            tile_size=16,
            reorder=reorder,
        )
        assert result.best_cut == cut
        assert result.anneal.best_energy == energy
        assert result.anneal.accepted == accepted
        assert golden_problem.cut_value(result.anneal.best_sigma) == cut

    #: backend -> (best_energy, accepted, Ledger energy, Ledger time,
    #: ADC conversions) with threshold spread and read noise, at tile 16,
    #: t=2, iterations=150, seed=2024.  Programming draws each tile's
    #: frozen variation in row-major tile order and every read draws its
    #: noise in (column block, row block) order from the one seeded
    #: stream, so a change to either order moves these values.  The books
    #: are sums of fixed per-event costs, pinned to 1e-12.
    GOLDEN_NOISY_TILED = {
        "behavioral": (-35.0, 31, 5.6717599999999924e-09, 7.768005836800025e-06, 19200),
        "device": (-35.0, 23, 5.670169999999993e-09, 7.768005836800025e-06, 19200),
    }

    @pytest.mark.parametrize("crossbar", sorted(GOLDEN_NOISY_TILED))
    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    def test_pinned_noisy_tiled_run(self, golden_problem, crossbar, backend):
        from repro.arch import InSituCimAnnealer
        from repro.devices.variability import VariationModel

        energy, accepted, ledger_energy, ledger_time, conversions = (
            self.GOLDEN_NOISY_TILED[crossbar]
        )
        result = InSituCimAnnealer(
            golden_problem.to_ising(backend=backend), tile_size=16,
            flips_per_iteration=2, seed=2024, backend=crossbar,
            variation=VariationModel(vth_sigma=0.02, read_noise_sigma=0.01),
        ).run(150)
        assert result.anneal.best_energy == energy
        assert result.anneal.accepted == accepted
        assert result.ledger.total_energy == pytest.approx(ledger_energy, rel=1e-12)
        assert result.ledger.total_time == pytest.approx(ledger_time, rel=1e-12)
        assert result.ledger.entries["adc"].count == conversions


class TestReplicaBatchGoldens:
    """Pinned replica-batch runs on the bundled golden instance.

    The rank-t batch engines at R = 8 on both coupling backends: ±1
    weights make every sum dyadic, so per-replica best cuts and acceptance
    counts are bit-exact and backend-independent.  A refactor that touches
    the batch RNG stream, the rank-t proposal tensor, the batch cross-term
    or the acceptance rule changes these values and must update them
    deliberately.
    """

    #: (method, flips) -> (best_cut, per-replica best cuts, accepted).
    GOLDEN_BATCH = {
        ("insitu", 1): (
            49.0,
            [44.0, 43.0, 48.0, 48.0, 47.0, 44.0, 46.0, 49.0],
            [351, 295, 319, 312, 351, 276, 296, 291],
        ),
        ("insitu", 4): (
            44.0,
            [42.0, 41.0, 37.0, 44.0, 40.0, 40.0, 41.0, 37.0],
            [118, 131, 147, 144, 151, 157, 150, 132],
        ),
        ("sa", 1): (
            48.0,
            [46.0, 44.0, 41.0, 42.0, 41.0, 47.0, 39.0, 48.0],
            [875, 913, 900, 922, 928, 841, 950, 885],
        ),
        ("sa", 4): (
            40.0,
            [39.0, 36.0, 34.0, 40.0, 39.0, 37.0, 32.0, 39.0],
            [594, 567, 571, 554, 560, 525, 554, 595],
        ),
    }

    @pytest.mark.parametrize("method,flips", sorted(GOLDEN_BATCH))
    @pytest.mark.parametrize("backend", ["dense", "sparse", "packed"])
    def test_pinned_replica_batch(self, golden_problem, method, flips, backend):
        best_cut, cuts, accepted = self.GOLDEN_BATCH[(method, flips)]
        result = solve_maxcut(
            golden_problem,
            method=method,
            iterations=1600,
            seed=2024,
            backend=backend,
            replicas=8,
            flips_per_iteration=flips,
        )
        assert result.best_cut == best_cut
        assert result.best_cuts.tolist() == cuts
        assert result.anneal.accepted.tolist() == accepted
        # the reported best configuration reproduces the reported cut
        assert golden_problem.cut_value(result.anneal.best_sigma) == best_cut


class TestSbGoldens:
    """Pinned simulated-bifurcation runs on the bundled golden instance.

    The SB engines' only non-elementwise operation is the coupling
    matvec, whose inputs under dSB are ±1 — so with the instance's dyadic
    ``J = W/4`` every sum is exact and the pinned values are bit-exact
    and backend-independent, across the dense, sparse *and* behavioral-
    tiled matvec servers.  ``accepted`` counts wall-contact steps.
    At 400 iterations SB already reaches cut 49 — past every flip
    engine's 1600-iteration golden above — which is the point of the
    family.
    """

    #: (best_cut, best_energy, accepted) at iterations=400, seed=2024.
    GOLDEN_SB = {"discrete": (49.0, -51.0, 293), "ballistic": (49.0, -51.0, 89)}

    #: dSB batch at R=8: (best_cut, per-replica best cuts, wall-contact steps).
    GOLDEN_SB_BATCH = (
        49.0,
        [47.0, 49.0, 47.0, 48.0, 49.0, 44.0, 49.0, 48.0],
        [282, 278, 289, 280, 263, 289, 270, 265],
    )

    @pytest.mark.parametrize("variant", sorted(GOLDEN_SB))
    @pytest.mark.parametrize("backend", ["dense", "sparse", "packed"])
    def test_pinned_sb_run(self, golden_problem, variant, backend):
        cut, energy, accepted = self.GOLDEN_SB[variant]
        result = solve_maxcut(
            golden_problem,
            method="sb",
            iterations=400,
            seed=2024,
            backend=backend,
            variant=variant,
        )
        assert result.best_cut == cut
        assert result.anneal.best_energy == energy
        assert result.anneal.accepted == accepted
        assert golden_problem.cut_value(result.anneal.best_sigma) == cut

    @pytest.mark.parametrize("backend", ["dense", "sparse", "packed"])
    def test_pinned_sb_replica_batch(self, golden_problem, backend):
        best_cut, cuts, accepted = self.GOLDEN_SB_BATCH
        result = solve_maxcut(
            golden_problem,
            method="sb",
            iterations=400,
            seed=2024,
            backend=backend,
            replicas=8,
        )
        assert result.best_cut == best_cut
        assert result.best_cuts.tolist() == cuts
        assert result.anneal.accepted.tolist() == accepted
        assert golden_problem.cut_value(result.anneal.best_sigma) == best_cut

    @pytest.mark.parametrize("tile_size", [16, 25])
    def test_pinned_tiled_sb_run(self, golden_problem, tile_size):
        """±1 weights store exactly, so the tiled matvec server returns
        the *same* pinned values as the software backends above."""
        cut, energy, accepted = self.GOLDEN_SB["discrete"]
        result = solve_maxcut(
            golden_problem,
            method="sb",
            iterations=400,
            seed=2024,
            backend="sparse",
            tile_size=tile_size,
        )
        assert result.best_cut == cut
        assert result.anneal.best_energy == energy
        assert result.anneal.accepted == accepted


class TestIsingGoldens:
    @pytest.mark.parametrize("method", sorted(GOLDEN_ISING))
    def test_pinned_best_energy(self, method):
        energy, accepted = GOLDEN_ISING[method]
        model = golden_ising_model()
        result = solve_ising(model, method=method, iterations=1200, seed=7)
        assert result.best_energy == energy
        assert result.accepted == accepted
        assert model.energy(result.best_sigma) == energy


def byte_pin_models(backend: str):
    """A fielded 21-spin member and a field-free 13-spin member.

    Non-dyadic couplings and fields, so sums round and their order
    matters; the fielded member also has a stored diagonal, a zero-field
    spin (5) and an isolated spin (7).
    """
    from repro.ising import SparseIsingModel

    rng = ensure_rng(31)

    def couplings(n):
        upper = np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.3), k=1)
        return upper + upper.T

    J = couplings(21)
    J[7, :] = J[:, 7] = 0.0
    J[3, 3], J[10, 10] = 0.3, -0.7
    h = rng.normal(size=21) / 3.0
    h[5] = 0.0
    models = [IsingModel(J, h, offset=0.3), IsingModel(couplings(13), offset=-1.1)]
    if backend == "sparse":
        models = [SparseIsingModel.from_ising(m) for m in models]
    return models


def result_bytes_digest(results) -> str:
    """sha256 of the bytes of all five result arrays of every result.

    Bytes, not ``np.array_equal``: a signed zero or a NaN payload that
    moves changes the digest.
    """
    import hashlib

    digest = hashlib.sha256()
    for r in results:
        for a in (r.best_energies, r.best_sigmas, r.final_energies,
                  r.final_sigmas, r.accepted):
            digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()[:16]


class TestReplicaByteGoldens:
    """Byte pins of replica runs on non-dyadic models, per backend.

    ``TestReplicaBatchGoldens`` pins ±1-weight runs, whose sums are
    exact in any order.  These pin the bytes of every returned array
    where rounding and the order of operations show: solo runs of the
    fielded member, and the fielded member stacked with the field-free
    one (the union's field-free columns).  1100 iterations cross a
    :data:`~repro.core.batch.CHUNK_ITERATIONS` boundary.
    """

    #: (backend, method, flips, mode) -> digest prefix.
    GOLDEN_BYTES = {
        ("dense", "insitu", 1, "solo"): "236aa1ea56dbe8e8",
        ("dense", "insitu", 1, "stacked"): "946b2286d8362796",
        ("dense", "insitu", 4, "solo"): "85a12794ae11e0e7",
        ("dense", "insitu", 4, "stacked"): "5012a59ce8046b12",
        ("dense", "sa", 1, "solo"): "28057ceeacfdfaf2",
        ("dense", "sa", 1, "stacked"): "185aee4740072a28",
        ("dense", "sa", 4, "solo"): "927d5a5da35a9ced",
        ("dense", "sa", 4, "stacked"): "65a113b6241b61f2",
        ("sparse", "insitu", 1, "solo"): "236aa1ea56dbe8e8",
        ("sparse", "insitu", 1, "stacked"): "946b2286d8362796",
        ("sparse", "insitu", 4, "solo"): "4389a853b5540231",
        ("sparse", "insitu", 4, "stacked"): "5012a59ce8046b12",
        ("sparse", "sa", 1, "solo"): "28057ceeacfdfaf2",
        ("sparse", "sa", 1, "stacked"): "185aee4740072a28",
        ("sparse", "sa", 4, "solo"): "bddfaa06e923d328",
        ("sparse", "sa", 4, "stacked"): "65a113b6241b61f2",
    }

    @pytest.mark.parametrize("backend,method,flips,mode", sorted(GOLDEN_BYTES))
    def test_pinned_result_bytes(self, backend, method, flips, mode):
        from repro.core.blockstack import compile_lane, run_stacked

        models = byte_pin_models(backend)
        if mode == "solo":
            models = models[:1]
        lanes = [
            compile_lane(m, method, iterations=1100, replicas=3,
                         flips_per_iteration=flips, seed=40 + j)
            for j, m in enumerate(models)
        ]
        digest = result_bytes_digest(run_stacked(lanes))
        assert digest == self.GOLDEN_BYTES[(backend, method, flips, mode)]
