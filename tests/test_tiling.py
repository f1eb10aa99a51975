"""Sparse-aware tiled crossbar: registry, equivalence and bookkeeping tests.

The tiled machine must be a drop-in for the monolithic crossbar: identical
stored image (shared whole-matrix LSB), bit-identical behavioral increments
(dyadic couplings make every partial sum exact), a tile registry that holds
*only* nonzero blocks, and cost bookkeeping that counts logical cells — not
pad cells, not empty blocks.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import (
    CimRunResult,
    CrossbarMapping,
    InSituCimAnnealer,
    Ledger,
    TiledCrossbar,
)
from repro.arch.cim_annealer import compile_cim_program
from repro.circuits import ActivationStats, DgFefetCrossbar
from repro.core import graph_bandwidth, solve_ising, solve_maxcut
from repro.core.annealer import InSituAnnealer
from repro.core.factors import FractionalFactor, VbgEncoder
from repro.devices.constants import VBG_MAX
from repro.devices.variability import VariationModel
from repro.ising import (
    IsingModel,
    MaxCutProblem,
    SparseIsingModel,
    scattered_circulant_maxcut,
)
from repro.utils.rng import ensure_rng

relaxed = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def block_sparse_model(seed: int, n: int = 48, tile: int = 16) -> SparseIsingModel:
    """A model whose nonzeros live in a few chosen blocks, quantizing exactly.

    Roughly half of the block grid stays structurally empty, so tiled
    evaluations exercise both the registry hit and miss paths.  Couplings
    are multiples of 1/16 with the peak pinned to 15/16, so the 4-bit LSB
    is exactly 1/16 and the stored image — hence every behavioral partial
    sum — is exactly representable: tiled-vs-monolithic assertions are
    bit-for-bit, matching the dyadic-exactness contract of the solver
    backends.
    """
    rng = ensure_rng(seed)
    grid = -(-n // tile)
    rows, cols, vals = [], [], []
    seen = set()
    for bi in range(grid):
        for bj in range(bi, grid):
            if rng.random() < 0.5:
                continue  # structurally empty block pair
            for _ in range(int(rng.integers(1, 6))):
                r = int(rng.integers(bi * tile, min((bi + 1) * tile, n)))
                c = int(rng.integers(bj * tile, min((bj + 1) * tile, n)))
                if r == c:
                    continue
                key = (min(r, c), max(r, c))
                if key in seen:
                    continue
                seen.add(key)
                rows.append(key[0])
                cols.append(key[1])
                vals.append(int(rng.integers(-15, 16)) / 16.0 or 0.0625)
    if not rows:  # degenerate draw: pin one coupling so the model is nonempty
        rows, cols, vals = [0], [1], [0.25]
    vals[0] = 15.0 / 16.0  # pin the peak so the quantizer LSB is exactly 1/16
    return SparseIsingModel.from_edges(n, rows, cols, vals, name=f"blocky-{seed}")


def occupied_blocks(model: SparseIsingModel, tile: int) -> set[tuple[int, int]]:
    """The ``tile``-square blocks holding a stored entry, from the CSR."""
    indptr, indices, _ = model.csr_arrays()
    rows = np.repeat(np.arange(model.num_spins), np.diff(indptr))
    return set(zip((rows // tile).tolist(), (indices // tile).tolist()))


class TestTileRegistry:
    def test_empty_blocks_hold_no_tile(self):
        model = block_sparse_model(7)
        tiled = TiledCrossbar(model, tile_size=16, seed=0)
        occupied = occupied_blocks(model, 16)
        hat = tiled.matrix_hat
        # registry is exactly the nonzero block set, and each tile holds
        # its block of the stored image
        for bi in range(tiled.grid):
            for bj in range(tiled.grid):
                tile = tiled.tile_at(bi, bj)
                assert (tile is not None) == ((bi, bj) in occupied)
                if tile is not None:
                    block = hat[bi * 16:(bi + 1) * 16, bj * 16:(bj + 1) * 16]
                    assert np.array_equal(tile.matrix_hat, block)
        assert tiled.num_tiles == len(occupied) < tiled.grid_tiles
        assert 0.0 < tiled.occupancy < 1.0

    def test_dense_input_also_skips_empty_blocks(self):
        model = block_sparse_model(11)
        from_sparse = TiledCrossbar(model, tile_size=16, seed=0)
        from_dense = TiledCrossbar(model.toarray(), tile_size=16, seed=0)  # repro-lint: disable=RPL001
        assert from_sparse.num_tiles == from_dense.num_tiles
        assert np.array_equal(from_sparse.matrix_hat, from_dense.matrix_hat)

    def test_all_zero_matrix(self):
        tiled = TiledCrossbar(np.zeros((8, 8)), tile_size=4, seed=0)
        assert tiled.num_tiles == 0
        assert tiled.factor(0.7) == pytest.approx(1.0)
        sigma = np.ones(8)
        c = np.zeros(8)
        c[3] = -1.0
        value, stats = tiled.compute_increment(sigma, c, 0.5)
        assert value == 0.0
        assert stats.adc_conversions == 0
        summary = tiled.programming_summary()
        assert summary["cells"] == 0.0
        assert summary["tiles"] == 0.0


class TestIdealGrid:
    """An ideal behavioural grid stores one image and draws nothing."""

    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    def test_compile_leaves_the_seed_stream_untouched(self, backend):
        model = MaxCutProblem.random(30, 80, seed=8).to_ising(backend=backend)
        rng = ensure_rng(3)
        before = rng.bit_generator.state
        compile_cim_program(model, tile_size=8, seed=rng)
        assert rng.bit_generator.state == before

    def test_only_the_reference_crossbar_is_built(self, monkeypatch):
        """No tile is programmed until ``tile_at`` asks for one."""
        shapes = []
        init = DgFefetCrossbar.__init__

        def spy(self, matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            init(self, matrix, *args, **kwargs)

        monkeypatch.setattr(DgFefetCrossbar, "__init__", spy)
        model = block_sparse_model(7)
        tiled = TiledCrossbar(model, tile_size=16, seed=0)
        tiled.stored_model()
        tiled.programming_summary()
        tiled.batch_matvec(np.ones((2, model.num_spins)))
        c = np.zeros(model.num_spins)
        c[0] = -1.0
        tiled.compute_increment(np.ones(model.num_spins) + c, c, 0.5)
        assert shapes in ([], [(2, 2)])
        key = min(occupied_blocks(model, 16))
        tile = tiled.tile_at(*key)
        assert shapes[-1] == (16, 16)
        assert tiled.tile_at(*key) is tile


class TestIncrementEquivalence:
    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_tiled_matches_monolithic_bit_for_bit(self, seed):
        """Dense-input and sparse-input tiles equal the monolithic array.

        Couplings are dyadic, so the behavioral VMV partial sums are exact
        and the equality is ``==``, not approx — including proposals whose
        flipped spins land in columns whose blocks are partly or fully
        empty (the registry-miss path).
        """
        model = block_sparse_model(seed)
        n = model.num_spins
        J = model.toarray()  # repro-lint: disable=RPL001 (tiny flip oracle)
        mono = DgFefetCrossbar(J, seed=0)
        tiled_dense = TiledCrossbar(J, tile_size=16, seed=0)
        tiled_sparse = TiledCrossbar(model, tile_size=16, seed=0)
        assert np.array_equal(tiled_dense.matrix_hat, mono.matrix_hat)
        assert np.array_equal(tiled_sparse.matrix_hat, mono.matrix_hat)

        rng = ensure_rng(seed + 1)
        sigma = rng.choice([-1.0, 1.0], n)
        for trial in range(8):
            flips = rng.choice(n, size=1 + trial % 3, replace=False)
            c = np.zeros(n)
            c[flips] = -sigma[flips]
            r = sigma.copy()
            r[flips] = 0.0
            v_bg = float(rng.uniform(0.05, 0.7))
            vm, _ = mono.compute_increment(r, c, v_bg)
            vd, _ = tiled_dense.compute_increment(r, c, v_bg)
            vs, _ = tiled_sparse.compute_increment(r, c, v_bg)
            assert vd == vm
            assert vs == vm

    def test_general_float_couplings_agree_to_tolerance(self):
        """Non-representable stored images: same maths, different sum order.

        When the quantizer LSB is not a dyadic rational the per-tile
        partial sums round differently from the monolithic column sums, so
        agreement is to float tolerance — the same contract the dense and
        sparse solver backends document for arbitrary float couplings.
        """
        rng = ensure_rng(42)
        problem = MaxCutProblem.random(40, 200, seed=3)
        J = problem.to_ising().J * 1.7  # peak 0.425: non-dyadic LSB
        mono = DgFefetCrossbar(J, seed=0)
        tiled = TiledCrossbar(J, tile_size=16, seed=0)
        sigma = rng.choice([-1.0, 1.0], 40)
        for _ in range(6):
            flips = rng.choice(40, size=2, replace=False)
            c = np.zeros(40)
            c[flips] = -sigma[flips]
            r = sigma.copy()
            r[flips] = 0.0
            vm, _ = mono.compute_increment(r, c, 0.5)
            vt, _ = tiled.compute_increment(r, c, 0.5)
            assert vt == pytest.approx(vm, rel=1e-12, abs=1e-12)

    def test_flip_into_fully_empty_column_block(self):
        """A flip whose column block holds no tile senses exactly zero."""
        n, tile = 32, 8
        J = np.zeros((n, n))
        J[0, 1] = J[1, 0] = 0.25  # only block (0, 0) is occupied
        tiled = TiledCrossbar(J, tile_size=tile, seed=0)
        assert tiled.num_tiles == 1
        sigma = np.ones(n)
        c = np.zeros(n)
        c[20] = -1.0  # block 2: structurally empty
        r = sigma.copy()
        r[20] = 0.0
        value, stats = tiled.compute_increment(r, c, 0.6)
        mono_value, _ = DgFefetCrossbar(J, seed=0).compute_increment(r, c, 0.6)
        assert value == mono_value == 0.0
        assert stats.adc_conversions == 0  # no tile was activated

    @pytest.mark.parametrize("vector", ["r", "c"])
    def test_validation_checks_whole_vectors(self, vector):
        """A non-spin entry outside the active tiles is still rejected.

        Only block (0, 0) holds a tile; the bad entry sits in a block no
        tile covers (row 20, or an extra driven column 30), with the
        monolithic array's message.
        """
        n = 32
        J = np.zeros((n, n))
        J[0, 1] = J[1, 0] = 0.25
        r = np.ones(n)
        r[1] = 0.0
        c = np.zeros(n)
        c[1] = -1.0
        if vector == "r":
            r[20] = 0.5
        else:
            c[30] = 0.5
        message = re.escape("inputs must take values in {-1, 0, +1}")
        with pytest.raises(ValueError, match=message):
            DgFefetCrossbar(J, seed=0).compute_increment(r, c, 0.6)
        with pytest.raises(ValueError, match=message):
            TiledCrossbar(J, tile_size=8, seed=0).compute_increment(r, c, 0.6)

    def test_validation_checks_shape_and_rail(self):
        tiled = TiledCrossbar(np.eye(6)[::-1] * 0.5, tile_size=4, seed=0)
        ok = np.ones(6)
        with pytest.raises(ValueError, match=re.escape("shape (6,)")):
            tiled.compute_increment(ok[:-1], ok, 0.6)
        with pytest.raises(ValueError, match="v_bg"):
            tiled.compute_increment(ok, ok, 0.9)


class TestSharedLsb:
    def test_tiles_quantize_on_the_whole_matrix_scale(self):
        """A block whose local max is below the global max still matches.

        Per-tile LSBs would requantize such a block on a finer grid and the
        assembled image would differ from the monolithic crossbar; the
        shared LSB keeps them identical.
        """
        n = 32
        J = np.zeros((n, n))
        J[0, 1] = J[1, 0] = 1.0     # block (0, 0): global peak
        J[0, 20] = J[20, 0] = 0.3   # block (0, 2)/(2, 0): smaller local max
        mono = DgFefetCrossbar(J, seed=0)
        tiled = TiledCrossbar(J, tile_size=8, seed=0)
        assert tiled.lsb == mono.quantized.lsb
        assert np.array_equal(tiled.matrix_hat, mono.matrix_hat)
        sparse = TiledCrossbar(SparseIsingModel.from_dense(J), tile_size=8, seed=0)
        assert sparse.lsb == mono.quantized.lsb
        assert np.array_equal(sparse.matrix_hat, mono.matrix_hat)

    def test_max_abs_entry_matches_dense(self):
        model = block_sparse_model(3)
        # repro-lint: disable=RPL001 (dense oracle for the exact max)
        assert model.max_abs_entry() == float(np.max(np.abs(model.toarray())))


class TestProgrammingSummary:
    def test_counts_logical_cells_not_pads(self):
        """Edge tiles are padded to tile_size; pads must not be counted."""
        n, tile, bits = 10, 8, 4
        model = MaxCutProblem.random(n, 30, seed=4).to_ising()
        tiled = TiledCrossbar(model.J, tile_size=tile, bits=bits, seed=0)
        expected_cells = 0.0
        for bi in range(tiled.grid):
            for bj in range(tiled.grid):
                if tiled.tile_at(bi, bj) is None:
                    continue
                r = min((bi + 1) * tile, n) - bi * tile
                c = min((bj + 1) * tile, n) - bj * tile
                expected_cells += 2 * bits * r * c
        summary = tiled.programming_summary()
        assert summary["cells"] == expected_cells
        assert summary["write_pulses"] == expected_cells
        # a fully occupied grid covers exactly the monolithic cell count
        if tiled.num_tiles == tiled.grid_tiles:
            mono = DgFefetCrossbar(model.J, bits=bits, seed=0)
            assert summary["cells"] == mono.programming_summary()["cells"]
            assert (
                summary["programmed_ones"]
                == mono.programming_summary()["programmed_ones"]
            )

    def test_empty_blocks_add_nothing(self):
        model = block_sparse_model(5)
        tiled = TiledCrossbar(model, tile_size=16, seed=0)
        summary = tiled.programming_summary()
        assert summary["tiles"] == tiled.num_tiles
        assert summary["grid_tiles"] == tiled.grid_tiles
        assert summary["cells"] == 2 * tiled.bits * 16 * 16 * tiled.num_tiles
        # ones equal the monolithic image's programmed cells regardless
        mono = DgFefetCrossbar(model.toarray(), seed=0)  # repro-lint: disable=RPL001
        assert summary["programmed_ones"] == (
            mono.programming_summary()["programmed_ones"]
        )


class TestStoredModelAndMapping:
    def test_stored_model_equals_assembled_image(self):
        model = block_sparse_model(9)
        tiled = TiledCrossbar(model, tile_size=16, seed=0)
        stored = tiled.stored_model(offset=1.5, name="img")
        assert stored.offset == 1.5
        # repro-lint: disable=RPL001 (stored-image equivalence check)
        assert np.array_equal(stored.toarray(), tiled.matrix_hat)

    def test_machine_uses_sparse_hw_model_and_tile_mapping(self):
        model = block_sparse_model(13)
        machine = InSituCimAnnealer(model, tile_size=16, seed=0)
        assert isinstance(machine.hw_model, SparseIsingModel)
        assert machine.mapping == CrossbarMapping(
            16, machine.crossbar.bits, machine.crossbar.planes,
            machine.config.adc.mux_ratio,
            ordering="identity", bandwidth=graph_bandwidth(model),
        )
        assert machine.mapping.num_spins == 16  # per-tile geometry
        assert machine.mapping.planes == machine.crossbar.planes
        # The mapping summary reports the layout next to the geometry.
        summary = machine.mapping.summary()
        assert summary["ordering"] == "identity"
        assert summary["bandwidth"] == graph_bandwidth(model)


class TestMachineEquivalence:
    def test_tiled_machine_bit_identical_to_monolithic(self):
        """Same seed, same instance: tiled and monolithic runs coincide."""
        problem = MaxCutProblem.random(40, 200, seed=2)
        model = problem.to_ising()
        mono = InSituCimAnnealer(model, seed=1).run(400)
        tiled = InSituCimAnnealer(
            SparseIsingModel.from_ising(model), tile_size=16, seed=1
        ).run(400)
        assert tiled.anneal.best_energy == mono.anneal.best_energy
        assert tiled.anneal.energy == mono.anneal.energy
        assert tiled.anneal.accepted == mono.anneal.accepted
        assert np.array_equal(tiled.anneal.best_sigma, mono.anneal.best_sigma)
        assert np.array_equal(tiled.anneal.sigma, mono.anneal.sigma)

    def test_dense_input_machine_still_works(self):
        problem = MaxCutProblem.random(30, 120, seed=5)
        machine = InSituCimAnnealer(problem.to_ising(), tile_size=12, seed=1)
        assert isinstance(machine.hw_model, IsingModel)
        result = machine.run(300)
        check = machine.hw_model.energy(result.anneal.best_sigma)
        assert check == pytest.approx(result.anneal.best_energy, abs=1e-9)


class TestSolveApiRouting:
    def test_solve_maxcut_tiled_matches_machine(self):
        problem = MaxCutProblem.random(40, 200, seed=2)
        via_api = solve_maxcut(
            problem, iterations=300, seed=3, backend="sparse", tile_size=16
        )
        machine = InSituCimAnnealer(
            problem.to_ising(backend="sparse"), tile_size=16, seed=3
        )
        direct = machine.run(300)
        assert via_api.anneal.best_energy == direct.anneal.best_energy
        assert via_api.anneal.accepted == direct.anneal.accepted

    def test_fielded_model_folds_and_strips_ancilla(self):
        rng = ensure_rng(5)
        n = 16
        vals = rng.integers(-4, 5, size=(n, n)) / 4.0
        upper = np.triu(vals * (rng.random((n, n)) < 0.4), k=1)
        h = rng.integers(-4, 5, size=n) / 4.0
        model = IsingModel(upper + upper.T, h)
        result = solve_ising(model, iterations=200, seed=2, tile_size=8)
        assert result.sigma.shape == (n,)
        assert result.best_sigma.shape == (n,)
        assert np.all(np.isin(result.best_sigma, (-1, 1)))

    def test_crossbar_backend_reaches_the_tiled_machine(self):
        """`backend` names the coupling backend on the solve API, so the
        machine's simulation backend travels as `crossbar_backend`."""
        problem = MaxCutProblem.random(10, 20, seed=6)
        result = solve_maxcut(
            problem, iterations=30, seed=1, backend="sparse",
            tile_size=4, crossbar_backend="device",
        )
        assert result.anneal.iterations == 30

    def test_tile_size_validation(self):
        model = IsingModel.random(12, seed=1)
        with pytest.raises(ValueError, match="tile_size must be >= 2"):
            solve_ising(model, iterations=10, tile_size=1)
        with pytest.raises(ValueError, match="tile_size must be an integer"):
            solve_ising(model, iterations=10, tile_size=True)
        with pytest.raises(ValueError, match="method='insitu'"):
            solve_ising(model, iterations=10, tile_size=8, method="sa")

    def test_tiled_crossbar_validation(self):
        with pytest.raises(ValueError, match="square"):
            TiledCrossbar(np.zeros((4, 5)), tile_size=2)
        with pytest.raises(ValueError, match="tile_size"):
            TiledCrossbar(np.zeros((4, 4)), tile_size=1)

    def test_asymmetric_dense_matrix_is_rejected(self):
        """One input, one image: a non-symmetric matrix has no valid one.

        The upper and lower entries of tile (0, 1)/(1, 0) differ, so the
        assembled image and the CSR rows the increment reads would
        disagree; the monolithic crossbar refuses the same input.
        """
        J = np.zeros((6, 6))
        J[0, 4] = 1.0
        J[4, 0] = -0.5
        with pytest.raises(ValueError, match="symmetric"):
            DgFefetCrossbar(J)
        with pytest.raises(ValueError, match="symmetric"):
            TiledCrossbar(J, tile_size=4)

    @pytest.mark.parametrize("matrix", [np.zeros((4, 4)), np.eye(4)[::-1]])
    def test_unknown_backend_is_rejected(self, matrix):
        with pytest.raises(ValueError, match="unknown backend 'analog'"):
            TiledCrossbar(matrix, tile_size=2, backend="analog")


# ----------------------------------------------------------------------
# Per-tile reference harness
# ----------------------------------------------------------------------
def per_tile_increment(tiled, r, c, v_bg):
    """The per-tile loop of ``TiledCrossbar.compute_increment``, as oracle.

    Every active tile is evaluated through its own
    ``DgFefetCrossbar.compute_increment``, against that tile's own drive
    state, in (column block, row block) order; partial sums and counters
    are combined as the grid combines them.  The grid never touches its
    tiles' drive state, so one crossbar can serve as both the system
    under test and (through its tiles) the oracle.
    """
    s, n = tiled.tile_size, tiled.n
    r = np.asarray(r, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    driven = np.flatnonzero(c)
    total = 0.0
    phases = conversions = codes = fg = dl = cells = slots = 0
    settle = 0.0
    behavioral = tiled.backend == "behavioral"
    tile_vbg = VBG_MAX if behavioral else v_bg
    for bj in np.unique(driven // s):
        c_slice = np.zeros(s)
        c_slice[: min(s, n - bj * s)] = c[bj * s:(bj + 1) * s]
        for bi in range(tiled.grid):
            tile = tiled.tile_at(bi, int(bj))
            if tile is None:
                continue
            r_slice = np.zeros(s)
            r_slice[: min(s, n - bi * s)] = r[bi * s:(bi + 1) * s]
            value, stats = tile.compute_increment(
                r_slice, c_slice, tile_vbg, validate=False
            )
            total += value
            phases = max(phases, stats.phases)
            conversions += stats.adc_conversions
            codes += stats.sa_codes
            fg += stats.fg_toggles
            dl += stats.dl_toggles
            cells += stats.active_cells
            slots = max(slots, stats.mux_slots)
            settle = max(settle, stats.settle_time)
    if driven.size == 0:
        return 0.0, ActivationStats(0, 0, 0, 0, 0, 0, 0, 0.0)
    if behavioral:
        total *= tiled.factor(v_bg)
    return total, ActivationStats(
        phases, conversions, slots, codes, fg, dl, cells, settle
    )


def park_tiles(tiled) -> None:
    """Reset every tile's own drive state (the oracle's line memory)."""
    for bi in range(tiled.grid):
        for bj in range(tiled.grid):
            tile = tiled.tile_at(bi, bj)
            if tile is not None:
                tile.reset_drive_state()


class ReferenceMachine:
    """The ledgered tiled machine as it booked costs per iteration.

    Proposals are sensed through :func:`per_tile_increment`; an
    ``iteration_hook`` books one ``Ledger.add`` per entry per iteration
    and appends the cumulative cost traces, as the machine did before it
    booked whole runs.  Same annealer flow and RNG use as
    :class:`InSituCimAnnealer` with ``program=``.
    """

    def __init__(self, program, flips_per_iteration=1, seed=None):
        self.program = program
        factor = FractionalFactor()
        self.annealer = InSituAnnealer(
            program.annealer_model,
            flips_per_iteration=flips_per_iteration,
            factor=factor,
            encoder=VbgEncoder(factor, transfer=program.crossbar.factor),
            evaluator=self._evaluate,
            iteration_hook=self._book,
            permutation=program.permutation,
            seed=seed,
        )

    def _evaluate(self, sigma, flips, sigma_r, sigma_c, v_bg):
        # The drive vectors are rebuilt from σ and the flips, as the
        # annealer built them per proposal (its buffers are not trusted).
        sigma_c = np.zeros(sigma.size)
        sigma_c[flips] = -sigma[flips]
        sigma_r = sigma.copy()
        sigma_r[flips] = 0.0
        cfg = self.program.config
        v_bg = cfg.bg_dac.snap(v_bg)
        value, stats = per_tile_increment(
            self.program.crossbar, sigma_r, sigma_c, v_bg
        )
        energy = (
            stats.adc_conversions * cfg.adc.energy_per_conversion
            + stats.sa_codes * cfg.shift_add.energy_per_code
            + stats.fg_toggles * cfg.fg_driver.energy_per_toggle
            + stats.dl_toggles * cfg.dl_driver.energy_per_toggle
        )
        time = stats.mux_slots * cfg.adc.time_per_conversion + stats.settle_time
        update = self.last_vbg is None or abs(v_bg - self.last_vbg) > 1e-12
        if update:
            energy += cfg.bg_dac.energy_per_update
            time += cfg.bg_dac.time_per_update
            self.last_vbg = v_bg
        self.pending = (stats, update, energy, time)
        return value

    def _book(self, iteration, delta_e, accepted, temperature):
        cfg = self.program.config
        stats, update, energy, time = self.pending
        ledger = self.ledger
        ledger.add(
            "adc",
            stats.adc_conversions * cfg.adc.energy_per_conversion,
            stats.mux_slots * cfg.adc.time_per_conversion,
            stats.adc_conversions,
        )
        ledger.add("shift_add", stats.sa_codes * cfg.shift_add.energy_per_code, 0.0)
        ledger.add(
            "drivers",
            stats.fg_toggles * cfg.fg_driver.energy_per_toggle
            + stats.dl_toggles * cfg.dl_driver.energy_per_toggle,
            stats.settle_time,
        )
        if update:
            ledger.add(
                "bg_dac", cfg.bg_dac.energy_per_update, cfg.bg_dac.time_per_update
            )
        ledger.add("logic", cfg.logic_energy, cfg.logic_time)
        prev_e = self.energy_trace[-1] if self.energy_trace else 0.0
        prev_t = self.time_trace[-1] if self.time_trace else 0.0
        self.energy_trace.append(prev_e + (energy + cfg.logic_energy))
        self.time_trace.append(prev_t + (time + cfg.logic_time))

    def run(self, iterations) -> CimRunResult:
        crossbar = self.program.crossbar
        park_tiles(crossbar)
        self.ledger = Ledger()
        prog = crossbar.programming_summary()
        self.ledger.add("program", prog["energy"], 0.0, int(prog["write_pulses"]))
        self.last_vbg = None
        self.energy_trace, self.time_trace = [], []
        anneal = self.annealer.run(iterations)
        return CimRunResult(
            label="reference", anneal=anneal, ledger=self.ledger,
            energy_trace=np.asarray(self.energy_trace),
            time_trace=np.asarray(self.time_trace),
        )


def assert_same_run(got, want, rel=0.0):
    """Equal trajectories and books; floats to ``rel`` (0: bit for bit)."""
    a, b = got.anneal, want.anneal
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.best_sigma, b.best_sigma)
    assert (a.accepted, a.uphill_accepted, a.uphill_proposals) == (
        b.accepted, b.uphill_accepted, b.uphill_proposals
    )
    assert a.best_energy == pytest.approx(b.best_energy, rel=rel, abs=0)
    assert a.energy == pytest.approx(b.energy, rel=rel, abs=0)
    assert list(got.ledger.entries) == list(want.ledger.entries)
    for name, entry in got.ledger.entries.items():
        ref = want.ledger.entries[name]
        assert entry.count == ref.count
        assert entry.energy == pytest.approx(ref.energy, rel=rel, abs=0)
        assert entry.time == pytest.approx(ref.time, rel=rel, abs=0)
    for trace in ("energy_trace", "time_trace"):
        np.testing.assert_allclose(
            getattr(got, trace), getattr(want, trace), rtol=rel, atol=0
        )


class TestPerTileReference:
    @relaxed
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(20, 60),
        tile=st.sampled_from([5, 7, 8, 16]),
        t=st.integers(1, 4),
    )
    def test_increment_matches_per_tile_loop(self, seed, n, tile, t):
        """Value and every counter, over a sequence of proposals.

        Ragged edges (n rarely divides the tile), empty column blocks,
        tiles with and without a negative plane, repeated activations and
        a mid-sequence reset of the drive state.
        """
        model = block_sparse_model(seed, n=n, tile=tile)
        tiled = TiledCrossbar(model, tile_size=tile, seed=0)
        rng = ensure_rng(seed + 1)
        sigma = rng.choice([-1.0, 1.0], n)
        for step in range(24):
            if step == 12:
                tiled.reset_drive_state()
                park_tiles(tiled)
            flips = rng.choice(n, size=t, replace=False)
            c = np.zeros(n)
            c[flips] = -sigma[flips]
            r = sigma.copy()
            r[flips] = 0.0
            v_bg = float(rng.uniform(0.05, 0.7))
            for _ in range(1 + (step % 3 == 0)):  # some repeated activations
                got = tiled.compute_increment(r, c, v_bg)
                assert got == per_tile_increment(tiled, r, c, v_bg)
            if rng.random() < 0.5:
                sigma[flips] *= -1.0

    @relaxed
    @given(
        seed=st.integers(0, 1000),
        t=st.integers(1, 4),
        reorder=st.sampled_from(["none", "rcm", "auto"]),
    )
    def test_machine_runs_match_reference(self, seed, t, reorder):
        """Cold, repeated and warm runs: trajectory and books bit for bit."""
        problem, _ = scattered_circulant_maxcut(90, seed=seed)
        model = problem.to_ising(backend="sparse")
        cold = InSituCimAnnealer(
            model, tile_size=16, reorder=reorder, flips_per_iteration=t,
            seed=seed, record_cost_trace=True,
        )
        program = cold.program
        reference = ReferenceMachine(program, flips_per_iteration=t, seed=seed)
        for iterations in (120, 70):  # the second run reuses the array
            assert_same_run(cold.run(iterations), reference.run(iterations))
        warm = InSituCimAnnealer(
            program=program, flips_per_iteration=t, seed=seed + 1,
            record_cost_trace=True,
        )
        assert_same_run(
            warm.run(100),
            ReferenceMachine(program, flips_per_iteration=t, seed=seed + 1).run(100),
        )

    @pytest.mark.parametrize(
        "knobs",
        [
            {"variation": VariationModel(vth_sigma=0.02, read_noise_sigma=0.01)},
            {"backend": "device"},
        ],
        ids=["variation", "device"],
    )
    def test_noisy_tiles_reproduce_and_match_reference(self, knobs):
        """Per-tile reads keep their draw order: same seed, same run.

        Two flips per proposal, so reads span several column blocks and
        the (column block, row block) read order shows in the draws.
        """
        model = MaxCutProblem.random(20, 50, seed=6).to_ising(backend="sparse")
        cold = [
            InSituCimAnnealer(
                model, tile_size=8, flips_per_iteration=2, seed=4,
                record_cost_trace=True, **knobs
            ).run(60)
            for _ in range(2)
        ]
        assert_same_run(cold[0], cold[1])
        programs = [
            compile_cim_program(model, tile_size=8, seed=11, **knobs)
            for _ in range(2)
        ]
        warm = InSituCimAnnealer(
            program=programs[0], flips_per_iteration=2, seed=2,
            record_cost_trace=True,
        ).run(60)
        reference = ReferenceMachine(
            programs[1], flips_per_iteration=2, seed=2
        ).run(60)
        assert_same_run(warm, reference, rel=1e-12)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"variation": VariationModel(vth_sigma=0.02, read_noise_sigma=0.01)},
            {"backend": "device"},
        ],
        ids=["variation", "device"],
    )
    def test_noisy_increments_match_per_tile_loop(self, knobs):
        """Sensed values to 1e-12 and exact counters, read by read.

        Twin grids built from one seed hold the same tiles and noise
        streams; flip sets of up to four spins span several column
        blocks, so the per-tile read order shows in every noisy value.
        """
        model = block_sparse_model(3, n=30, tile=8)
        tiled, oracle = (
            TiledCrossbar(model, tile_size=8, seed=7, **knobs) for _ in range(2)
        )
        rng = ensure_rng(5)
        sigma = rng.choice([-1.0, 1.0], 30)
        for step in range(16):
            flips = rng.choice(30, size=1 + step % 4, replace=False)
            c = np.zeros(30)
            c[flips] = -sigma[flips]
            r = sigma.copy()
            r[flips] = 0.0
            value, stats = tiled.compute_increment(r, c, 0.45)
            ref_value, ref_stats = per_tile_increment(oracle, r, c, 0.45)
            assert stats == ref_stats
            assert value == pytest.approx(ref_value, rel=1e-12, abs=0)
            sigma[flips] *= -1.0


# ----------------------------------------------------------------------
# Drive-sequence harness: the line-state kernel against full-vector counters
# ----------------------------------------------------------------------
def full_vector_stats(array, r, c, last):
    """One array's counters from its whole drive vectors, as oracle.

    The counter formulas the monolithic crossbar evaluated on every read
    before its line state existed, for ``array``'s bits, planes, ADC mux
    and wire.  ``last`` is the ``(fg, dl)`` drive of the previous read,
    ``None`` for parked lines; returns the counters and the new drive.
    """
    n = r.size
    bits, planes = array.bits, array.planes
    phases = int((r == 1).any()) + int((r == -1).any())
    phases = max(phases, 1)
    active_groups = int(np.count_nonzero(c))
    conversions = phases * active_groups * bits * planes
    total_columns = n * bits * planes
    num_adcs = max(1, total_columns // array.adc.mux_ratio)
    active_columns = active_groups * bits * planes
    slots = phases * max(1, -(-active_columns // num_adcs))  # ceil div
    active_cells = phases and int(np.count_nonzero(r)) * active_columns
    fg_now = r.astype(np.int8)
    dl_now = c.astype(np.int8)
    if last is None:
        fg_toggles = int(np.count_nonzero(fg_now))
        dl_toggles = int(np.count_nonzero(dl_now))
    else:
        fg_toggles = int(np.count_nonzero(fg_now != last[0]))
        dl_toggles = int(np.count_nonzero(dl_now != last[1]))
    stats = ActivationStats(
        phases=phases,
        adc_conversions=conversions,
        mux_slots=slots,
        sa_codes=conversions,
        fg_toggles=fg_toggles,
        dl_toggles=dl_toggles,
        active_cells=int(active_cells),
        settle_time=phases * array.wire.settle_time(n),
    )
    return stats, (fg_now, dl_now)


class FullVectorLines:
    """Counters of a monolithic array or a grid from whole drive vectors.

    Every active tile — the monolithic array on every read, the tiles of
    a driven column block on a grid — is read through
    :func:`full_vector_stats` on its zero-padded slices, against its own
    drive memory; tiles combine as they sense, in parallel.
    """

    def __init__(self, crossbar):
        self.always = isinstance(crossbar, DgFefetCrossbar)
        if self.always:
            self.side, self.tiles = crossbar.n, {(0, 0): crossbar}
        else:
            grid = range(crossbar.grid)
            self.side = crossbar.tile_size
            self.tiles = {
                (bi, bj): tile
                for bi in grid
                for bj in grid
                if (tile := crossbar.tile_at(bi, bj)) is not None
            }
        self.reset()

    def reset(self):
        self.last = {}

    def read(self, r, c):
        s = self.side
        driven = set((np.flatnonzero(c) // s).tolist())
        phases = conversions = slots = codes = fg = dl = cells = 0
        settle = 0.0
        for (bi, bj), tile in self.tiles.items():
            if not (self.always or bj in driven):
                continue
            r_slice, c_slice = np.zeros(s), np.zeros(s)
            rows, cols = r[bi * s:(bi + 1) * s], c[bj * s:(bj + 1) * s]
            r_slice[: rows.size], c_slice[: cols.size] = rows, cols
            stats, self.last[bi, bj] = full_vector_stats(
                tile, r_slice, c_slice, self.last.get((bi, bj))
            )
            phases = max(phases, stats.phases)
            conversions += stats.adc_conversions
            slots = max(slots, stats.mux_slots)
            codes += stats.sa_codes
            fg += stats.fg_toggles
            dl += stats.dl_toggles
            cells += stats.active_cells
            settle = max(settle, stats.settle_time)
        return ActivationStats(
            phases, conversions, slots, codes, fg, dl, cells, settle
        )


def column_product(image, r, c, factor):
    """``rᵀ Ĵ c · f`` by gathering the driven columns of ``Ĵ``."""
    cols = np.flatnonzero(c)
    if cols.size == 0:
        return 0.0
    return float(r @ (image[:, cols] @ c[cols])) * factor


def drive_script(seed, n, t, steps=36):
    """Reads, resets and full-vector reads of a random annealer protocol.

    Protocol reads drive ``σ_r`` (σ with the flip set deselected) and
    ``σ_c`` (−σ on the flip set, unsorted) and flip σ on a random accept;
    some repeat, some drive no column at all.  Interleaved are drive
    resets and full-vector reads of ``(σ, σ)``, which drive every column.
    """
    rng = ensure_rng(seed)
    sigma = rng.choice([-1.0, 1.0], n)
    events = []
    for _ in range(steps):
        u = rng.random()
        v_bg = float(rng.uniform(0.05, 0.7))
        if u < 0.08:
            events.append(("reset",))
            continue
        if u < 0.16:
            events.append(("full", sigma.copy(), sigma.copy(), None, v_bg))
            continue
        size = 0 if u < 0.22 else t
        flips = rng.choice(n, size=size, replace=False)
        c = np.zeros(n)
        c[flips] = -sigma[flips]
        r = sigma.copy()
        r[flips] = 0.0
        for _ in range(1 + (rng.random() < 0.15)):
            events.append(("read", r, c, flips, v_bg))
        if rng.random() < 0.5:
            sigma[flips] *= -1.0
    return events


class TestDriveSequences:
    @relaxed
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(20, 60),
        tile=st.sampled_from([5, 7, 8, 16]),
        t=st.sampled_from([1, 2, 3]),
    )
    def test_both_arrays_match_full_vector_counters(self, seed, n, tile, t):
        """Every counter and value of both arrays, read by read.

        Each script runs twice on fresh arrays: with ``flips=`` (the
        line state syncs only the flipped lines) and without (full
        re-syncs).  Ragged last blocks, structurally empty column
        blocks, empty drives, resets and full-vector reads all occur.
        """
        model = block_sparse_model(seed, n=n, tile=tile)
        script = drive_script(seed + 1, n, t)
        for use_flips in (True, False):
            tiled = TiledCrossbar(model, tile_size=tile, seed=0)
            mono = DgFefetCrossbar(tiled.matrix_hat, seed=0)
            arrays = [(xb, FullVectorLines(xb)) for xb in (mono, tiled)]
            for kind, *drive in script:
                if kind == "reset":
                    for xb, ref in arrays:
                        xb.reset_drive_state()
                        ref.reset()
                    park_tiles(tiled)
                    continue
                r, c, flips, v_bg = drive
                if not use_flips:
                    flips = None
                want_value = column_product(mono.matrix_hat, r, c, mono.factor(v_bg))
                for xb, ref in arrays:
                    value, stats = xb.compute_increment(r, c, v_bg, flips=flips)
                    assert stats == ref.read(r, c)
                    assert value == want_value
                assert (value, stats) == per_tile_increment(tiled, r, c, v_bg)

    def test_monolithic_empty_drive(self):
        """No driven column: the array still senses one slot per phase."""
        model = block_sparse_model(2, n=20, tile=8)
        mono = DgFefetCrossbar(TiledCrossbar(model, tile_size=8).matrix_hat)
        sigma = np.where(np.arange(20) % 3, 1.0, -1.0)
        _, stats = mono.compute_increment(sigma, np.zeros(20), 0.5, flips=[])
        assert stats == ActivationStats(2, 0, 2, 0, 20, 0, 0, 2 * mono.wire.settle_time(20))
        empty = DgFefetCrossbar(np.zeros((0, 0)))
        value, stats = empty.compute_increment(np.zeros(0), np.zeros(0), 0.5)
        assert (value, stats) == (0.0, ActivationStats(1, 0, 1, 0, 0, 0, 0, 0.0))

    @pytest.mark.parametrize("array", ["monolithic", "tiled"])
    def test_validate_checks_the_flips_contract(self, array):
        """A read that breaks the ``flips=`` contract raises, unchanged."""
        model = block_sparse_model(4, n=24, tile=8)
        tiled = TiledCrossbar(model, tile_size=8)
        xb = tiled if array == "tiled" else DgFefetCrossbar(tiled.matrix_hat)
        sigma = np.ones(24)
        r, c = sigma.copy(), np.zeros(24)
        r[3], c[3] = 0.0, -1.0
        xb.compute_increment(r, c, 0.5, flips=[3])
        with pytest.raises(ValueError, match="driven column"):
            xb.compute_increment(r, c, 0.5, flips=[3, 4])
        moved = r.copy()
        moved[10] = -1.0  # outside the previous and current flip sets
        with pytest.raises(ValueError, match="previous and the current flip set"):
            xb.compute_increment(moved, c, 0.5, flips=[3])
        # Without validation the caller vouches for the contract; after a
        # reset the chain restarts from a full re-sync.
        xb.reset_drive_state()
        _, stats = xb.compute_increment(moved, c, 0.5, flips=[3])
        ref = FullVectorLines(xb)
        assert stats == ref.read(moved, c)


class TestLedgerSeries:
    @relaxed
    @given(
        start=st.floats(0, 1e3),
        amounts=st.lists(
            st.tuples(
                st.floats(0, 1), st.integers(-20, 20), st.floats(0, 1),
                st.integers(-20, 20),
            ),
            max_size=40,
        ),
    )
    def test_series_equals_repeated_add(self, start, amounts):
        """Values spanning 40 decades, where the sum order shows."""
        energy = [m * 10.0**e for m, e, _, _ in amounts]
        time = [m * 10.0**e for _, _, m, e in amounts]
        one_by_one, series = Ledger(), Ledger()
        for ledger in (one_by_one, series):
            ledger.add("x", start, start, 3)
        for e, t in zip(energy, time):
            one_by_one.add("x", e, t)
        series.add_series("x", energy, time)
        assert series.entries == one_by_one.entries

    def test_series_is_not_a_pairwise_sum(self):
        """A pairwise sum would keep the small terms a left fold drops."""
        amounts = [1e16] + [1.0] * 8
        ledger = Ledger()
        ledger.add_series("x", amounts, amounts)
        assert ledger.entries["x"].energy == 1e16
        assert float(np.sum(amounts)) == 1e16 + 8
