"""Tests for the architecture layer: ledgers, configs, mapping, machines."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    CimRunResult,
    CrossbarMapping,
    DirectECimAnnealer,
    HardwareConfig,
    InSituCimAnnealer,
    Ledger,
)
from repro.arch.cim_annealer import compile_cim_program, rail_updates
from repro.circuits.crossbar import PROGRAM_PULSE_ENERGY
from repro.circuits.quantize import MatrixQuantizer, QuantizedMatrix
from repro.core import DirectEAnnealer, LinearSchedule
from repro.ising import IsingModel, MaxCutProblem
from repro.utils.rng import ensure_rng


@pytest.fixture
def problem():
    return MaxCutProblem.random(32, 120, seed=2)


class TestLedger:
    def test_accumulates(self):
        led = Ledger()
        led.add("adc", energy=1.0, time=2.0, count=3)
        led.add("adc", energy=0.5, time=0.5, count=1)
        led.add("logic", energy=0.25)
        assert led.total_energy == pytest.approx(1.75)
        assert led.total_time == pytest.approx(2.5)
        assert led.entries["adc"].count == 4

    def test_merge(self):
        a, b = Ledger(), Ledger()
        a.add("x", energy=1.0)
        b.add("x", energy=2.0)
        b.add("y", time=1.0)
        a.merge(b)
        assert a.total_energy == pytest.approx(3.0)
        assert a.total_time == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Ledger().add("x", energy=-1.0)
        with pytest.raises(ValueError, match="non-negative"):
            Ledger().add_series("x", [1.0, -1.0], [0.0, 0.0])

    def test_add_series_shapes_and_counts(self):
        led = Ledger()
        with pytest.raises(ValueError, match="matching 1-D"):
            led.add_series("x", [1.0, 2.0], [0.0])
        led.add_series("x", [], [])
        assert "x" not in led.entries  # no add() call, no entry
        led.add_series("x", [1.0, 2.0], [0.5, 0.5])
        led.add_series("y", [1.0, 2.0], [0.0, 0.0], count=[3, 4])
        assert led.entries["x"].count == 2
        assert led.entries["y"].count == 7
        assert list(led.entries) == ["x", "y"]

    def test_breakdown_and_share(self):
        led = Ledger()
        led.add("adc", energy=3.0)
        led.add("exp", energy=1.0)
        assert led.energy_breakdown() == {"adc": 3.0, "exp": 1.0}
        assert led.energy_share("adc") == pytest.approx(0.75)
        assert led.energy_share("missing") == 0.0

    def test_table_renders(self):
        led = Ledger()
        led.add("adc", energy=1e-12, time=1e-9)
        table = led.as_table("test")
        assert "adc" in table
        assert "TOTAL" in table


class TestHardwareConfig:
    def test_named_configs(self):
        prop = HardwareConfig.proposed()
        fpga = HardwareConfig.baseline_fpga()
        asic = HardwareConfig.baseline_asic()
        assert prop.exponent is None
        assert fpga.exponent.energy_per_eval > asic.exponent.energy_per_eval
        assert "FPGA" in fpga.label and "ASIC" in asic.label

    def test_with_adc(self):
        from repro.circuits import SarAdc

        cfg = HardwareConfig.proposed().with_adc(SarAdc(bits=6))
        assert cfg.adc.bits == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareConfig(quantization_bits=0)


class TestMapping:
    def test_geometry(self):
        m = CrossbarMapping(num_spins=100, bits=4, planes=1)
        assert m.num_columns == 400
        assert m.num_adcs == 50
        assert m.num_cells == 40_000

    def test_full_activation_counts(self):
        m = CrossbarMapping(num_spins=100, bits=4, planes=1)
        assert m.full_activation_conversions() == 800
        assert m.full_activation_slots() == 16

    @staticmethod
    def chain(negative):
        """A 6-spin chain of +1 couplings plus one ``negative`` coupling."""
        J = np.zeros((6, 6))
        for i in range(5):
            J[i, i + 1] = J[i + 1, i] = 1.0
        J[0, 3] = J[3, 0] = negative
        return IsingModel(J)

    @pytest.mark.parametrize("tile_size", [None, 4])
    @pytest.mark.parametrize(
        "negative, planes",
        [
            (0.0, 1),  # a positive image
            (-0.5, 2),  # a signed image
            (-0.01, 1),  # rounds to level 0 at k=4: no negative cell stored
        ],
    )
    def test_mapping_reads_the_stored_planes(self, negative, planes, tile_size):
        """The mapping counts the planes the array stores, not the input's signs."""
        program = compile_cim_program(self.chain(negative), tile_size=tile_size)
        assert program.mapping.planes == program.crossbar.planes == planes
        assert program.mapping.num_spins == (tile_size or 6)

    def test_direct_e_books_the_stored_planes(self):
        """48 conversions an iteration: 2 phases · 6 rows · 4 bits · 1 plane."""
        machine = DirectECimAnnealer(self.chain(-0.01), seed=0)
        assert machine.mapping.planes == 1
        result = machine.run(10)
        assert result.ledger.entries["adc"].count == 48 * 10

    def test_validation(self):
        with pytest.raises(ValueError):
            CrossbarMapping(0, 4, 1)
        with pytest.raises(ValueError):
            CrossbarMapping(4, 4, 3)


class TestInSituMachine:
    def test_run_produces_consistent_result(self, problem):
        machine = InSituCimAnnealer(problem.to_ising(), seed=1)
        result = machine.run(400)
        # energies are consistent with the machine's stored (quantized) image
        check = machine.hw_model.energy(result.anneal.best_sigma)
        assert check == pytest.approx(result.anneal.best_energy, abs=1e-6)
        assert result.energy > 0
        assert result.time > 0

    def test_ledger_components(self, problem):
        result = InSituCimAnnealer(problem.to_ising(), seed=1).run(300)
        names = set(result.ledger.entries)
        assert {"adc", "logic", "bg_dac", "drivers", "program", "shift_add"} <= names
        assert result.ledger.entries["logic"].count == 300

    def test_annealing_energy_excludes_programming(self, problem):
        result = InSituCimAnnealer(problem.to_ising(), seed=1).run(300)
        assert result.annealing_energy == pytest.approx(
            result.energy - result.programming_energy
        )
        assert result.programming_energy > 0

    def test_adc_dominates_time(self, problem):
        result = InSituCimAnnealer(problem.to_ising(), seed=1).run(300)
        assert result.ledger.entries["adc"].time > 0.5 * result.time

    def test_cost_traces(self, problem):
        machine = InSituCimAnnealer(problem.to_ising(), record_cost_trace=True, seed=1)
        result = machine.run(200)
        assert result.energy_trace.shape == (200,)
        assert np.all(np.diff(result.energy_trace) > 0)
        assert result.energy_trace[-1] == pytest.approx(
            result.annealing_energy, rel=1e-6
        )

    def test_rejects_field_models(self):
        model = IsingModel.random(8, with_fields=True, seed=1)
        with pytest.raises(ValueError, match="ancilla"):
            InSituCimAnnealer(model)

    def test_device_backend_runs(self, problem):
        machine = InSituCimAnnealer(problem.to_ising(), backend="device", seed=1)
        result = machine.run(50)
        assert result.anneal.iterations == 50

    @pytest.mark.parametrize("tile_size", [None, 8])
    def test_rejected_run_leaves_machine_usable(self, problem, tile_size):
        """A run refused at the annealer boundary must not leak state.

        The default V_BG walk used to be pinned onto the inner annealer
        for the refused run's length, so the next run of another length
        failed with a schedule-length mismatch.
        """
        model = problem.to_ising()
        machine = InSituCimAnnealer(model, tile_size=tile_size, seed=3)
        with pytest.raises(ValueError, match="±1"):
            machine.run(100, initial=np.zeros(model.num_spins))
        result = machine.run(200)
        # The refused run drew nothing: the next one is a fresh run.
        fresh = InSituCimAnnealer(model, tile_size=tile_size, seed=3).run(200)
        assert result.anneal.iterations == 200
        assert result.anneal.best_energy == fresh.anneal.best_energy
        assert result.energy == fresh.energy
        assert result.time == fresh.time

    def test_program_cells_counted_once_per_image(self, problem, monkeypatch):
        """Repeat runs on one program book equal ``program`` entries.

        The stored image is immutable, so its '1' cells are counted on
        the first run's booking only.
        """
        counted = []
        cell_count = QuantizedMatrix.cell_count

        def counting(quantized):
            counted.append(quantized)
            return cell_count(quantized)

        monkeypatch.setattr(QuantizedMatrix, "cell_count", counting)
        program = compile_cim_program(problem.to_ising())
        machine = InSituCimAnnealer(program=program, seed=1)
        first, second = machine.run(50), machine.run(80)
        assert first.ledger.entries["program"] == second.ledger.entries["program"]
        assert first.programming_energy == second.programming_energy > 0
        assert len(counted) == 1

    def test_per_iteration_cost_flat_in_n(self):
        """The O(n) claim: per-iteration sensing cost ≈ independent of n."""
        costs = []
        for n, m in ((32, 100), (64, 200)):
            prob = MaxCutProblem.random(n, m, seed=3)
            res = InSituCimAnnealer(prob.to_ising(), seed=1).run(200)
            adc = res.ledger.entries["adc"]
            costs.append(adc.energy / 200)
        assert costs[1] == pytest.approx(costs[0], rel=0.05)


class TestRailUpdates:
    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.sampled_from([0.0, 4e-13, 0.01, -0.01]), st.integers(1, 4)),
            min_size=1, max_size=30,
        )
    )
    def test_matches_the_per_read_test(self, steps):
        """Sub-1e-12 drifts accumulate against the level last set."""
        levels, level = [], 0.35
        for move, hold in steps:
            level += move
            levels += [level] * hold
        want, last = [], None
        for v in levels:
            want.append(last is None or abs(v - last) > 1e-12)
            if want[-1]:
                last = v
        assert rail_updates(np.array(levels)).tolist() == want


class TestDirectEMachine:
    def test_requires_exponent_unit(self, problem):
        with pytest.raises(ValueError, match="exponent"):
            DirectECimAnnealer(problem.to_ising(), HardwareConfig.proposed())

    def test_ledger_has_exponent_entry(self, problem):
        machine = DirectECimAnnealer(
            problem.to_ising(), HardwareConfig.baseline_asic(), seed=1
        )
        result = machine.run(300)
        assert "exponent" in result.ledger.entries
        assert result.ledger.entries["exponent"].count == result.anneal.uphill_proposals

    def test_adc_cost_scales_with_n(self):
        """Direct-E pays the full array every iteration: cost ∝ n."""
        costs = []
        for n, m in ((32, 100), (64, 200)):
            prob = MaxCutProblem.random(n, m, seed=3)
            machine = DirectECimAnnealer(
                prob.to_ising(), HardwareConfig.baseline_asic(), seed=1
            )
            res = machine.run(100)
            costs.append(res.ledger.entries["adc"].energy / 100)
        assert costs[1] == pytest.approx(2 * costs[0], rel=0.05)

    def test_fpga_costs_more_than_asic(self, problem):
        model = problem.to_ising()
        fpga = DirectECimAnnealer(model, HardwareConfig.baseline_fpga(), seed=1).run(200)
        asic = DirectECimAnnealer(model, HardwareConfig.baseline_asic(), seed=1).run(200)
        assert fpga.annealing_energy > asic.annealing_energy

    def test_reduction_ratios_in_paper_band(self):
        """At n=800 the paper reports ≈8× time and 401-732× energy gains."""
        prob = MaxCutProblem.random(800, 19176, seed=1000)
        model = prob.to_ising()
        iters = 300
        r_in = InSituCimAnnealer(model, seed=1).run(iters)
        r_fp = DirectECimAnnealer(model, HardwareConfig.baseline_fpga(), seed=1).run(iters)
        r_as = DirectECimAnnealer(model, HardwareConfig.baseline_asic(), seed=1).run(iters)
        e_fp = r_fp.annealing_energy / r_in.annealing_energy
        e_as = r_as.annealing_energy / r_in.annealing_energy
        t_fp = r_fp.time / r_in.time
        assert 500 < e_fp < 1000
        assert 250 < e_as < 600
        assert 7.0 < t_fp < 9.0

    def test_cost_traces(self, problem):
        machine = DirectECimAnnealer(
            problem.to_ising(), HardwareConfig.baseline_asic(),
            record_cost_trace=True, seed=1,
        )
        result = machine.run(150)
        assert result.energy_trace.shape == (150,)
        assert np.all(np.diff(result.energy_trace) > 0)

    def test_summary_renders(self, problem):
        result = DirectECimAnnealer(
            problem.to_ising(), HardwareConfig.baseline_asic(), seed=1
        ).run(100)
        assert "CiM/ASIC" in result.summary()


class ReferenceDirectEMachine:
    """The direct-E baseline as it booked costs per iteration.

    Quantizes and maps its own array, books one ``Ledger.add`` per entry
    per iteration from an ``iteration_hook`` and appends the cumulative
    cost traces, as :class:`DirectECimAnnealer` did before it booked
    whole runs.  Same annealer flow and RNG use.
    """

    def __init__(self, model, config, flips_per_iteration=1, schedule=None,
                 proposal="random", seed=None):
        quantized = MatrixQuantizer(config.quantization_bits).quantize(model.J)
        hw_model = IsingModel(
            quantized.dequantize(), None, offset=model.offset, name=model.name
        )
        # The planes its own image stores, not the input's signs.
        planes = 2 if (quantized.levels < 0).any() else 1
        mapping = CrossbarMapping(
            model.num_spins, config.quantization_bits, planes,
            config.adc.mux_ratio,
        )
        self.config = config
        self.flips_per_iteration = flips_per_iteration
        self.cells = 2 * config.quantization_bits * model.num_spins**2
        self.annealer = DirectEAnnealer(
            hw_model, flips_per_iteration=flips_per_iteration,
            schedule=schedule, proposal=proposal,
            iteration_hook=self._book_iteration, seed=seed,
        )
        self.conversions = mapping.full_activation_conversions(phases=2)
        slots = mapping.full_activation_slots(phases=2)
        self.adc_energy = self.conversions * config.adc.energy_per_conversion
        self.adc_time = slots * config.adc.time_per_conversion
        self.sa_energy = self.conversions * config.shift_add.energy_per_code
        self.settle = 2 * config.wire.settle_time(mapping.num_spins)

    def _book_iteration(self, iteration, delta_e, accepted, temperature):
        cfg = self.config
        ledger = self.ledger
        ledger.add("adc", self.adc_energy, self.adc_time, self.conversions)
        ledger.add("shift_add", self.sa_energy, 0.0)
        driver_energy = 0.0
        if accepted:
            toggles = 2 * self.flips_per_iteration
            driver_energy = toggles * cfg.fg_driver.energy_per_toggle
        ledger.add("drivers", driver_energy, self.settle)
        exp_energy = exp_time = 0.0
        if delta_e > 0:
            exp_energy = cfg.exponent.energy_per_eval
            exp_time = cfg.exponent.time_per_eval
            ledger.add("exponent", exp_energy, exp_time)
        ledger.add("logic", cfg.logic_energy, cfg.logic_time)
        total_e = (
            self.adc_energy + self.sa_energy + driver_energy + exp_energy
            + cfg.logic_energy
        )
        total_t = self.adc_time + self.settle + exp_time + cfg.logic_time
        prev_e = self.energy_trace[-1] if self.energy_trace else 0.0
        prev_t = self.time_trace[-1] if self.time_trace else 0.0
        self.energy_trace.append(prev_e + total_e)
        self.time_trace.append(prev_t + total_t)

    def run(self, iterations) -> CimRunResult:
        self.ledger = Ledger()
        self.energy_trace, self.time_trace = [], []
        self.ledger.add("program", self.cells * PROGRAM_PULSE_ENERGY, 0.0, self.cells)
        anneal = self.annealer.run(iterations)
        return CimRunResult(
            label="reference", anneal=anneal, ledger=self.ledger,
            energy_trace=np.asarray(self.energy_trace),
            time_trace=np.asarray(self.time_trace),
        )


def assert_same_books(got, want):
    """Equal trajectories, Ledger entries (in order), totals and traces, bit for bit."""
    a, b = got.anneal, want.anneal
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.best_sigma, b.best_sigma)
    assert (a.energy, a.best_energy, a.accepted, a.uphill_proposals) == (
        b.energy, b.best_energy, b.accepted, b.uphill_proposals
    )

    def books(run):
        entries = [(k, e.energy, e.time, e.count) for k, e in run.ledger.entries.items()]
        return entries, run.ledger.total_energy, run.ledger.total_time

    assert books(got) == books(want)
    for trace in ("energy_trace", "time_trace"):
        assert getattr(got, trace).tobytes() == getattr(want, trace).tobytes()


def non_dyadic_model(n, seed):
    rng = ensure_rng(seed)
    upper = np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5), k=1)
    return IsingModel(upper + upper.T, offset=0.3)


class TestDirectEMachineBooks:
    """The run-at-once books equal the per-iteration reference bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 10),
        model_seed=st.integers(0, 2**16),
        config=st.sampled_from(["fpga", "asic"]),
        flips=st.integers(1, 2),
        proposal=st.sampled_from(["random", "scan"]),
        linear=st.booleans(),
        iterations=st.integers(1, 60),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_iteration_reference(
        self, n, model_seed, config, flips, proposal, linear, iterations, seed
    ):
        model = non_dyadic_model(n, model_seed)
        cfg = getattr(HardwareConfig, f"baseline_{config}")()
        schedule = LinearSchedule(iterations, 1.5, 0.01) if linear else None
        machine = DirectECimAnnealer(
            model, cfg, flips_per_iteration=flips, schedule=schedule,
            proposal=proposal, record_cost_trace=True, seed=seed,
        )
        reference = ReferenceDirectEMachine(
            model, cfg, flips_per_iteration=flips, schedule=schedule,
            proposal=proposal, seed=seed,
        )
        for _ in range(2):  # repeated runs continue one stream each
            assert_same_books(machine.run(iterations), reference.run(iterations))

    def test_exponent_entry_follows_the_first_uphill_proposal(self):
        """``exponent`` precedes ``logic`` only when proposal 0 is uphill."""
        model = non_dyadic_model(9, 4)
        cfg = HardwareConfig.baseline_fpga()
        orders = set()
        for seed in range(12):
            got = DirectECimAnnealer(model, cfg, record_cost_trace=True, seed=seed).run(40)
            want = ReferenceDirectEMachine(model, cfg, seed=seed).run(40)
            assert_same_books(got, want)
            entries = list(got.ledger.entries)
            orders.add(entries.index("exponent") < entries.index("logic"))
        assert orders == {True, False}


def build_machine(kind):
    model = non_dyadic_model(12, 8)
    if kind == "direct-e":
        return DirectECimAnnealer(model, seed=3)
    return InSituCimAnnealer(
        model, tile_size=5 if kind == "tiled" else None, seed=3
    )


@pytest.mark.parametrize("kind", ["monolithic", "tiled", "direct-e"])
def test_deleted_machine_freed_without_the_collector(kind):
    """No machine is a reference cycle: ``del`` frees it at once.

    The cost hooks close over a per-run counter record, not the machine,
    so a tracemalloc budget measured around a machine does not depend on
    when the cyclic collector runs.
    """
    gc.disable()
    try:
        machine = build_machine(kind)
        machine.run(30)
        ref = weakref.ref(machine)
        del machine
        assert ref() is None
    finally:
        gc.enable()
