"""Tests for the architecture layer: ledgers, configs, mapping, machines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import (
    CrossbarMapping,
    DirectECimAnnealer,
    HardwareConfig,
    InSituCimAnnealer,
    Ledger,
)
from repro.ising import IsingModel, MaxCutProblem


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

    def test_incremental_counts(self):
        m = CrossbarMapping(num_spins=100, bits=4, planes=1)
        assert m.incremental_conversions(1) == 8
        assert m.incremental_slots(1) == 2  # one slot per phase
        assert m.incremental_slots(0) == 0

    def test_incremental_slots_grow_past_adc_population(self):
        m = CrossbarMapping(num_spins=4, bits=4, planes=1, mux_ratio=8)
        # only 2 ADCs exist; activating 3 elements (12 columns) needs 6 slots/phase
        assert m.incremental_slots(3) == 2 * 6

    def test_for_matrix_detects_planes(self):
        pos = np.array([[0.0, 1.0], [1.0, 0.0]])
        signed = np.array([[0.0, -1.0], [-1.0, 0.0]])
        assert CrossbarMapping.for_matrix(pos, 4).planes == 1
        assert CrossbarMapping.for_matrix(signed, 4).planes == 2

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

    def test_per_iteration_cost_flat_in_n(self):
        """The O(n) claim: per-iteration sensing cost ≈ independent of n."""
        costs = []
        for n, m in ((32, 100), (64, 200)):
            prob = MaxCutProblem.random(n, m, seed=3)
            res = InSituCimAnnealer(prob.to_ising(), seed=1).run(200)
            adc = res.ledger.entries["adc"]
            costs.append(adc.energy / 200)
        assert costs[1] == pytest.approx(costs[0], rel=0.05)


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
