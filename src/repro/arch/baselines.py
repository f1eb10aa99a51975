"""The baseline machines: direct-E FeFET CiM annealers (CiM/FPGA, CiM/ASIC).

These model the comparison targets of Sec. 4: a FeFET crossbar computes the
*full* energy ``E_new = σ_newᵀJσ_new`` every iteration — activating all
``n·k·planes`` columns and paying 8 sequential conversions per 8:1-muxed ADC
— then digital logic forms ``ΔE`` and, for uphill moves, the FPGA or ASIC
exponent unit [18] evaluates the Metropolis factor.

The algorithm itself is the classic SA of :class:`~repro.core.sa.
DirectEAnnealer`; the machine layer books the hardware activity that the
direct-E transformation implies.  (The software computes ΔE with the cheap
identity — mathematically equal to the O(n²) hardware computation — so the
solution quality is exactly what the baseline would produce.)  The array is
programmed by :func:`~repro.arch.cim_annealer.compile_cim_program` and runs
go through :meth:`~repro.arch.cim_annealer.CimMachine.run`, like the
proposed machine's; this module keeps only the baseline's counters, hook and
cost formulas.
"""

from __future__ import annotations

import numpy as np

from repro.arch.cim_annealer import CimMachine, RunCounters, compile_cim_program
from repro.arch.hardware import HardwareConfig
from repro.core.sa import DirectEAnnealer
from repro.core.schedule import Schedule
from repro.ising.model import IsingModel
from repro.utils.rng import ensure_rng


class DirectECimAnnealer(CimMachine):
    """Hardware-instrumented direct-E baseline machine.

    Parameters
    ----------
    model:
        The Ising model to solve (couplings only, as for the proposed
        machine).
    config:
        :meth:`HardwareConfig.baseline_fpga` or
        :meth:`HardwareConfig.baseline_asic` (default FPGA).
    flips_per_iteration / schedule / proposal:
        Algorithm parameters of the inner Metropolis SA.
    record_cost_trace:
        Record cumulative cost per iteration (Fig 8b/9b).
    seed:
        RNG seed.
    """

    def __init__(
        self,
        model: IsingModel,
        config: HardwareConfig | None = None,
        flips_per_iteration: int = 1,
        schedule: Schedule | None = None,
        proposal: str = "random",
        record_cost_trace: bool = False,
        record_trace: bool = False,
        seed=None,
    ) -> None:
        rng = ensure_rng(seed)
        # The monolithic behavioral array draws nothing while it is
        # programmed, so the annealer's stream is the seed's own.
        program = compile_cim_program(
            model, config=config or HardwareConfig.baseline_fpga(), seed=rng
        )
        if program.config.exponent is None:
            raise ValueError("direct-E baselines need an exponent unit")
        super().__init__(program, record_cost_trace)
        counters = self._counters = RunCounters(accepted=bool, uphill=bool)

        def book(iteration, delta_e, accepted, temperature) -> None:
            counters.accepted[iteration] = accepted
            counters.uphill[iteration] = delta_e > 0

        self._annealer = DirectEAnnealer(
            self.hw_model,
            flips_per_iteration=flips_per_iteration,
            schedule=schedule,
            proposal=proposal,
            iteration_hook=book,
            record_trace=record_trace,
            seed=rng,
        )
        # Per-iteration constants of the full-array evaluation.
        cfg = self.config
        self._conversions = self.mapping.full_activation_conversions(phases=2)
        self._slots = self.mapping.full_activation_slots(phases=2)
        self._adc_energy = self._conversions * cfg.adc.energy_per_conversion
        self._adc_time = self._slots * cfg.adc.time_per_conversion
        self._sa_energy = self._conversions * cfg.shift_add.energy_per_code
        self._settle = 2 * cfg.wire.settle_time(self.mapping.num_spins)

    def _costs(self, counters: RunCounters):
        """Ledger series and per-iteration totals of the full-array reads.

        ``exponent`` is booked only for uphill proposals, so a
        per-iteration booking creates it before ``logic`` only when the
        first proposal is uphill.
        """
        cfg = self.config
        iterations = counters.accepted.size
        uphill = counters.uphill
        # Spin-register lines toggle only when the proposal is accepted.
        driver_energy = np.where(
            counters.accepted,
            2 * self.flips_per_iteration * cfg.fg_driver.energy_per_toggle,
            0.0,
        )
        exp_energy = np.where(uphill, cfg.exponent.energy_per_eval, 0.0)
        exp_time = np.where(uphill, cfg.exponent.time_per_eval, 0.0)
        logic = (
            "logic",
            np.full(iterations, cfg.logic_energy),
            np.full(iterations, cfg.logic_time),
        )
        exponent = ("exponent", exp_energy[uphill], exp_time[uphill])
        series = [
            (
                "adc",
                np.full(iterations, self._adc_energy),
                np.full(iterations, self._adc_time),
                np.full(iterations, self._conversions),
            ),
            ("shift_add", np.full(iterations, self._sa_energy), np.zeros(iterations)),
            ("drivers", driver_energy, np.full(iterations, self._settle)),
            *((exponent, logic) if uphill[0] else (logic, exponent)),
        ]
        energy = (
            self._adc_energy + self._sa_energy + driver_energy + exp_energy
            + cfg.logic_energy
        )
        time = self._adc_time + self._settle + exp_time + cfg.logic_time
        return series, energy, time
