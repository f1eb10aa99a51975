"""Hardware configuration: the calibrated 22 nm component-cost set.

Groups every peripheral model with the digital-logic constants, and provides
the three named configurations of the paper's comparison:

* :meth:`HardwareConfig.proposed` — the DG FeFET in-situ annealer (no
  exponent unit; incremental sensing),
* :meth:`HardwareConfig.baseline_fpga` / :meth:`HardwareConfig.baseline_asic`
  — FeFET-CiM direct-E annealers with the FPGA / ASIC ``e^x`` hardware of
  ref [18].

Calibration rationale (see DESIGN.md §6): the direct-E machines sense the
full array every iteration (2 row-sign phases × n·k columns, 8 sequential
conversions through each 8:1 mux) while the proposed machine senses only the
flipped element groups (2 phases × |F|·k conversions, one slot).  With the
[36] SAR at 0.25 pJ / 25 ns per conversion and the [18] exponent costs,
these formulas land the paper's reported reduction bands (≈ 401-732× at
n=800 rising to ≈ 1503-1716× at n=3000 for energy; ≈ 8× for time).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.circuits.adc import SarAdc
from repro.circuits.drivers import BackGateDac, LineDriver
from repro.circuits.exponent_unit import ExponentUnit
from repro.circuits.interconnect import WireModel
from repro.circuits.shift_add import ShiftAddUnit
from repro.utils.units import NANO, PICO
from repro.utils.validation import check_count, check_positive


@dataclass(frozen=True)
class HardwareConfig:
    """Component set + digital constants of one annealer machine.

    Parameters
    ----------
    adc / fg_driver / dl_driver / bg_dac / shift_add / wire:
        Peripheral component models.
    exponent:
        The ``e^x`` unit (``None`` for the proposed design, which needs none).
    quantization_bits:
        ``k``, crossbar bits per matrix element.
    logic_energy / logic_time:
        Per-iteration controller cost (spin update, accept compare, RNG).
    label:
        Display name used in benches and tables.
    """

    adc: SarAdc = field(default_factory=SarAdc)
    fg_driver: LineDriver = field(default_factory=LineDriver)
    dl_driver: LineDriver = field(default_factory=LineDriver)
    bg_dac: BackGateDac = field(default_factory=BackGateDac)
    shift_add: ShiftAddUnit = field(default_factory=ShiftAddUnit)
    wire: WireModel = field(default_factory=WireModel)
    exponent: ExponentUnit | None = None
    quantization_bits: int = 4
    logic_energy: float = 2.1 * PICO
    logic_time: float = 1.0 * NANO
    label: str = "hardware"

    def __post_init__(self) -> None:
        check_count("quantization_bits", self.quantization_bits, maximum=16)
        check_positive("logic_energy", self.logic_energy)
        check_positive("logic_time", self.logic_time)

    # ------------------------------------------------------------------
    # Named configurations
    # ------------------------------------------------------------------
    @classmethod
    def proposed(cls, **overrides) -> "HardwareConfig":
        """The DG FeFET CiM in-situ annealer (this work)."""
        return cls(label="This work (DG FeFET CiM in-situ)", **overrides)

    @classmethod
    def baseline_fpga(cls, **overrides) -> "HardwareConfig":
        """FeFET-CiM direct-E annealer + FPGA exponent unit ("CiM/FPGA")."""
        defaults = dict(
            exponent=ExponentUnit.fpga(),
            logic_energy=5.0 * PICO,
            logic_time=2.0 * NANO,
            label="CiM/FPGA baseline",
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def baseline_asic(cls, **overrides) -> "HardwareConfig":
        """FeFET-CiM direct-E annealer + ASIC exponent unit ("CiM/ASIC")."""
        defaults = dict(
            exponent=ExponentUnit.asic(),
            logic_energy=5.0 * PICO,
            logic_time=2.0 * NANO,
            label="CiM/ASIC baseline",
        )
        defaults.update(overrides)
        return cls(**defaults)

    def with_adc(self, adc: SarAdc) -> "HardwareConfig":
        """Copy of this config with a different ADC (used by ablations)."""
        return replace(self, adc=adc)
