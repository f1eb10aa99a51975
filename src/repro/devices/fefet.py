"""Single-gate FeFET compact model (Fig 2a/2b of the paper).

A FeFET is the Preisach ferroelectric layer stacked on the MOS channel: the
remnant polarization left by a gate pulse shifts the transistor threshold,

.. math::  V_{TH} = V_{TH}^{mid} - \\frac{P}{P_s}\\,\\frac{MW}{2},

so ±saturating pulses program the low/high-``V_TH`` states whose measured
``I_D-V_G`` curves appear in Fig 2b.  Binary storage convention used by the
CiM array: ``G = 1`` ↔ low ``V_TH`` (cell conducts at the read bias),
``G = 0`` ↔ high ``V_TH`` (cell off).
"""

from __future__ import annotations

import numpy as np

from repro.devices.constants import (
    DEFAULT_MEMORY_WINDOW,
    DEFAULT_PROGRAM_VOLTAGE,
    DEFAULT_PROGRAM_WIDTH,
    DEFAULT_VTH_HIGH,
    DEFAULT_VTH_LOW,
)
from repro.devices.preisach import PreisachFerroelectric
from repro.devices.transistor import Transistor
from repro.utils.validation import check_positive


class FeFET:
    """Ferroelectric FET: Preisach FE layer + smooth MOS channel.

    Parameters
    ----------
    ferroelectric:
        The FE layer model (a default-configured one is built when ``None``).
    transistor:
        The channel model (default built when ``None``).
    memory_window:
        ``MW``: threshold separation between fully-up and fully-down
        polarization (volts).
    vth_mid:
        Threshold at zero polarization; defaults to the midpoint of the
        standard low/high states.
    """

    def __init__(
        self,
        ferroelectric: PreisachFerroelectric | None = None,
        transistor: Transistor | None = None,
        memory_window: float = DEFAULT_MEMORY_WINDOW,
        vth_mid: float | None = None,
    ) -> None:
        self.memory_window = check_positive("memory_window", memory_window)
        self.ferroelectric = ferroelectric or PreisachFerroelectric()
        # Default current scale puts the low-V_TH ON current near 1e-4 A at
        # V_G = 1.5 V, the envelope of the measured curves in Fig 2b.
        self.transistor = transistor or Transistor(i0=1.0e-6, leakage=1.0e-10)
        if vth_mid is None:
            self.vth_mid = (DEFAULT_VTH_LOW + DEFAULT_VTH_HIGH) / 2.0
        else:
            self.vth_mid = float(vth_mid)
        self.ferroelectric.reset(-1)  # start in the high-V_TH (erased) state

    # ------------------------------------------------------------------
    # Threshold state
    # ------------------------------------------------------------------
    @property
    def vth(self) -> float:
        """Current threshold voltage implied by the FE polarization."""
        p_norm = self.ferroelectric.polarization() / self.ferroelectric.saturation_polarization
        return self.vth_mid - p_norm * self.memory_window / 2.0

    @property
    def stored_bit(self) -> int:
        """Binary readout convention: 1 for low ``V_TH``, 0 for high."""
        return 1 if self.vth < self.vth_mid else 0

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def apply_gate_pulse(
        self, voltage: float, pulse_width: float = DEFAULT_PROGRAM_WIDTH
    ) -> float:
        """Apply one gate pulse; returns the new threshold voltage."""
        self.ferroelectric.apply(voltage, pulse_width)
        return self.vth

    def program_low_vth(
        self,
        voltage: float = DEFAULT_PROGRAM_VOLTAGE,
        pulse_width: float = DEFAULT_PROGRAM_WIDTH,
    ) -> float:
        """Program the low-``V_TH`` ('1') state with a positive pulse."""
        return self.apply_gate_pulse(abs(voltage), pulse_width)

    def program_high_vth(
        self,
        voltage: float = DEFAULT_PROGRAM_VOLTAGE,
        pulse_width: float = DEFAULT_PROGRAM_WIDTH,
    ) -> float:
        """Program the high-``V_TH`` ('0') state with a negative pulse."""
        return self.apply_gate_pulse(-abs(voltage), pulse_width)

    def program_bit(self, bit: int) -> float:
        """Program a binary value using the default ±4 V / 1 µs pulse."""
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        return self.program_low_vth() if bit else self.program_high_vth()

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def drain_current(self, v_g, v_d) -> np.ndarray:
        """Drain current at the current threshold state (source grounded)."""
        return self.transistor.drain_current(v_g, v_d, self.vth)

    def id_vg(self, v_g_values, v_d: float = 0.1) -> np.ndarray:
        """``I_D-V_G`` transfer sweep at fixed drain bias (Fig 2b)."""
        return np.asarray(
            self.transistor.drain_current(np.asarray(v_g_values, dtype=float), v_d, self.vth)
        )
