"""Crossbar wiring parasitics (DESTINY-style analytical RC substitution).

The paper extracts wiring parasitics with DESTINY [37]; here an analytical
distributed-RC model supplies the two effects that matter at the
architecture level:

* **settling time** of an array activation, which grows with the physical
  line length (≈ ``0.38·R_total·C_total`` for a distributed line, Elmore);
* **IR-drop attenuation** of summed column currents, which compresses large
  many-row sums slightly and is applied by the device-accurate crossbar
  backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.units import FEMTO
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class WireModel:
    """Per-cell-pitch RC parameters of the crossbar lines (22 nm class).

    Parameters
    ----------
    resistance_per_cell:
        Ohms of line resistance per cell pitch.
    capacitance_per_cell:
        Farads of line capacitance per cell pitch.
    ir_drop_coefficient:
        Sensitivity of the current loss to the SL voltage drop (1/volt):
        ``loss_fraction = coeff · I_column · R_line``.  A small-signal
        stand-in for the SL IR drop.
    """

    resistance_per_cell: float = 2.5
    capacitance_per_cell: float = 0.08 * FEMTO
    ir_drop_coefficient: float = 0.5

    def __post_init__(self) -> None:
        check_positive("resistance_per_cell", self.resistance_per_cell)
        check_positive("capacitance_per_cell", self.capacitance_per_cell)
        check_positive("ir_drop_coefficient", self.ir_drop_coefficient, allow_zero=True)

    def line_resistance(self, cells: int) -> float:
        """Total line resistance across ``cells`` pitches."""
        if cells < 0:
            raise ValueError("cells must be >= 0")
        return self.resistance_per_cell * cells

    def line_capacitance(self, cells: int) -> float:
        """Total line capacitance across ``cells`` pitches."""
        if cells < 0:
            raise ValueError("cells must be >= 0")
        return self.capacitance_per_cell * cells

    def settle_time(self, cells: int) -> float:
        """Elmore settling time of a distributed line spanning ``cells``."""
        return 0.38 * self.line_resistance(cells) * self.line_capacitance(cells)

    def attenuation(self, column_current: np.ndarray, rows: int) -> np.ndarray:
        """Apply SL IR-drop compression to summed column currents.

        The loss grows with both the current magnitude and the line length;
        coefficients keep it at the few-percent level for the arrays studied
        here (the paper's robustness claim relies on it staying benign).
        """
        i = np.asarray(column_current, dtype=np.float64)
        loss = self.ir_drop_coefficient * self.line_resistance(rows) * i
        factor = np.clip(1.0 - loss, 0.8, 1.0)
        return i * factor
