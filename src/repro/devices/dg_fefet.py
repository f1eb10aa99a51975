"""Double-gate (DG) FeFET compact model (Fig 2c/2d and Fig 6a/6b).

The DG FeFET is an FDSOI FeFET: the ferroelectric sits in the *front* gate
stack while the buried oxide couples a *back* gate (BG) to the channel.  The
BG does not disturb the ferroelectric state — it shifts the effective
threshold electrostatically:

.. math::  V_{TH}^{eff} = V_{TH}^{FE} - \\gamma\\,V_{BG},

with coupling ratio ``γ = C_BOX/(C_BOX + C_ch)``-like.  This gives the cell
its four-input product (Fig 6a):

.. math::  I_{SL} \\approx x \\cdot G \\cdot y \\cdot z,

where ``x`` (front gate, binary), ``y`` (drain line, binary) and ``z`` (back
gate, analog) are inputs and ``G`` is the stored bit.  With ``G = 0`` the
high-``V_TH`` state keeps the cell off for any in-range ``V_BG``; with
``G = 1`` the SL current follows ``V_BG`` (Fig 6b), which is exactly the knob
the in-situ annealing flow uses to realise the fractional factor ``f(T)``.
"""

from __future__ import annotations

import numpy as np

from repro.devices.constants import (
    DEFAULT_BG_COUPLING,
    DEFAULT_MEMORY_WINDOW,
    DEFAULT_READ_VDL,
    DEFAULT_READ_VFG,
    VBG_MAX,
    VBG_MIN,
)
from repro.devices.fefet import FeFET
from repro.devices.preisach import PreisachFerroelectric
from repro.devices.transistor import Transistor
from repro.utils.validation import check_in_range, check_positive


class DGFeFET(FeFET):
    """Double-gate FeFET cell.

    Parameters
    ----------
    bg_coupling:
        Back-gate coupling ratio ``γ`` (ΔV_TH per volt of ``V_BG``).
    vth_low_offset:
        Front-gate read overdrive margin: the low-``V_TH`` state is placed
        so the cell is *just* off at ``V_FG = 1 V, V_BG = 0`` and turns on
        as ``V_BG`` rises — the behaviour of Fig 6b.
    Other parameters are forwarded to :class:`FeFET`.
    """

    def __init__(
        self,
        ferroelectric: PreisachFerroelectric | None = None,
        transistor: Transistor | None = None,
        memory_window: float = DEFAULT_MEMORY_WINDOW,
        vth_mid: float | None = None,
        bg_coupling: float = DEFAULT_BG_COUPLING,
    ) -> None:
        if transistor is None:
            # The cell current scale is set so a '1' cell carries ~10 µA at
            # the top of the back-gate range (Fig 6b).
            transistor = Transistor(i0=4.4e-6)
        if vth_mid is None:
            # Place the low-V_TH state slightly above the 1 V read bias so
            # that V_BG ∈ [0, 0.7] V sweeps the cell from near-off to on.
            vth_mid = 1.08 + DEFAULT_MEMORY_WINDOW / 2.0
        super().__init__(ferroelectric, transistor, memory_window, vth_mid)
        self.bg_coupling = check_positive("bg_coupling", bg_coupling)

    # ------------------------------------------------------------------
    # Threshold with back-gate action
    # ------------------------------------------------------------------
    def effective_vth(self, v_bg: float) -> float:
        """Effective threshold seen by the front gate at back-gate ``v_bg``."""
        return self.vth - self.bg_coupling * float(v_bg)

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def sl_current(self, x_fg, y_dl, v_bg, v_read_fg: float = DEFAULT_READ_VFG,
                   v_read_dl: float = DEFAULT_READ_VDL) -> np.ndarray:
        """Source-line current of the four-input product ``x·G·y·z``.

        Parameters
        ----------
        x_fg:
            Binary front-gate input (0/1); scaled to ``v_read_fg``.
        y_dl:
            Binary drain-line input (0/1); scaled to ``v_read_dl``.
        v_bg:
            Analog back-gate voltage (volts).
        """
        x = np.asarray(x_fg, dtype=np.float64)
        y = np.asarray(y_dl, dtype=np.float64)
        if np.any((x != 0) & (x != 1)) or np.any((y != 0) & (y != 1)):
            raise ValueError("x_fg and y_dl must be binary (0/1)")
        v_g = x * v_read_fg
        v_d = y * v_read_dl
        v_th_eff = self.vth - self.bg_coupling * np.asarray(v_bg, dtype=np.float64)
        return self.transistor.drain_current(v_g, v_d, v_th_eff)

    def id_vfg(self, v_fg_values, v_bg: float, v_d: float = 0.1) -> np.ndarray:
        """``I_D-V_FG`` transfer sweep at a fixed back-gate bias (Fig 2d)."""
        v_fg = np.asarray(v_fg_values, dtype=np.float64)
        return self.transistor.drain_current(v_fg, v_d, self.effective_vth(v_bg))

    def isl_vbg(
        self, v_bg_values, v_read_fg: float = DEFAULT_READ_VFG,
        v_read_dl: float = DEFAULT_READ_VDL,
    ) -> np.ndarray:
        """``I_SL-V_BG`` transfer at full read bias (Fig 6b)."""
        v_bg = np.asarray(v_bg_values, dtype=np.float64)
        return self.transistor.drain_current(
            v_read_fg, v_read_dl, self.vth - self.bg_coupling * v_bg
        )

    def normalized_factor(self, v_bg, v_bg_max: float = VBG_MAX) -> np.ndarray:
        """Normalised ``I_SL`` used as the physical annealing factor.

        Returns ``I_SL(v_bg) / I_SL(v_bg_max)`` for a cell storing '1' at the
        standard read bias — the quantity Fig 6c matches against
        ``f(T) = 1/(−0.006·T + 5) − 0.2``.
        """
        check_in_range("v_bg_max", v_bg_max, VBG_MIN, 10.0)
        i = self.isl_vbg(np.asarray(v_bg, dtype=np.float64))
        i_max = float(self.isl_vbg(np.array([v_bg_max]))[0])
        if i_max <= 0:
            raise ValueError("cell must conduct at v_bg_max to normalise")
        return i / i_max
