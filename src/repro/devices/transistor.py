"""Smooth all-region MOS transistor I-V core (EKV-style).

Both the FeFET and the DG FeFET compact models ride on the same channel
model: an EKV-flavoured interpolation that is exponential in weak inversion
(subthreshold slope ``n · φ_t · ln 10``) and quadratic in strong inversion,
with drain saturation handled through the forward/reverse current split:

.. math::
    I_D = I_0\\,[F(v_p - v_s) - F(v_p - v_d)], \\qquad
    F(u) = \\ln^2(1 + e^{u/2}),

with normalised voltages ``v = V/φ_t`` and pinch-off ``V_P=(V_G-V_TH)/n``.
This captures everything the architecture needs — ON/OFF ratio, smooth
turn-on used for the fractional-factor mapping, and saturation at the 1 V
drain-line bias — without a full BSIM implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.constants import DEFAULT_IDEALITY, THERMAL_VOLTAGE_300K
from repro.utils.validation import check_positive


def _interp(u: np.ndarray) -> np.ndarray:
    """EKV interpolation function ``F(u) = ln²(1 + e^{u/2})``, overflow-safe."""
    u = np.asarray(u, dtype=np.float64)
    # For u/2 > ~40, ln(1+e^{u/2}) == u/2 to double precision.
    half = u / 2.0
    out = np.where(half > 40.0, half, np.log1p(np.exp(np.minimum(half, 40.0))))
    return out * out


@dataclass(frozen=True)
class Transistor:
    """A minimal smooth-interpolation NFET model.

    Parameters
    ----------
    i0:
        Specific current ``I_0`` (amperes); sets the absolute current scale.
    ideality:
        Subthreshold ideality factor ``n`` (≥ 1).
    thermal_voltage:
        ``φ_t = kT/q`` in volts.
    lambda_out:
        Channel-length-modulation coefficient (1/V); adds the mild slope of
        ``I_D`` vs ``V_DS`` in saturation.
    leakage:
        OFF-state floor current at 1 V drain bias (amperes); models junction
        leakage / the measurement floor visible in Fig 2b, and is what the
        crossbar accumulates from deselected cells.
    """

    i0: float = 1.0e-7
    ideality: float = DEFAULT_IDEALITY
    thermal_voltage: float = THERMAL_VOLTAGE_300K
    lambda_out: float = 0.05
    leakage: float = 1.0e-12

    def __post_init__(self) -> None:
        check_positive("i0", self.i0)
        check_positive("thermal_voltage", self.thermal_voltage)
        if self.ideality < 1.0:
            raise ValueError(f"ideality must be >= 1, got {self.ideality}")
        check_positive("lambda_out", self.lambda_out, allow_zero=True)
        check_positive("leakage", self.leakage, allow_zero=True)

    def drain_current(self, v_gs, v_ds, v_th) -> np.ndarray:
        """Drain current for gate-source / drain-source bias and threshold.

        All arguments broadcast; the result has the broadcast shape.  Negative
        ``v_ds`` is not supported (source/drain are fixed by the cell wiring).
        """
        v_gs = np.asarray(v_gs, dtype=np.float64)
        v_ds = np.asarray(v_ds, dtype=np.float64)
        v_th = np.asarray(v_th, dtype=np.float64)
        if np.any(v_ds < 0):
            raise ValueError("v_ds must be non-negative in this model")
        phi = self.thermal_voltage
        v_p = (v_gs - v_th) / self.ideality
        forward = _interp(v_p / phi)
        reverse = _interp((v_p - v_ds) / phi)
        current = self.i0 * (forward - reverse) * (1.0 + self.lambda_out * v_ds)
        # Drain-bias-proportional OFF floor; zero at v_ds = 0 so an
        # unselected drain line draws nothing.
        return current + self.leakage * v_ds

    def subthreshold_swing(self) -> float:
        """Subthreshold swing in volts/decade (``n · φ_t · ln 10``)."""
        return self.ideality * self.thermal_voltage * np.log(10.0)

    def on_off_ratio(self, v_read: float, v_ds: float, v_th_on: float, v_th_off: float) -> float:
        """ON/OFF current ratio between two stored thresholds at a read bias."""
        i_on = float(self.drain_current(v_read, v_ds, v_th_on))
        i_off = float(self.drain_current(v_read, v_ds, v_th_off))
        if i_off <= 0:
            return np.inf
        return i_on / i_off
