"""Preisach model of the ferroelectric layer (ref [35] substitution).

The ferroelectric film is described as a population of elementary hysterons:
bistable dipoles that switch *up* when the applied voltage exceeds their
up-threshold ``α`` and *down* below their down-threshold ``β`` (``β < α``).
The normalised polarization is the density-weighted mean of hysteron states.
A Gaussian density centred on ``(+V_c, -V_c)`` reproduces the measured-like
major loop; minor loops, saturation and return-point memory come for free
from the hysteron mechanics (and are verified by the property tests).

A simple nucleation-limited-switching (NLS) knob is included: shorter
programming pulses shift the effective thresholds outward by
``kt · log10(t_ref / t_pulse)``, so sub-reference pulses program less
polarization — enough time dependence for the architecture studies here.
"""

from __future__ import annotations

import numpy as np

from repro.devices.constants import (
    DEFAULT_COERCIVE_SIGMA,
    DEFAULT_COERCIVE_VOLTAGE,
    DEFAULT_PROGRAM_WIDTH,
    SATURATION_POLARIZATION,
)
from repro.utils.validation import check_count, check_positive


class PreisachFerroelectric:
    """Hysteron-grid Preisach model of a ferroelectric capacitor.

    Parameters
    ----------
    coercive_voltage:
        Centre ``V_c`` of the hysteron threshold distribution (volts).
    sigma:
        Standard deviation of the threshold distribution (volts).
    grid_points:
        Number of grid points per threshold axis (the Preisach plane is
        discretised on a ``grid_points × grid_points`` triangle).
    v_span:
        Half-width of the modelled threshold range; thresholds live in
        ``[-v_span, +v_span]``.
    saturation_polarization:
        Normalisation of the output polarization (1.0 → P/P_s).
    nls_kt:
        Pulse-width acceleration coefficient (volts per decade); 0 disables
        the time dependence.
    reference_pulse_width:
        Pulse width at which thresholds are exactly the static ones.
    """

    def __init__(
        self,
        coercive_voltage: float = DEFAULT_COERCIVE_VOLTAGE,
        sigma: float = DEFAULT_COERCIVE_SIGMA,
        grid_points: int = 64,
        v_span: float = 6.0,
        saturation_polarization: float = SATURATION_POLARIZATION,
        nls_kt: float = 0.25,
        reference_pulse_width: float = DEFAULT_PROGRAM_WIDTH,
    ) -> None:
        self.coercive_voltage = check_positive("coercive_voltage", coercive_voltage)
        self.sigma = check_positive("sigma", sigma)
        self.v_span = check_positive("v_span", v_span)
        self.saturation_polarization = check_positive(
            "saturation_polarization", saturation_polarization
        )
        self.reference_pulse_width = check_positive("reference_pulse_width", reference_pulse_width)
        self.grid_points = check_count(
            "grid_points", grid_points, minimum=8,
            hint="the Preisach triangle needs an 8-point grid or finer",
        )
        self.nls_kt = check_positive("nls_kt", nls_kt, allow_zero=True)

        axis = np.linspace(-self.v_span, self.v_span, self.grid_points)
        alpha, beta = np.meshgrid(axis, axis, indexing="ij")
        valid = alpha > beta  # Preisach triangle: up-threshold above down.
        weight = np.exp(
            -((alpha - self.coercive_voltage) ** 2 + (beta + self.coercive_voltage) ** 2)
            / (2.0 * self.sigma**2)
        )
        weight = np.where(valid, weight, 0.0)
        total = weight.sum()
        if total <= 0:
            raise ValueError("empty hysteron density; check sigma / v_span")
        self._alpha = alpha[valid]
        self._beta = beta[valid]
        self._weight = (weight[valid] / total).astype(np.float64)
        self._state = np.full(self._alpha.shape, -1.0)
        self._history: list[float] = []

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def history(self) -> list[float]:
        """Voltages applied so far (most recent last)."""
        return list(self._history)

    def reset(self, polarization_sign: int = -1) -> None:
        """Saturate the film down (−1, default) or up (+1) and clear history."""
        if polarization_sign not in (-1, 1):
            raise ValueError("polarization_sign must be ±1")
        self._state[:] = float(polarization_sign)
        self._history.clear()

    def polarization(self) -> float:
        """Current normalised polarization ``P ∈ [-P_s, +P_s]``."""
        return float(self.saturation_polarization * (self._weight @ self._state))

    # ------------------------------------------------------------------
    # Excitation
    # ------------------------------------------------------------------
    def _effective_shift(self, pulse_width: float) -> float:
        """NLS threshold shift for a given pulse width (0 at the reference)."""
        if self.nls_kt == 0.0:
            return 0.0
        check_positive("pulse_width", pulse_width)
        return self.nls_kt * np.log10(self.reference_pulse_width / pulse_width)

    def apply(self, voltage: float, pulse_width: float | None = None) -> float:
        """Apply one voltage pulse and return the resulting polarization.

        Hysterons whose up-threshold lies below the (NLS-adjusted) voltage
        switch up; those whose down-threshold lies above it switch down.
        """
        v = float(voltage)
        shift = 0.0 if pulse_width is None else self._effective_shift(pulse_width)
        self._state[self._alpha <= v - shift] = 1.0
        self._state[self._beta >= v + shift] = -1.0
        self._history.append(v)
        return self.polarization()

    def apply_waveform(self, voltages, pulse_width: float | None = None) -> np.ndarray:
        """Apply a sequence of pulses; returns the polarization after each."""
        return np.array([self.apply(v, pulse_width) for v in np.asarray(voltages, dtype=float)])

    # ------------------------------------------------------------------
    # Characterisation helpers
    # ------------------------------------------------------------------
    def major_loop(self, v_max: float = 4.0, points: int = 81) -> tuple[np.ndarray, np.ndarray]:
        """Trace the saturated major hysteresis loop.

        Sweeps ``+v_max → −v_max → +v_max`` after positive saturation and
        returns ``(voltages, polarizations)``.  Leaves the film wherever the
        sweep ends (callers wanting a clean state should :meth:`reset`).
        """
        check_positive("v_max", v_max)
        if points < 3:
            raise ValueError("points must be >= 3")
        down = np.linspace(v_max, -v_max, points)
        up = np.linspace(-v_max, v_max, points)
        self.reset(-1)
        self.apply(v_max)
        p_down = self.apply_waveform(down)
        p_up = self.apply_waveform(up)
        return np.concatenate([down, up]), np.concatenate([p_down, p_up])

    def remnant_after_pulse(self, voltage: float, pulse_width: float | None = None) -> float:
        """Remnant polarization after saturating down then pulsing once.

        This is the quantity a program pulse leaves behind, i.e. what sets the
        FeFET threshold state.
        """
        self.reset(-1)
        self.apply(voltage, pulse_width)
        return self.polarization()
