"""Annealing factors: the paper's fractional ``f(T)`` and the baselines' ``e^x``.

The direct-E annealers accept an uphill move with the Metropolis probability
``exp(−ΔE/T)``.  The paper replaces that with the first-order surrogate
(Eq. 10-11): the hardware senses ``E_inc = σ_rᵀJσ_c · f(T)`` and accepts when
``E_inc ≤ rand(0,1)``, with the *fractional factor*

.. math::  f(T) = \\frac{a}{b\\,T + c} + d,

whose published parameterisation is ``a=1, b=−0.006, c=5, d=−0.2`` (Fig 6c),
rising from ``f(0) = 0`` to ``f ≈ 1`` at the top of the temperature range.
``f`` is realised physically as the normalised DG FeFET SL current, with the
temperature encoder mapping ``T`` onto the back-gate voltage grid
(``V_BG ∈ [0, 0.7] V``, 10 mV steps) — :class:`VbgEncoder` builds that
lookup against any cell/crossbar transfer curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.constants import VBG_MAX, VBG_MIN, VBG_STEP
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class FractionalFactor:
    """The fractional annealing factor ``f(T) = a/(bT + c) + d``.

    Defaults are the paper's published fit.  The factor must satisfy the
    paper's two constraints on the temperature range ``[0, t_max]``:
    (i) ``f(T) ≥ 0`` and (ii) ``f`` monotonically increasing in ``T``.
    """

    a: float = 1.0
    b: float = -0.006
    c: float = 5.0
    d: float = -0.2

    def __post_init__(self) -> None:
        if self.a == 0.0:
            raise ValueError("parameter a must be non-zero")
        if self.c == 0.0:
            raise ValueError("parameter c must be non-zero")
        t_max = self.t_max
        if not np.isfinite(t_max) or t_max <= 0:
            raise ValueError("factor never reaches 1; check parameters")
        grid = self.value(np.linspace(0.0, t_max, 64))
        if np.any(grid < -1e-9):
            raise ValueError("f(T) must be non-negative on [0, t_max]")
        if np.any(np.diff(grid) < -1e-9):
            raise ValueError("f(T) must be non-decreasing on [0, t_max]")

    @property
    def t_max(self) -> float:
        """Temperature at which ``f`` reaches 1 (top of the paper's range).

        Solves ``a/(b·t + c) + d = 1``; with the published parameters this is
        ``≈ 694``, the value mapped onto ``V_BG = 0.7 V``.
        """
        denom = self.a / (1.0 - self.d)
        return (denom - self.c) / self.b

    def value(self, temperature) -> np.ndarray:
        """Evaluate ``f(T)`` (clamped below at 0, as currents cannot go negative)."""
        t = np.asarray(temperature, dtype=np.float64)
        raw = self.a / (self.b * t + self.c) + self.d
        return np.maximum(raw, 0.0)

    def vbg_for_temperature(self, temperature) -> np.ndarray:
        """Linear temperature → back-gate mapping of Sec. 3.4.

        ``T ∈ [0, t_max]`` maps onto ``V_BG ∈ [V_MIN, V_MAX]``, before any
        encoder snapping to the 10 mV grid.
        """
        t = np.asarray(temperature, dtype=np.float64)
        frac = np.clip(t / self.t_max, 0.0, 1.0)
        return VBG_MIN + frac * (VBG_MAX - VBG_MIN)

    def temperature_for_vbg(self, v_bg) -> np.ndarray:
        """Inverse of :meth:`vbg_for_temperature`."""
        v = np.asarray(v_bg, dtype=np.float64)
        frac = np.clip((v - VBG_MIN) / (VBG_MAX - VBG_MIN), 0.0, 1.0)
        return frac * self.t_max


@dataclass(frozen=True)
class ExponentialFactor:
    """The Metropolis acceptance factor ``exp(−ΔE/T)`` of the baselines."""

    floor_temperature: float = 1e-12

    def acceptance(self, delta_e, temperature) -> np.ndarray:
        """Acceptance probability for an energy increase at temperature T."""
        d = np.asarray(delta_e, dtype=np.float64)
        t = max(float(temperature), self.floor_temperature)
        return np.where(d <= 0.0, 1.0, np.exp(-np.maximum(d, 0.0) / t))

    def first_order(self, delta_e, temperature) -> np.ndarray:
        """The paper's linearisation ``1 − ΔE/T`` (Eq. 10), clipped to [0, 1]."""
        d = np.asarray(delta_e, dtype=np.float64)
        t = max(float(temperature), self.floor_temperature)
        return np.clip(1.0 - d / t, 0.0, 1.0)


def fit_fractional_factor(
    temperatures, targets, initial: FractionalFactor | None = None
) -> FractionalFactor:
    """Least-squares fit of ``a, b, c, d`` to target factor values.

    Used to re-derive the published parameters from the DG FeFET transfer
    curve (bench Fig 6c) and for the factor-parameter ablation.  scipy is
    imported here, not at module level, so importing the package stays
    cheap for every caller that never fits.
    """
    from scipy.optimize import least_squares

    t = np.asarray(temperatures, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if t.shape != y.shape or t.size < 4:
        raise ValueError("need matching arrays with at least 4 samples")
    guess = initial or FractionalFactor()
    x0 = np.array([guess.a, guess.b, guess.c, guess.d])

    def residual(params):
        a, b, c, d = params
        denom = b * t + c
        if np.any(np.abs(denom) < 1e-9):
            return np.full_like(t, 1e6)
        return a / denom + d - y

    fit = least_squares(residual, x0)
    a, b, c, d = fit.x
    return FractionalFactor(a=float(a), b=float(b), c=float(c), d=float(d))


class VbgEncoder:
    """The temperature encoder: T → quantised ``V_BG`` level (Fig 3c).

    Given the physical normalised transfer curve ``g(V_BG)`` of a '1' cell
    (``crossbar.factor`` or ``cell.normalized_factor``), the encoder picks,
    for each temperature, the 10 mV grid level whose ``g`` best matches the
    requested ``f(T)`` — i.e. it *inverts the device curve*, which is how the
    BG encoder mates the analytic factor to the array's real current.

    Parameters
    ----------
    factor:
        The analytic :class:`FractionalFactor` to realise.
    transfer:
        Callable ``g(v_bg) → normalised current``; identity-like default
        uses the factor's own linear V_BG map (ideal encoder).
    step / v_min / v_max:
        The DAC grid (defaults: the paper's 0 → 0.7 V, 10 mV).
    """

    def __init__(
        self,
        factor: FractionalFactor,
        transfer=None,
        step: float = VBG_STEP,
        v_min: float = VBG_MIN,
        v_max: float = VBG_MAX,
    ) -> None:
        check_positive("step", step)
        if v_max <= v_min:
            raise ValueError("v_max must exceed v_min")
        self.factor = factor
        self.levels = np.arange(v_min, v_max + step / 2.0, step)
        if transfer is None:
            # Ideal encoder: the linear map back through f itself.
            self._transfer_values = factor.value(factor.temperature_for_vbg(self.levels))
        else:
            self._transfer_values = np.array([float(transfer(v)) for v in self.levels])
        if np.any(np.diff(self._transfer_values) < -1e-6):
            raise ValueError("transfer curve must be non-decreasing in V_BG")

    @property
    def num_levels(self) -> int:
        """Number of grid levels (71 for the paper's range)."""
        return self.levels.size

    def _nearest_level(self, temperature) -> np.ndarray:
        """Per ``T``, the first grid index whose transfer best matches ``f(T)``."""
        target = self.factor.value(temperature)
        return np.argmin(np.abs(self._transfer_values - target[..., None]), axis=-1)

    def encode(self, temperature: float) -> float:
        """Grid ``V_BG`` whose transfer value best matches ``f(T)``."""
        return float(self.levels[self._nearest_level(float(temperature))])

    def realized_factor(self, temperature):
        """The factor value actually produced at the encoded level.

        A scalar gives a float; an array gives an array of its shape whose
        entries are byte-equal to the scalar calls.
        """
        realized = self._transfer_values[self._nearest_level(temperature)]
        return float(realized) if realized.ndim == 0 else realized

    def encoding_error(self, temperatures) -> np.ndarray:
        """|realised − requested| factor error over a temperature grid."""
        t = np.atleast_1d(np.asarray(temperatures, dtype=np.float64))
        return np.abs(self.realized_factor(t) - self.factor.value(t))
