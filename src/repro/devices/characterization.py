"""Device characterisation: figure-of-merit extraction, retention, endurance.

Extends the compact models with the standard measurements a device paper
reports (and that the DAC paper leaves implicit):

* :func:`extract_metrics` — memory window, ON/OFF ratio, subthreshold swing
  from transfer-curve sweeps;
* :class:`RetentionModel` — thermally-activated depolarisation: the remnant
  polarization (and hence the stored weight) relaxes as a stretched
  exponential over log-time;
* :class:`EnduranceModel` — wake-up / fatigue over program cycles: the
  memory window first grows slightly (wake-up), then closes (fatigue),
  following the usual log-cycle phenomenology.

The variability ablation answers "does annealing survive a noisy array?";
the retention/endurance bench answers "for how long / how many reprograms".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.fefet import FeFET
from repro.utils.validation import check_count, check_positive


@dataclass(frozen=True)
class DeviceMetrics:
    """Extracted figures of merit of a programmed FeFET."""

    memory_window: float
    on_off_ratio: float
    subthreshold_swing: float
    on_current: float
    off_current: float


def extract_metrics(
    fefet: FeFET,
    v_read: float = 0.5,
    v_drain: float = 0.1,
) -> DeviceMetrics:
    """Measure the standard figures of merit from programmed states.

    Programs the device to '1' and '0' (leaving it in the '0' state),
    reads both states at ``v_read`` and extracts the swing from the
    low-``V_TH`` subthreshold region.
    """
    fefet.program_bit(1)
    vth_on = fefet.vth
    i_on = float(fefet.drain_current(v_read, v_drain))
    # Subthreshold swing measured two decades below threshold.
    v1, v2 = vth_on - 0.15, vth_on - 0.05
    i1 = float(fefet.drain_current(v1, v_drain))
    i2 = float(fefet.drain_current(v2, v_drain))
    swing = (v2 - v1) / np.log10(i2 / i1) if i2 > i1 > 0 else np.inf

    fefet.program_bit(0)
    vth_off = fefet.vth
    i_off = float(fefet.drain_current(v_read, v_drain))
    return DeviceMetrics(
        memory_window=vth_off - vth_on,
        on_off_ratio=i_on / i_off if i_off > 0 else np.inf,
        subthreshold_swing=float(swing),
        on_current=i_on,
        off_current=i_off,
    )


@dataclass(frozen=True)
class RetentionModel:
    """Stretched-exponential polarization retention.

    ``P(t) = P0 · exp(−(t/τ)^β)`` — the standard HfO₂ FeFET phenomenology;
    with the default ten-year-scale ``τ`` the stored window stays open past
    10⁸ s, matching reported extrapolations.

    Parameters
    ----------
    tau:
        Characteristic relaxation time (seconds).
    beta:
        Stretching exponent in (0, 1].
    """

    tau: float = 3.0e10
    beta: float = 0.25

    def __post_init__(self) -> None:
        check_positive("tau", self.tau)
        if not 0 < self.beta <= 1:
            raise ValueError("beta must be in (0, 1]")

    def polarization_fraction(self, elapsed_seconds) -> np.ndarray:
        """Remaining fraction ``P(t)/P0`` (1 at t = 0, decaying)."""
        t = np.asarray(elapsed_seconds, dtype=np.float64)
        if np.any(t < 0):
            raise ValueError("elapsed time must be >= 0")
        return np.exp(-((t / self.tau) ** self.beta))

    def window_after(self, memory_window: float, elapsed_seconds: float) -> float:
        """Memory window remaining after ``elapsed_seconds``."""
        return memory_window * float(self.polarization_fraction(elapsed_seconds))

    def time_to_fraction(self, fraction: float) -> float:
        """Time at which the polarization decays to ``fraction`` of P0."""
        if not 0 < fraction < 1:
            raise ValueError("fraction must be in (0, 1)")
        return self.tau * (-np.log(fraction)) ** (1.0 / self.beta)


@dataclass(frozen=True)
class EnduranceModel:
    """Wake-up / fatigue of the memory window over program cycles.

    ``MW(N) = MW0 · (1 + w·log10(N+1)) · exp(−(N/N_f)^p)`` — a small
    logarithmic wake-up enhancement followed by fatigue closure around the
    ``N_f`` cycle count (defaults give ~10⁹-cycle-scale endurance, typical
    for reported HfO₂ FeFETs at moderate fields).

    Parameters
    ----------
    wake_up_strength:
        Window gain per decade during wake-up.
    fatigue_cycles:
        Cycle count where fatigue closure sets in.
    fatigue_power:
        Sharpness of the closure.
    """

    wake_up_strength: float = 0.02
    fatigue_cycles: float = 1.0e9
    fatigue_power: float = 0.6

    def __post_init__(self) -> None:
        check_positive("wake_up_strength", self.wake_up_strength, allow_zero=True)
        check_positive("fatigue_cycles", self.fatigue_cycles)
        check_positive("fatigue_power", self.fatigue_power)

    def window_fraction(self, cycles) -> np.ndarray:
        """``MW(N)/MW0`` over program/erase cycle counts."""
        n = np.asarray(cycles, dtype=np.float64)
        if np.any(n < 0):
            raise ValueError("cycles must be >= 0")
        wake_up = 1.0 + self.wake_up_strength * np.log10(n + 1.0)
        fatigue = np.exp(-((n / self.fatigue_cycles) ** self.fatigue_power))
        return wake_up * fatigue

    def cycles_to_fraction(self, fraction: float) -> float:
        """First cycle count where the window falls below ``fraction``.

        Solved numerically on a log grid (the wake-up bump makes the curve
        non-monotone, so closed forms don't apply).
        """
        if not 0 < fraction < 1:
            raise ValueError("fraction must be in (0, 1)")
        grid = np.logspace(0, 14, 2000)
        values = self.window_fraction(grid)
        below = np.flatnonzero(values < fraction)
        if below.size == 0:
            return float("inf")
        return float(grid[below[0]])


def annealing_runs_per_lifetime(
    endurance: EnduranceModel,
    window_fraction_limit: float = 0.5,
    reprograms_per_run: int = 1,
) -> float:
    """How many problem reprograms fit within the array's endurance.

    The in-situ annealer programs the array once per *problem* (reads are
    non-destructive); the array therefore survives roughly
    ``cycles_to_fraction(limit)`` problem loads.
    """
    runs = check_count("reprograms_per_run", reprograms_per_run)
    return endurance.cycles_to_fraction(window_fraction_limit) / runs
