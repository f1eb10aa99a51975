"""Temperature / back-gate schedules for the annealing flows.

The proposed annealer walks the back-gate voltage down a 10 mV grid
(Sec. 3.4): ``V_BG`` starts at 0.7 V, holds each level for a preset number
of iterations, and the run terminates when it reaches 0 V.  The direct-E
baselines use conventional temperature schedules (geometric by default).

All schedules map ``iteration → temperature``; the V_BG schedule also
exposes the voltage grid so the hardware machine can count DAC updates.
Each built-in schedule defines only its whole-run trace (``profile()``,
``vbg_profile()``); a scalar read indexes one evaluation of that trace,
cached on the schedule, so the two can never disagree.
"""

from __future__ import annotations

import numpy as np

from repro.core.factors import FractionalFactor
from repro.devices.constants import VBG_MAX, VBG_MIN, VBG_STEP
from repro.utils.validation import check_count, check_index, check_iterations, check_positive


class Schedule:
    """Base interface: a temperature per iteration over a fixed length.

    A subclass defines ``profile()``, the whole trace, as every built-in
    schedule does, or only ``temperature(iteration)``; each falls back on
    the other.
    """

    _temperatures: np.ndarray | None = None

    def __init__(self, iterations: int) -> None:
        self.iterations = check_iterations(iterations)

    def _check(self, iteration: int) -> int:
        return check_index("iteration", iteration, self.iterations)

    def temperature(self, iteration: int) -> float:
        """Temperature at a (0-based) iteration index.

        Indexes one ``profile()`` evaluation, cached on the schedule: O(1)
        after the first read, and equal to the trace the engines read.
        """
        iteration = self._check(iteration)
        if self._temperatures is None:
            self._temperatures = self.profile()
        return float(self._temperatures[iteration])

    def profile(self) -> np.ndarray:
        """The full temperature trace, length ``iterations``.

        This fallback loops over ``temperature()``, for subclasses that
        define only that.
        """
        if type(self).temperature is Schedule.temperature:
            raise NotImplementedError("a schedule defines profile() or temperature()")
        return np.array([self.temperature(i) for i in range(self.iterations)])


class ConstantSchedule(Schedule):
    """Fixed temperature — useful for equilibrium tests."""

    def __init__(self, iterations: int, temperature: float) -> None:
        super().__init__(iterations)
        self._t = check_positive("temperature", temperature, allow_zero=True)

    def profile(self) -> np.ndarray:
        return np.full(self.iterations, self._t)


class GeometricSchedule(Schedule):
    """Classic SA cooling ``T_i = T_0 · α^i`` clipped below at ``t_end``."""

    def __init__(
        self, iterations: int, t_start: float, t_end: float, alpha: float | None = None
    ) -> None:
        super().__init__(iterations)
        self.t_start = check_positive("t_start", t_start)
        self.t_end = check_positive("t_end", t_end)
        if self.t_end > self.t_start:
            raise ValueError("t_end must not exceed t_start")
        if alpha is None:
            # Reach t_end exactly on the final iteration.
            span = max(self.iterations - 1, 1)
            alpha = (self.t_end / self.t_start) ** (1.0 / span)
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)

    def profile(self) -> np.ndarray:
        powers = self.alpha ** np.arange(self.iterations)
        return np.maximum(self.t_start * powers, self.t_end)


class LinearSchedule(Schedule):
    """Linear ramp from ``t_start`` down to ``t_end``."""

    def __init__(self, iterations: int, t_start: float, t_end: float = 0.0) -> None:
        super().__init__(iterations)
        self.t_start = check_positive("t_start", t_start, allow_zero=True)
        self.t_end = check_positive("t_end", t_end, allow_zero=True)
        if self.t_start < self.t_end:
            raise ValueError("t_start must be >= t_end")

    def profile(self) -> np.ndarray:
        if self.iterations == 1:
            return np.array([self.t_start])
        frac = np.arange(self.iterations) / (self.iterations - 1)
        return self.t_start + (self.t_end - self.t_start) * frac


class VbgStepSchedule(Schedule):
    """The paper's tunable-BG schedule (Sec. 3.4).

    ``V_BG`` starts at ``v_start`` and steps down by ``step`` after every
    ``hold`` iterations ("T decreases only after a pre-set number of
    iterations"); once it reaches ``v_end`` it stays there for the remainder
    ("once V_BG reaches 0 V it remains at zero, terminating the annealing").
    Temperatures are recovered through the factor's linear V_BG ↔ T map.

    Parameters
    ----------
    iterations:
        Total annealing iterations.
    factor:
        The fractional factor providing the V_BG ↔ T correspondence.
    v_start / v_end / step:
        Grid walk parameters (defaults: 0.7 V → 0 V in 10 mV steps).
    hold:
        Iterations per level; default spreads the full walk evenly over the
        run so the last level is reached at the end.  When the run is
        shorter than the grid (``iterations < num_levels``) the default
        compresses the grid instead — ``iterations`` evenly spaced levels
        with the final one pinned to ``v_end`` — so every run, however
        short, still terminates at the terminal voltage as the paper's
        schedule contract requires ("terminates when V_BG reaches 0 V").
        An explicit ``hold`` (a count) takes the walk as given and may
        truncate.
    """

    _vbgs: np.ndarray | None = None

    def __init__(
        self,
        iterations: int,
        factor: FractionalFactor | None = None,
        v_start: float = VBG_MAX,
        v_end: float = VBG_MIN,
        step: float = VBG_STEP,
        hold: int | None = None,
    ) -> None:
        super().__init__(iterations)
        self.step = check_positive("step", step)
        if not v_end <= v_start:
            raise ValueError("v_start must be >= v_end")
        self.factor = factor or FractionalFactor()
        self.v_start = float(v_start)
        self.v_end = float(v_end)
        levels = int(round((self.v_start - self.v_end) / self.step)) + 1
        self.num_levels = max(levels, 1)
        if hold is None:
            if self.iterations < self.num_levels:
                # The walk cannot fit one iteration per grid level.  The
                # old default (hold = max(1, iterations // num_levels) = 1)
                # silently truncated the walk partway down, so a short run
                # never reached v_end.  Compress the grid instead: one
                # level per iteration, step scaled so the final level lands
                # exactly on v_end (a 1-iteration run sits at v_end).
                self.num_levels = self.iterations
                if self.num_levels > 1:
                    self.step = (self.v_start - self.v_end) / (self.num_levels - 1)
                else:
                    self.v_start = self.v_end
                hold = 1
            else:
                hold = self.iterations // self.num_levels
        self.hold = check_count("hold", hold)

    def vbg(self, iteration: int) -> float:
        """Back-gate voltage at a (0-based) iteration.

        Indexes one cached :meth:`vbg_profile` evaluation, as
        :meth:`~Schedule.temperature` indexes ``profile()``.
        """
        iteration = self._check(iteration)
        if self._vbgs is None:
            self._vbgs = self.vbg_profile()
        return float(self._vbgs[iteration])

    def vbg_profile(self) -> np.ndarray:
        """Full V_BG trace, length ``iterations``: the level walk, clamped."""
        level = np.minimum(
            np.arange(self.iterations) // self.hold, self.num_levels - 1
        )
        return np.maximum(self.v_start - level * self.step, self.v_end)

    def profile(self) -> np.ndarray:
        return np.asarray(
            self.factor.temperature_for_vbg(self.vbg_profile()), dtype=np.float64
        )

    def dac_updates(self) -> int:
        """Number of BG rail reprogrammings over the run (level changes)."""
        profile = self.vbg_profile()
        return int(np.count_nonzero(np.diff(profile))) + 1  # +1 initial set


class ReverseVbgSchedule(VbgStepSchedule):
    """Metropolis-consistent variant: ``V_BG`` walks *up* from 0 V to 0.7 V.

    Under the published acceptance rule (reject uphill when
    ``E_inc > rand``), a rising factor suppresses uphill moves over time —
    matching conventional cooling.  Provided for the schedule-direction
    ablation (see DESIGN.md §2).
    """

    def vbg_profile(self) -> np.ndarray:
        level = np.minimum(
            np.arange(self.iterations) // self.hold, self.num_levels - 1
        )
        return np.minimum(self.v_end + level * self.step, self.v_start)
