"""Tests for temperature / back-gate schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ConstantSchedule,
    FractionalFactor,
    GeometricSchedule,
    LinearSchedule,
    ReverseVbgSchedule,
    Schedule,
    VbgStepSchedule,
)


class TestGeometric:
    def test_endpoints(self):
        s = GeometricSchedule(100, 10.0, 0.1)
        assert s.temperature(0) == pytest.approx(10.0)
        assert s.temperature(99) == pytest.approx(0.1, rel=1e-6)

    def test_monotone_decreasing(self):
        s = GeometricSchedule(50, 5.0, 0.5)
        profile = s.profile()
        assert np.all(np.diff(profile) <= 0)

    def test_clipped_at_t_end(self):
        s = GeometricSchedule(100, 10.0, 1.0, alpha=0.5)
        assert s.temperature(99) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricSchedule(10, 1.0, 2.0)  # t_end > t_start
        with pytest.raises(ValueError):
            GeometricSchedule(10, 1.0, 0.1, alpha=1.5)
        with pytest.raises(IndexError):
            GeometricSchedule(10, 1.0, 0.1).temperature(10)


class TestLinearConstant:
    def test_linear_ramp(self):
        s = LinearSchedule(11, 10.0, 0.0)
        assert s.temperature(0) == 10.0
        assert s.temperature(10) == 0.0
        assert s.temperature(5) == pytest.approx(5.0)

    def test_constant(self):
        s = ConstantSchedule(5, 3.0)
        assert all(s.temperature(i) == 3.0 for i in range(5))

    def test_single_iteration_linear(self):
        assert LinearSchedule(1, 2.0).temperature(0) == 2.0


class TestNonFiniteTemperatures:
    """Every schedule refuses a NaN or infinite temperature, naming it.

    Before, ``GeometricSchedule`` failed later on its derived ``alpha``
    and ``ConstantSchedule`` / ``LinearSchedule`` returned NaN profiles.
    """

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constant(self, bad):
        with pytest.raises(ValueError, match="^temperature must be finite"):
            ConstantSchedule(5, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_linear(self, bad):
        with pytest.raises(ValueError, match="^t_start must be finite"):
            LinearSchedule(5, bad, 1.0)
        with pytest.raises(ValueError, match="^t_end must be finite"):
            LinearSchedule(5, 2.0, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_geometric(self, bad):
        with pytest.raises(ValueError, match="^t_start must be finite"):
            GeometricSchedule(5, bad, 1.0)
        with pytest.raises(ValueError, match="^t_end must be finite"):
            GeometricSchedule(5, 2.0, bad)

    def test_negative_temperatures_refused(self):
        with pytest.raises(ValueError, match="^temperature must be >= 0"):
            ConstantSchedule(5, -1.0)
        with pytest.raises(ValueError, match="^t_end must be >= 0"):
            LinearSchedule(5, 1.0, -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_vbg_step(self, bad):
        with pytest.raises(ValueError, match="^step must be finite"):
            VbgStepSchedule(50, step=bad)


class TestVbgStepSchedule:
    def test_walks_down_the_grid(self):
        s = VbgStepSchedule(710, hold=10)
        profile = s.vbg_profile()
        assert profile[0] == pytest.approx(0.7)
        assert profile[-1] == pytest.approx(0.0)
        assert np.all(np.diff(profile) <= 1e-12)
        # levels change every `hold` iterations by one 10 mV step
        assert profile[9] == pytest.approx(0.7)
        assert profile[10] == pytest.approx(0.69)

    def test_holds_at_zero_after_bottom(self):
        """'Once V_BG reaches 0 V, it remains at zero' (Sec. 3.4)."""
        s = VbgStepSchedule(1000, hold=5)
        profile = s.vbg_profile()
        assert np.all(profile[71 * 5 :] == 0.0)

    def test_default_hold_spreads_walk(self):
        s = VbgStepSchedule(710)
        assert s.hold == 10
        assert s.vbg_profile()[-1] == pytest.approx(0.0)

    def test_temperature_consistent_with_factor_map(self):
        f = FractionalFactor()
        s = VbgStepSchedule(100, factor=f)
        for it in (0, 50, 99):
            expected = float(f.temperature_for_vbg(s.vbg(it)))
            assert s.temperature(it) == pytest.approx(expected)

    def test_dac_updates_counts_level_changes(self):
        s = VbgStepSchedule(710, hold=10)
        assert s.dac_updates() == 71  # 70 steps + initial set

    def test_short_run_truncates_walk(self):
        """An *explicit* hold takes the walk as given, truncation and all."""
        s = VbgStepSchedule(30, hold=10)
        profile = s.vbg_profile()
        assert profile[-1] == pytest.approx(0.7 - 0.02)

    @pytest.mark.parametrize("iterations", [1, 2, 3, 5, 17, 70, 71, 72, 710])
    def test_default_hold_always_reaches_v_end(self, iterations):
        """Regression: the default hold used to truncate short runs.

        With ``iterations < num_levels`` the old default (hold=1) walked
        only ``iterations`` of the 71 grid levels and never reached 0 V —
        silently violating the paper's "terminates when V_BG reaches 0 V"
        contract.  The default now compresses the grid instead, so every
        run length lands exactly on ``v_end`` (and starts at ``v_start``
        whenever there is room for more than one level).
        """
        s = VbgStepSchedule(iterations)
        profile = s.vbg_profile()
        assert profile.shape == (iterations,)
        assert profile[-1] == 0.0
        if iterations > 1:
            assert profile[0] == pytest.approx(0.7)
        assert np.all(np.diff(profile) <= 1e-12)
        # the temperature trace bottoms out with the voltage walk
        assert s.temperature(iterations - 1) == 0.0

    def test_compressed_walk_counts_dac_updates(self):
        """Every compressed level is a real DAC reprogramming."""
        for iterations in (1, 2, 5, 40):
            s = VbgStepSchedule(iterations)
            assert s.dac_updates() == iterations
        assert VbgStepSchedule(710).dac_updates() == 71

    def test_validation(self):
        with pytest.raises(ValueError):
            VbgStepSchedule(10, v_start=0.1, v_end=0.5)
        with pytest.raises(ValueError):
            VbgStepSchedule(10, hold=0)
        with pytest.raises(IndexError):
            VbgStepSchedule(10).vbg(10)


class TestReverseVbgSchedule:
    def test_walks_up(self):
        s = ReverseVbgSchedule(710, hold=10)
        profile = s.vbg_profile()
        assert profile[0] == pytest.approx(0.0)
        assert profile[-1] == pytest.approx(0.7)
        assert np.all(np.diff(profile) >= -1e-12)

    @pytest.mark.parametrize("iterations", [2, 5, 70])
    def test_short_default_run_reaches_v_start(self, iterations):
        """The compressed grid applies to the reverse walk too: a short
        default-hold run still spans 0 V → 0.7 V."""
        s = ReverseVbgSchedule(iterations)
        profile = s.vbg_profile()
        assert profile[0] == 0.0
        assert profile[-1] == pytest.approx(0.7)


class _Sawtooth(Schedule):
    """A third-party schedule that defines only ``temperature()``."""

    def temperature(self, iteration: int) -> float:
        self._check(iteration)
        return 600.0 * (1.0 - (iteration % 7) / 7.0)


class TestVectorisedProfiles:
    """``profile()`` / ``vbg_profile()`` are byte-identical to the loops.

    The built-in schedules define only their vectorised traces, and a
    scalar read indexes one cached evaluation of that trace; these pin
    that the scalar path returns the *exact* bytes of the trace for every
    schedule family (numpy pow and Python pow differ in the last ulp, so
    a second, scalar formula would be a real risk).  A schedule that
    defines only ``temperature()`` gets its trace from the base loop.
    """

    SCHEDULES = [
        ConstantSchedule(37, 3.0),
        GeometricSchedule(100, 10.0, 0.1),
        GeometricSchedule(100, 10.0, 1.0, alpha=0.5),  # clipped at t_end
        GeometricSchedule(1, 2.0, 2.0),
        LinearSchedule(11, 10.0, 0.0),
        LinearSchedule(1, 2.0),
        VbgStepSchedule(710, hold=10),
        VbgStepSchedule(1000, hold=5),   # long tail held at 0 V
        VbgStepSchedule(30, hold=10),    # explicit hold, truncated walk
        VbgStepSchedule(9),              # compressed grid
        VbgStepSchedule(1),
        ReverseVbgSchedule(710, hold=10),
        ReverseVbgSchedule(25),
        _Sawtooth(30),
    ]

    @pytest.mark.parametrize(
        "schedule", SCHEDULES, ids=lambda s: f"{type(s).__name__}-{s.iterations}"
    )
    def test_profile_matches_temperature_loop(self, schedule):
        loop = np.array(
            [schedule.temperature(i) for i in range(schedule.iterations)]
        )
        profile = schedule.profile()
        assert profile.shape == loop.shape
        assert profile.tobytes() == loop.tobytes()

    @pytest.mark.parametrize(
        "schedule",
        [s for s in SCHEDULES if isinstance(s, VbgStepSchedule)],
        ids=lambda s: f"{type(s).__name__}-{s.iterations}",
    )
    def test_vbg_profile_matches_vbg_loop(self, schedule):
        loop = np.array([schedule.vbg(i) for i in range(schedule.iterations)])
        assert schedule.vbg_profile().tobytes() == loop.tobytes()

    @pytest.mark.parametrize(
        "schedule",
        [s for s in SCHEDULES if isinstance(s, VbgStepSchedule)],
        ids=lambda s: f"{type(s).__name__}-{s.iterations}",
    )
    def test_dac_updates_matches_scalar_count(self, schedule):
        changes = sum(
            schedule.vbg(i) != schedule.vbg(i - 1)
            for i in range(1, schedule.iterations)
        )
        assert schedule.dac_updates() == changes + 1

    def test_geometric_temperature_is_cached_array_read(self):
        """Scalar reads come from the same cached array profile() copies
        (the bit-identity mechanism), and the copy protects the cache."""
        s = GeometricSchedule(50, 5.0, 0.5)
        profile = s.profile()
        profile[0] = -1.0  # a caller mutating the copy must not poison
        assert s.temperature(0) == 5.0
        assert s.profile()[0] == 5.0


class TestCountKnobs:
    """Schedule lengths and the V_BG hold are counts, never truncated."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LinearSchedule(2.7, 1.0),
            lambda: ConstantSchedule(True, 1.0),
            lambda: GeometricSchedule(3.5, 2.0, 1.0),
            lambda: VbgStepSchedule(100.5),
            lambda: VbgStepSchedule(100, hold=2.5),
            lambda: VbgStepSchedule(100, hold=True),
        ],
    )
    def test_truncating_counts_refused(self, build):
        with pytest.raises(ValueError, match="must be an integer"):
            build()

    def test_integral_floats_accepted(self):
        assert LinearSchedule(10.0, 1.0).iterations == 10
        assert VbgStepSchedule(100, hold=2.0).hold == 2

    def test_scalar_reads_stay_in_range(self):
        for schedule in (LinearSchedule(5, 1.0), VbgStepSchedule(5), _Sawtooth(5)):
            with pytest.raises(IndexError):
                schedule.temperature(5)
            with pytest.raises(IndexError):
                schedule.temperature(-1)

    def test_base_schedule_needs_a_definition(self):
        with pytest.raises(NotImplementedError):
            Schedule(3).temperature(0)
