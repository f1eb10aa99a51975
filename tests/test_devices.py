"""Tests for the device substrate: transistor, Preisach FE, FeFET, DG FeFET."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import (
    VBG_MAX,
    DGFeFET,
    FeFET,
    PreisachFerroelectric,
    Transistor,
    VariationModel,
)


class TestTransistor:
    def test_monotone_in_gate_voltage(self):
        t = Transistor()
        vg = np.linspace(-0.5, 1.5, 50)
        i = t.drain_current(vg, 1.0, 0.4)
        assert np.all(np.diff(i) > 0)

    def test_zero_drain_bias_gives_zero_current(self):
        t = Transistor()
        assert t.drain_current(1.0, 0.0, 0.2) == pytest.approx(0.0, abs=1e-18)

    def test_rejects_negative_drain(self):
        with pytest.raises(ValueError):
            Transistor().drain_current(1.0, -0.1, 0.2)

    def test_subthreshold_swing_near_target(self):
        """Below threshold the current should move ~SS volts per decade."""
        t = Transistor(leakage=0.0)
        v1, v2 = -0.3, -0.2  # both well below v_th = 0.4
        i1 = float(t.drain_current(v1, 1.0, 0.4))
        i2 = float(t.drain_current(v2, 1.0, 0.4))
        decades = np.log10(i2 / i1)
        measured_ss = (v2 - v1) / decades
        assert measured_ss == pytest.approx(t.subthreshold_swing(), rel=0.1)

    def test_saturation_weakly_dependent_on_vds(self):
        t = Transistor(lambda_out=0.0, leakage=0.0)
        i1 = float(t.drain_current(1.2, 1.0, 0.2))
        i2 = float(t.drain_current(1.2, 1.5, 0.2))
        assert i2 == pytest.approx(i1, rel=1e-3)

    def test_on_off_ratio_large(self):
        """At a mid-window read voltage the stored states differ by >1e6."""
        t = Transistor(leakage=0.0)
        ratio = t.on_off_ratio(0.5, 1.0, v_th_on=-0.1, v_th_off=1.1)
        assert ratio > 1e6

    def test_leakage_floor(self):
        t = Transistor(leakage=1e-10)
        i = float(t.drain_current(-2.0, 1.0, 1.0))
        assert i == pytest.approx(1e-10, rel=0.01)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Transistor(i0=-1.0)
        with pytest.raises(ValueError):
            Transistor(ideality=0.5)
        with pytest.raises(ValueError):
            Transistor(leakage=-1e-12)


class TestPreisach:
    def test_saturation_levels(self):
        fe = PreisachFerroelectric()
        fe.reset(-1)
        assert fe.polarization() == pytest.approx(-1.0, abs=1e-3)
        fe.apply(6.0)
        assert fe.polarization() == pytest.approx(1.0, abs=1e-3)

    def test_major_loop_is_hysteretic(self):
        fe = PreisachFerroelectric()
        v, p = fe.major_loop(v_max=4.0)
        half = len(v) // 2
        # polarization at V=0 differs between down-sweep and up-sweep
        down_zero = p[:half][np.argmin(np.abs(v[:half]))]
        up_zero = p[half:][np.argmin(np.abs(v[half:]))]
        assert down_zero > 0.5
        assert up_zero < -0.5

    def test_monotone_response_within_sweep(self):
        fe = PreisachFerroelectric()
        fe.reset(-1)
        ps = fe.apply_waveform(np.linspace(0, 4, 40))
        assert np.all(np.diff(ps) >= -1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        v1=st.floats(0.5, 3.5),
        v2=st.floats(-3.5, -0.5),
    )
    def test_return_point_memory(self, v1, v2):
        """Wiping-out property: a closed minor loop restores the state."""
        fe = PreisachFerroelectric()
        fe.reset(-1)
        fe.apply(v1)
        p_before = fe.polarization()
        # minor loop: down to v2 then back to v1 (v2 above the erase level)
        fe.apply(max(v2, -abs(v1)))
        fe.apply(v1)
        assert fe.polarization() == pytest.approx(p_before, abs=1e-9)

    def test_shorter_pulse_programs_less(self):
        fe = PreisachFerroelectric()
        p_ref = fe.remnant_after_pulse(2.5, 1e-6)
        p_short = fe.remnant_after_pulse(2.5, 1e-8)
        assert p_short < p_ref

    def test_history_tracking_and_reset(self):
        fe = PreisachFerroelectric()
        fe.apply(1.0)
        fe.apply(-1.0)
        assert fe.history == [1.0, -1.0]
        fe.reset(-1)
        assert fe.history == []

    def test_validation(self):
        with pytest.raises(ValueError):
            PreisachFerroelectric(grid_points=4)
        with pytest.raises(ValueError):
            PreisachFerroelectric(sigma=-1)
        fe = PreisachFerroelectric()
        with pytest.raises(ValueError):
            fe.reset(0)

    @pytest.mark.parametrize("grid_points", [10.7, True, 7])
    def test_grid_points_is_a_count(self, grid_points):
        """A fractional or bool grid used to truncate (10.7 ran as 10)."""
        with pytest.raises(ValueError, match="grid_points"):
            PreisachFerroelectric(grid_points=grid_points)
        assert PreisachFerroelectric(grid_points=10.0).grid_points == 10


class TestFeFET:
    def test_program_states_split_by_memory_window(self):
        f = FeFET()
        low = f.program_low_vth()
        high = f.program_high_vth()
        assert high - low == pytest.approx(f.memory_window, rel=0.05)

    def test_stored_bit_convention(self):
        f = FeFET()
        f.program_bit(1)
        assert f.stored_bit == 1
        f.program_bit(0)
        assert f.stored_bit == 0

    def test_program_bit_validates(self):
        with pytest.raises(ValueError):
            FeFET().program_bit(2)

    def test_id_vg_window(self):
        """Fig 2b envelope: clear separation at the read voltage."""
        f = FeFET()
        vg = np.linspace(-0.5, 1.5, 41)
        f.program_bit(1)
        on = f.id_vg(vg)
        f.program_bit(0)
        off = f.id_vg(vg)
        read_idx = np.argmin(np.abs(vg - 0.5))
        assert on[read_idx] / off[read_idx] > 1e3
        assert np.all(on >= off - 1e-15)

    def test_on_current_scale(self):
        f = FeFET()
        f.program_bit(1)
        i_on = float(f.drain_current(1.5, 0.1))
        assert 1e-5 < i_on < 1e-3  # Fig 2b tops out near 1e-4 A


class TestDGFeFET:
    def make_cell(self, bit=1):
        d = DGFeFET()
        d.program_bit(bit)
        return d

    def test_bg_shifts_effective_threshold(self):
        d = self.make_cell()
        assert d.effective_vth(0.7) == pytest.approx(
            d.vth - 0.7 * d.bg_coupling
        )

    def test_id_vfg_family_shifts_with_vbg(self):
        """Fig 2d: raising V_BG moves the transfer curve left."""
        d = self.make_cell()
        vfg = np.linspace(-0.5, 1.5, 31)
        currents = {vbg: d.id_vfg(vfg, vbg) for vbg in (-3.0, 0.0, 5.0)}
        mid = len(vfg) // 2
        assert currents[5.0][mid] > currents[0.0][mid] > currents[-3.0][mid]

    def test_four_input_product_gating(self):
        """I_SL = x·G·y·z: any zero input (or stored 0) kills the current."""
        on = self.make_cell(1)
        i_ref = float(on.sl_current(1, 1, VBG_MAX))
        assert i_ref > 1e-6
        assert float(on.sl_current(0, 1, VBG_MAX)) < i_ref / 100
        assert float(on.sl_current(1, 0, VBG_MAX)) == pytest.approx(0.0, abs=1e-15)
        off = self.make_cell(0)
        assert float(off.sl_current(1, 1, VBG_MAX)) < i_ref / 1e4

    def test_sl_current_validates_binary_inputs(self):
        d = self.make_cell()
        with pytest.raises(ValueError):
            d.sl_current(0.5, 1, 0.3)

    def test_isl_vbg_monotone_and_scaled(self):
        """Fig 6b: ~0 → ~10 µA over the back-gate range, monotone."""
        d = self.make_cell()
        vbg = np.linspace(0.0, VBG_MAX, 15)
        i = d.isl_vbg(vbg)
        assert np.all(np.diff(i) > 0)
        assert 5e-6 < i[-1] < 2e-5
        assert i[0] < i[-1] / 10

    def test_normalized_factor_range(self):
        d = self.make_cell()
        norm = d.normalized_factor(np.linspace(0, VBG_MAX, 8))
        assert norm[-1] == pytest.approx(1.0)
        assert np.all(norm >= 0)
        assert np.all(np.diff(norm) > 0)

    def test_bg_does_not_disturb_stored_state(self):
        d = self.make_cell()
        vth_before = d.vth
        d.isl_vbg(np.linspace(0, VBG_MAX, 10))
        assert d.vth == vth_before


class TestVariation:
    def test_ideal_by_default(self):
        v = VariationModel()
        assert v.is_ideal
        assert np.all(v.sample_vth_offsets((3, 3), seed=1) == 0)

    def test_offsets_have_requested_spread(self):
        v = VariationModel(vth_sigma=0.05)
        offsets = v.sample_vth_offsets((200, 200), seed=1)
        assert offsets.std() == pytest.approx(0.05, rel=0.05)

    def test_read_noise_multiplicative(self):
        v = VariationModel(read_noise_sigma=0.01)
        base = np.full(10_000, 2.0)
        noisy = v.apply_read_noise(base, seed=2)
        assert noisy.mean() == pytest.approx(2.0, rel=0.01)
        assert noisy.std() == pytest.approx(0.02, rel=0.1)

    def test_zero_noise_is_identity(self):
        v = VariationModel()
        arr = np.arange(5.0)
        assert v.apply_read_noise(arr, seed=3) is arr

    def test_validation(self):
        with pytest.raises(ValueError):
            VariationModel(vth_sigma=-0.1)
