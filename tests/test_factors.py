"""Tests for the fractional/exponential annealing factors and the encoder."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExponentialFactor,
    FractionalFactor,
    VbgEncoder,
    fit_fractional_factor,
)
from repro.devices import DGFeFET, VBG_MAX
from repro.utils.rng import ensure_rng


class TestFractionalFactor:
    def test_published_parameters(self):
        """f(T) = 1/(−0.006 T + 5) − 0.2 (paper Fig 6c)."""
        f = FractionalFactor()
        assert float(f.value(np.array(0.0))) == pytest.approx(0.0)
        assert f.t_max == pytest.approx((5 - 1 / 1.2) / 0.006, rel=1e-6)
        assert float(f.value(np.array(f.t_max))) == pytest.approx(1.0)

    def test_monotone_increasing(self):
        f = FractionalFactor()
        grid = f.value(np.linspace(0, f.t_max, 200))
        assert np.all(np.diff(grid) >= 0)
        assert np.all(grid >= 0)

    def test_clamps_below_zero(self):
        f = FractionalFactor()
        assert float(f.value(np.array(-50.0))) == 0.0

    def test_vbg_mapping_round_trip(self):
        f = FractionalFactor()
        temps = np.linspace(0, f.t_max, 20)
        back = f.temperature_for_vbg(f.vbg_for_temperature(temps))
        assert np.allclose(back, temps, atol=1e-9)

    def test_vbg_range(self):
        f = FractionalFactor()
        assert float(f.vbg_for_temperature(0.0)) == pytest.approx(0.0)
        assert float(f.vbg_for_temperature(f.t_max)) == pytest.approx(VBG_MAX)

    def test_rejects_decreasing_parameterisation(self):
        with pytest.raises(ValueError):
            FractionalFactor(a=-1.0, b=-0.006, c=5.0, d=1.2)

    def test_rejects_zero_params(self):
        with pytest.raises(ValueError):
            FractionalFactor(a=0.0)
        with pytest.raises(ValueError):
            FractionalFactor(c=0.0)


class TestExponentialFactor:
    def test_downhill_always_accepted(self):
        e = ExponentialFactor()
        assert float(e.acceptance(-1.0, 2.0)) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(de=st.floats(0.01, 50), t=st.floats(0.1, 100))
    def test_matches_metropolis(self, de, t):
        e = ExponentialFactor()
        assert float(e.acceptance(de, t)) == pytest.approx(np.exp(-de / t))

    def test_first_order_close_for_small_ratio(self):
        e = ExponentialFactor()
        assert float(e.first_order(0.1, 10.0)) == pytest.approx(
            float(e.acceptance(0.1, 10.0)), abs=1e-3
        )

    def test_first_order_clipped(self):
        e = ExponentialFactor()
        assert float(e.first_order(100.0, 1.0)) == 0.0
        assert float(e.first_order(-5.0, 1.0)) == 1.0


class TestFitting:
    def test_refit_recovers_published_curve(self):
        truth = FractionalFactor()
        t = np.linspace(0, truth.t_max, 50)
        fitted = fit_fractional_factor(t, truth.value(t))
        assert np.allclose(fitted.value(t), truth.value(t), atol=1e-6)

    def test_fit_device_transfer_curve(self):
        """Fig 6c: fit f(T) against the real DG FeFET normalised current."""
        cell = DGFeFET()
        cell.program_bit(1)
        truth = FractionalFactor()
        t = np.linspace(0, truth.t_max, 40)
        vbg = truth.vbg_for_temperature(t)
        target = cell.normalized_factor(vbg)
        fitted = fit_fractional_factor(t, target)
        err = np.max(np.abs(fitted.value(t) - target))
        assert err < 0.08  # "approximate" match, as the paper shows

    def test_fit_validates_input(self):
        with pytest.raises(ValueError):
            fit_fractional_factor([1.0, 2.0], [0.5])

    def test_package_import_does_not_load_scipy(self):
        """Only the fit needs scipy; importing the solver and the service
        must not pay for it (about half a second per process)."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = (
            "import sys, repro.core, repro.serve; "
            "print('scipy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "False"


class TestVbgEncoder:
    def test_ideal_encoder_small_error(self):
        f = FractionalFactor()
        enc = VbgEncoder(f)
        errs = enc.encoding_error(np.linspace(0, f.t_max, 30))
        assert np.max(errs) < 0.05

    def test_levels_on_grid(self):
        f = FractionalFactor()
        enc = VbgEncoder(f)
        assert enc.num_levels == 71
        level = enc.encode(f.t_max / 2)
        assert round(level / 0.01) == pytest.approx(level / 0.01)

    def test_device_transfer_encoder(self):
        """Encoding through the real cell inverts its transfer curve."""
        cell = DGFeFET()
        cell.program_bit(1)
        f = FractionalFactor()
        enc = VbgEncoder(f, transfer=lambda v: float(cell.normalized_factor(np.asarray(v))))
        t_mid = f.t_max / 2
        realized = enc.realized_factor(t_mid)
        requested = float(f.value(np.asarray(t_mid)))
        assert realized == pytest.approx(requested, abs=0.05)

    def test_extreme_temperatures(self):
        f = FractionalFactor()
        enc = VbgEncoder(f)
        assert enc.encode(0.0) == pytest.approx(0.0)
        assert enc.encode(f.t_max) == pytest.approx(VBG_MAX)

    def test_rejects_decreasing_transfer(self):
        f = FractionalFactor()
        with pytest.raises(ValueError):
            VbgEncoder(f, transfer=lambda v: 1.0 - v)


def plateau_transfer(v_bg: float) -> float:
    """Linear, with a flat stretch at 0.3 over 0.2-0.4 V (21 tied levels)."""
    return 0.3 if 0.2 <= v_bg <= 0.4 else v_bg / 0.7


def step_transfer(v_bg: float) -> float:
    """Three dyadic steps: 0.125, 0.375 and 1.0."""
    return 0.125 if v_bg < 0.35 else 0.375 if v_bg < 0.6 else 1.0


class TestRealizedFactorArrays:
    """An array of temperatures realises, entry by entry, the bytes of the
    scalar calls, whose ``argmin`` keeps the first of tied levels."""

    #: f(8) = 1/(−2 + 4) − 0.25 = 0.25 exactly: equidistant from the
    #: step curve's 0.125 and 0.375 levels.
    EXACT = FractionalFactor(a=1.0, b=-0.25, c=4.0, d=-0.25)

    @pytest.mark.parametrize(
        "factor, transfer",
        [
            (FractionalFactor(), None),
            (FractionalFactor(), lambda v: (v / 0.7) ** 2),
            (FractionalFactor(), plateau_transfer),
            (EXACT, step_transfer),
        ],
        ids=["ideal", "nonlinear", "plateau", "step-ties"],
    )
    def test_array_equals_scalar_calls(self, factor, transfer):
        enc = VbgEncoder(factor, transfer=transfer)
        temps = np.concatenate([
            np.linspace(0.0, factor.t_max, 211),
            ensure_rng(3).uniform(-10.0, 1.1 * factor.t_max, 89),
            [8.0, 8.0, 0.0, factor.t_max],
        ]).reshape(4, 76)
        got = enc.realized_factor(temps)
        scalar = [enc.realized_factor(float(T)) for T in temps.ravel()]
        assert all(type(x) is float for x in scalar)
        assert got.shape == temps.shape and got.dtype == np.float64
        assert got.tobytes() == np.array(scalar).reshape(temps.shape).tobytes()
        errors = enc.encoding_error(temps.ravel())
        assert errors.tobytes() == np.array([
            abs(x - float(factor.value(np.asarray(T))))
            for x, T in zip(scalar, temps.ravel())
        ]).tobytes()

    def test_ties_keep_the_first_level(self):
        step = VbgEncoder(self.EXACT, transfer=step_transfer)
        assert float(self.EXACT.value(8.0)) == 0.25
        assert step.realized_factor(8.0) == 0.125
        assert step.realized_factor(np.array([8.0, 8.0])).tolist() == [0.125, 0.125]
        plateau = VbgEncoder(FractionalFactor(), transfer=plateau_transfer)
        # f(500) ≈ 0.3: every plateau level ties, the first (0.2 V) wins.
        assert plateau.encode(500.0) == pytest.approx(0.2)
        assert plateau.realized_factor(np.array([500.0])).tolist() == [0.3]
