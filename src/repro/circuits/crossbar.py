"""DG FeFET crossbar array computing the in-situ incremental energy.

Implements the array of paper Fig 6d.  An ``n × n`` coupling matrix is
stored as sign-split ``k``-bit planes (one ``1 × k`` sub-array per element,
:mod:`repro.circuits.quantize`).  Rows share front gates driven by ``σ_r``,
columns share drain/source lines driven by ``σ_c``, and the common back-gate
rail carries the annealing factor:

.. math::  E_{inc} = \\sigma_r^T \\hat J \\sigma_c \\cdot f(V_{BG}).

Sign handling follows the paper's non-negative-input constraint: row signs
are evaluated in separate *phases* (positive rows, then negative rows, since
rows sum in analog on the column wires), while column signs and plane signs
are digital metadata folded in by the shift-and-add stage.

Two backends:

* ``"behavioral"`` — exact arithmetic on the dequantized matrix with the
  nominal cell's normalised transfer curve as ``f(V_BG)``; optional read
  noise and static weight error.  Fast enough for the 3000-spin benches.
* ``"device"`` — every activated cell evaluated through the
  :class:`~repro.devices.dg_fefet.DGFeFET` compact model with per-cell
  threshold variation, wire IR-drop and real ADC quantization.  Used by the
  device-level tests/ablations and small-array examples.

Both backends report identical :class:`ActivationStats`, which the
architecture layer converts into energy and latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.adc import SarAdc
from repro.circuits.interconnect import WireModel
from repro.circuits.quantize import MatrixQuantizer, QuantizedMatrix
from repro.circuits.shift_add import ShiftAddUnit
from repro.devices.constants import (
    DEFAULT_READ_VDL,
    DEFAULT_READ_VFG,
    VBG_MAX,
    VBG_MIN,
)
from repro.devices.dg_fefet import DGFeFET
from repro.devices.variability import VariationModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_in_range

#: One-time program/erase pulse energy (~10 fJ per ±4 V / 1 µs gate pulse
#: at 22 nm) — shared by every machine's programming-cost bookkeeping.
PROGRAM_PULSE_ENERGY = 1.0e-14


def check_drive(r: np.ndarray, c: np.ndarray, n: int, v_bg: float) -> None:
    """Validate one array activation: ±1/0 drive vectors of length ``n``.

    Shared by the monolithic and the tiled array, which check the whole
    vectors once at their boundary.
    """
    if r.shape != (n,) or c.shape != (n,):
        raise ValueError(f"input vectors must have shape ({n},)")
    if not np.all(np.isin(r, (-1.0, 0.0, 1.0))) or not np.all(
        np.isin(c, (-1.0, 0.0, 1.0))
    ):
        raise ValueError("inputs must take values in {-1, 0, +1}")
    check_in_range("v_bg", v_bg, VBG_MIN - 1e-9, VBG_MAX + 1e-9)


@dataclass(frozen=True)
class ActivationStats:
    """Hardware activity counters for one crossbar evaluation.

    Attributes
    ----------
    phases:
        Sequential array activations (one per row-sign present).
    adc_conversions:
        Total ADC conversions performed.
    mux_slots:
        Sequential conversion slots on the critical path (each slot is one
        ADC conversion time; parallel ADCs share a slot).
    sa_codes:
        Codes folded by the shift-and-add stage.
    fg_toggles / dl_toggles:
        Driver line transitions relative to the previous evaluation.
    active_cells:
        Cells with both gate and drain selected across all phases.
    settle_time:
        Analog settling time added per phase by the wiring (seconds).
    """

    phases: int
    adc_conversions: int
    mux_slots: int
    sa_codes: int
    fg_toggles: int
    dl_toggles: int
    active_cells: int
    settle_time: float


class DgFefetCrossbar:
    """A programmed DG FeFET crossbar with peripheral sensing.

    Parameters
    ----------
    matrix:
        Symmetric coupling matrix to program.
    bits:
        ``k``-bit quantization per element (paper default 4).
    backend:
        ``"behavioral"`` or ``"device"`` (see module docstring).
    adc:
        ADC model; default full scale is sized to a quarter of the worst-case
        column sum so realistic increments use most of the code range.
    wire:
        Interconnect parasitics model.
    shift_add:
        Digital recombination model.
    variation:
        Device-variation model (threshold spread frozen at program time,
        per-read current noise).
    cell:
        Template DG FeFET; defaults to the standard calibrated cell.
    lsb:
        Optional quantization LSB override; tiled arrays pass the
        whole-matrix scale so all tiles share one magnitude grid.
    seed:
        Seed for the variation draws.
    """

    def __init__(
        self,
        matrix,
        bits: int = 4,
        backend: str = "behavioral",
        adc: SarAdc | None = None,
        wire: WireModel | None = None,
        shift_add: ShiftAddUnit | None = None,
        variation: VariationModel | None = None,
        cell: DGFeFET | None = None,
        require_symmetric: bool = True,
        lsb: float | None = None,
        seed=None,
    ) -> None:
        if backend not in ("behavioral", "device"):
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.quantizer = MatrixQuantizer(bits)
        if require_symmetric:
            self.quantized: QuantizedMatrix = self.quantizer.quantize(matrix, lsb=lsb)
        else:
            # Tile mode: off-diagonal blocks of a symmetric model are
            # arbitrary square matrices; the array itself doesn't care.
            self.quantized = self.quantizer.quantize_general(matrix, lsb=lsb)
        self.matrix_hat = self.quantized.dequantize()
        # The quantizer already check_count-validated bits; reuse its
        # normalised value instead of re-coercing with int() (which let
        # bool/float through).
        self.bits = self.quantizer.bits
        self.n = self.matrix_hat.shape[0]
        self.wire = wire or WireModel()
        self.shift_add = shift_add or ShiftAddUnit()
        self.variation = variation or VariationModel()
        self._rng = ensure_rng(seed)

        # Nominal cell: program once as '1' and once as '0' to obtain the
        # two stored threshold voltages.
        self.cell = cell or DGFeFET()
        self.cell.program_bit(1)
        self._vth_on = self.cell.vth
        self.cell.program_bit(0)
        self._vth_off = self.cell.vth
        self.cell.program_bit(1)
        self._gamma = self.cell.bg_coupling
        self._transistor = self.cell.transistor

        # Reference '1'-cell current at the top of the BG range: the unit
        # that converts sensed amperes back into cell counts.
        self._unit_max = float(
            self._transistor.drain_current(
                DEFAULT_READ_VFG, DEFAULT_READ_VDL, self._vth_on - self._gamma * VBG_MAX
            )
        )
        if adc is None:
            # Size the full scale to the worst-case column sum (all rows
            # conducting); the 13-bit resolution of the [36] SAR keeps the
            # LSB fine enough for single-flip increments.
            full_scale = self._unit_max * max(self.n, 8)
            adc = SarAdc(full_scale=full_scale)
        self.adc = adc

        self._has_neg = bool(self.quantized.negative_planes.any())
        self._planes_used = 2 if self._has_neg else 1

        if self.backend == "device":
            shape = (2, self.bits, self.n, self.n)
            self._vth_offsets = self.variation.sample_vth_offsets(shape, self._rng)
        else:
            self._vth_offsets = None
            # Behavioural stand-in for frozen threshold spread: a static
            # per-element relative weight error evaluated at mid-range V_BG.
            if self.variation.vth_sigma > 0.0:
                mid_factor = self._relative_current_sigma()
                eps = self._rng.normal(0.0, mid_factor, size=self.matrix_hat.shape)
                eps = (eps + eps.T) / 2.0  # keep the stored image symmetric
                self._weight_error = eps
            else:
                self._weight_error = None

        # Driver-state memory for toggle accounting.
        self._last_fg: np.ndarray | None = None
        self._last_dl: np.ndarray | None = None
        self._factor_cache: dict[float, float] = {}

    @property
    def planes(self) -> int:
        """Sign planes in use: 2 when a negative plane exists, else 1."""
        return self._planes_used

    # ------------------------------------------------------------------
    # Factor curve (normalised nominal-cell current)
    # ------------------------------------------------------------------
    def factor(self, v_bg: float) -> float:
        """Normalised '1'-cell current at ``v_bg`` — the physical ``f``.

        This is the quantity Fig 6c matches against the analytic fractional
        factor; both backends use it so their results agree in expectation.
        Values are memoised per 10 µV so the annealing loop pays the device
        evaluation only once per distinct rail level.
        """
        key = round(float(v_bg), 5)
        cached = self._factor_cache.get(key)
        if cached is not None:
            return cached
        check_in_range("v_bg", v_bg, VBG_MIN - 1e-9, VBG_MAX + 1e-9)
        i = float(
            self._transistor.drain_current(
                DEFAULT_READ_VFG,
                DEFAULT_READ_VDL,
                self._vth_on - self._gamma * float(v_bg),
            )
        )
        value = i / self._unit_max
        self._factor_cache[key] = value
        return value

    def _relative_current_sigma(self) -> float:
        """First-order relative current spread caused by ``vth_sigma``."""
        phi = self._transistor.thermal_voltage * self._transistor.ideality
        return min(self.variation.vth_sigma / phi * 0.5, 1.0)

    # ------------------------------------------------------------------
    # Evaluations
    # ------------------------------------------------------------------
    def compute_increment(
        self, sigma_r, sigma_c, v_bg: float, validate: bool = True
    ) -> tuple[float, ActivationStats]:
        """Evaluate ``σ_rᵀ Ĵ σ_c · f(V_BG)`` in-situ.

        ``σ_r``/``σ_c`` take values in {−1, 0, +1} (zeros deselect lines).
        Returns the sensed value (in coupling-matrix units) and the activity
        counters of the evaluation.  ``validate=False`` skips the input
        checks (the annealer machines call this once per iteration with
        vectors they construct themselves).
        """
        r = np.asarray(sigma_r, dtype=np.float64)
        c = np.asarray(sigma_c, dtype=np.float64)
        if validate:
            check_drive(r, c, self.n, v_bg)
        value = self.sense(r, c, v_bg)
        stats = self._activation_stats(r, c)
        return value, stats

    def sense(self, r: np.ndarray, c: np.ndarray, v_bg: float) -> float:
        """The sensed value of :meth:`compute_increment` alone.

        No input checks and no activity accounting: a
        :class:`~repro.arch.tiling.TiledCrossbar` keeps the drive state
        and counters of its tiles itself and asks each tile only for its
        analog read.
        """
        if self.backend == "behavioral":
            return self._behavioral_value(r, c, v_bg)
        return self._device_value(r, c, v_bg)

    def compute_quadratic(self, sigma, v_bg: float = VBG_MAX) -> tuple[float, ActivationStats]:
        """Evaluate the full quadratic form ``σᵀ Ĵ σ`` (direct-E baselines).

        This is the same array activation with both input vectors dense; at
        ``V_BG = V_BG^{max}`` the factor is 1 and the sensed value is the
        plain VMV product (the diagonal of the stored image is zero).
        """
        s = np.asarray(sigma, dtype=np.float64)
        return self.compute_increment(s, s, v_bg)

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------
    def _behavioral_value(self, r: np.ndarray, c: np.ndarray, v_bg: float) -> float:
        # Only the driven columns contribute; slicing keeps the cost at
        # O(n·|F|) per evaluation, matching the physical activation.
        cols = np.flatnonzero(c)
        if cols.size == 0:
            return 0.0
        block = self.matrix_hat[:, cols]
        if self._weight_error is not None:
            block = block * (1.0 + self._weight_error[:, cols])
        value = float(r @ (block @ c[cols])) * self.factor(v_bg)
        if self.variation.read_noise_sigma > 0.0:
            value = float(
                self.variation.apply_read_noise(np.asarray(value), self._rng)
            )
        return value

    def _device_value(self, r: np.ndarray, c: np.ndarray, v_bg: float) -> float:
        active_cols = np.flatnonzero(c)
        if active_cols.size == 0:
            return 0.0
        col_sign = c[active_cols]
        v_fg_on = DEFAULT_READ_VFG
        v_dl_on = DEFAULT_READ_VDL
        total = 0.0
        planes = (
            (0, +1.0, self.quantized.positive_planes),
            (1, -1.0, self.quantized.negative_planes),
        )
        for row_sign in (+1.0, -1.0):
            rows_on = r == row_sign
            if not rows_on.any():
                continue
            v_gs = np.where(rows_on, v_fg_on, 0.0)[:, np.newaxis]
            phase_value = 0.0
            for plane_idx, plane_sign, plane_bits in planes:
                if plane_sign < 0 and not self._has_neg:
                    continue
                counts_cols = np.zeros(active_cols.size, dtype=np.float64)
                for b in range(self.bits):
                    bits = plane_bits[b][:, active_cols]
                    vth = np.where(bits, self._vth_on, self._vth_off)
                    if self._vth_offsets is not None:
                        vth = vth + self._vth_offsets[plane_idx, b][:, active_cols]
                    vth_eff = vth - self._gamma * float(v_bg)
                    currents = self._transistor.drain_current(v_gs, v_dl_on, vth_eff)
                    column_current = currents.sum(axis=0)
                    column_current = self.variation.apply_read_noise(
                        column_current, self._rng
                    )
                    column_current = self.wire.attenuation(column_current, self.n)
                    sensed = self.adc.quantize(column_current)
                    counts_cols += (2.0**b) * sensed / self._unit_max
                phase_value += plane_sign * float((counts_cols * col_sign).sum())
            total += row_sign * phase_value
        return total * self.quantized.lsb

    # ------------------------------------------------------------------
    # Activity accounting
    # ------------------------------------------------------------------
    def _activation_stats(self, r: np.ndarray, c: np.ndarray) -> ActivationStats:
        phases = int((r == 1).any()) + int((r == -1).any())
        phases = max(phases, 1)
        active_groups = int(np.count_nonzero(c))
        conversions = phases * active_groups * self.bits * self._planes_used
        total_columns = self.n * self.bits * self._planes_used
        num_adcs = max(1, total_columns // self.adc.mux_ratio)
        active_columns = active_groups * self.bits * self._planes_used
        slots = phases * max(1, -(-active_columns // num_adcs))  # ceil div
        active_cells = phases and int(np.count_nonzero(r)) * active_columns
        fg_now = r.astype(np.int8)
        dl_now = c.astype(np.int8)
        fg_toggles = (
            int(np.count_nonzero(fg_now != self._last_fg))
            if self._last_fg is not None
            else int(np.count_nonzero(fg_now))
        )
        dl_toggles = (
            int(np.count_nonzero(dl_now != self._last_dl))
            if self._last_dl is not None
            else int(np.count_nonzero(dl_now))
        )
        self._last_fg = fg_now
        self._last_dl = dl_now
        return ActivationStats(
            phases=phases,
            adc_conversions=conversions,
            mux_slots=slots,
            sa_codes=conversions,
            fg_toggles=fg_toggles,
            dl_toggles=dl_toggles,
            active_cells=int(active_cells),
            settle_time=phases * self.wire.settle_time(self.n),
        )

    def reset_drive_state(self) -> None:
        """Forget the driver-toggle memory (fresh-run line state).

        A shared programmed array serves many anneal runs; each run
        starts with every FG/DL line parked, so the first activation must
        be billed as toggling from scratch rather than diffed against the
        previous run's final line state.
        """
        self._last_fg = None
        self._last_dl = None

    # ------------------------------------------------------------------
    # Programming cost
    # ------------------------------------------------------------------
    def programming_summary(self) -> dict[str, float]:
        """One-time programming cost summary of the stored image.

        Every cell receives one program-or-erase pulse; '1' cells get the
        set pulse.  Reported so the architecture ledger can show the (tiny,
        amortised) write cost next to the per-iteration read costs.
        """
        total_cells = 2 * self.bits * self.n * self.n
        ones = self.quantized.cell_count()
        return {
            "cells": float(total_cells),
            "programmed_ones": float(ones),
            "write_pulses": float(total_cells),
            "energy": total_cells * PROGRAM_PULSE_ENERGY,
        }
