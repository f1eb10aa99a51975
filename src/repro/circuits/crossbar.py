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
architecture layer converts into energy and latency.  They come from
:class:`LineState`, the one activation-counter kernel of the monolithic
array (a grid of one tile) and of the tiled grid
(:class:`~repro.arch.tiling.TiledCrossbar`).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

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
from repro.utils.validation import check_choice, check_in_range

#: How a crossbar evaluates its cells: ideal behavioural arithmetic, or
#: every activated cell through the compact device model.
CROSSBAR_BACKENDS = ("behavioral", "device")

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


class ActivationStats(NamedTuple):
    """Hardware activity counters for one crossbar evaluation.

    A named tuple, not a dataclass: one is built per read.

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


class LineState:
    """FG/DL line state of a grid of tiles and the counters of one read.

    The one activation-counter kernel of both arrays.  A
    :class:`~repro.arch.tiling.TiledCrossbar` numbers its ``block``-row
    tiles column block by column block; a tile activates when a column of
    its block is driven.  A :class:`DgFefetCrossbar` is one ``n``-row
    tile that senses on every read (``always``).  The state: the FG lines;
    per column block, the DL lines its tiles last drove and the driven
    columns of that drive (its tiles activate together); per row block,
    the count and the sum of the driven FG lines; per tile, its last FG
    drive and how many FG lines differ from it.  A read syncs only the
    lines that changed, and the counters follow in closed form: one phase
    per FG sign present (both iff ``|Σ FG| < rows-on``), ``d`` driven
    columns select ``d · group`` array columns, each converted once per
    phase by ``adcs`` ADCs (one slot at least), ``rows-on`` cells per
    selected column.  Tiles sense in parallel, so conversions, codes,
    toggles and cells add up while phases, slots and settling take the
    slowest tile.

    ``tile_row``/``tile_col`` give every tile's blocks in id order,
    ``group`` its array columns per driven column (bits × planes),
    ``adcs`` its ADC count; ``settle`` is the settling time per phase.
    """

    def __init__(
        self, n, block, tile_row, tile_col, group, adcs, settle, always=False
    ) -> None:
        self.n, self.block, self._settle, self._always = n, block, settle, always
        grid = max(1, -(-n // block))  # a zero-size array still has its tile
        self._row = np.asarray(tile_row, dtype=np.intp)
        self._rows = self._row.tolist()
        self._group = np.asarray(group).tolist()
        self._adcs = np.asarray(adcs).tolist()
        # Tile ids run column block by column block: one range per block.
        bounds = np.searchsorted(tile_col, np.arange(grid + 1)).tolist()
        self._ranges = list(zip(bounds[:-1], bounds[1:]))
        self._row_tiles: list[list[int]] = [[] for _ in range(grid)]
        for k, b in enumerate(self._rows):
            self._row_tiles[b].append(k)
        self._fg = np.zeros(grid * block, dtype=np.int8)
        self._dl = np.zeros(grid * block, dtype=np.int8)
        self.fg_blocks = self._fg.reshape(grid, block)
        self.dl_blocks = self._dl.reshape(grid, block)
        self._snap = np.zeros((len(self._rows), block), dtype=np.int8)
        self.reset()

    def reset(self) -> None:
        """Park every line; the next read re-syncs the full vectors."""
        grid = len(self._ranges)
        for lines in (self._fg, self._dl, self._snap):
            lines.fill(0)
        self._on, self._sum = [0] * grid, [0] * grid
        self._diff = [0] * len(self._rows)
        self._dl_cols: list = [()] * grid
        # The previous read's driven columns; None ends the flips= chain.
        self._prev: list | None = None

    def tiles(self, blocks) -> list[int]:
        """Ids of the tiles of column blocks ``blocks``, in id order."""
        return [k for cb in blocks for k in range(*self._ranges[cb])]

    def read(self, r, c, flips=None, validate=False):
        """Drive ``r``/``c``; return ``(cols, blocks, stats)``.

        ``cols`` are the driven columns, ascending, and ``blocks`` the
        column blocks whose tiles activated.  With ``flips`` (the driven
        columns) only the FG lines of the previous and the current flip
        set are synced: ``c`` must be nonzero exactly at ``flips`` and
        ``r`` may differ from the previous read only at those rows, which
        ``validate`` checks with a full diff.  Without ``flips``, or after
        :meth:`reset`, the FG lines are re-synced from the full vector.
        """
        if flips is None:
            cols = np.flatnonzero(c).tolist()
        else:
            cols = sorted(np.asarray(flips).tolist())
            if validate:
                self._check_chain(r, c, cols)
        if flips is None or self._prev is None:
            self._fg[: self.n] = r
            blocks = self.fg_blocks
            self._on = np.count_nonzero(blocks, axis=1).tolist()
            self._sum = blocks.sum(axis=1).tolist()
            self._diff = np.count_nonzero(
                self._snap != blocks[self._row], axis=1
            ).tolist()
        else:
            self._sync_rows(r, self._prev + cols)
        self._prev = cols
        return (cols, *self._activate(c, cols))

    def _check_chain(self, r, c, cols) -> None:
        if not np.array_equal(np.flatnonzero(c), cols):
            raise ValueError(
                "flips must list each driven column of sigma_c exactly once"
            )
        if self._prev is not None:
            moved = np.flatnonzero(self._fg[: self.n] != r).tolist()
            if not set(moved) <= set(self._prev).union(cols):
                raise ValueError(
                    "with flips=, sigma_r may change only at the previous "
                    "and the current flip set; call without flips= (or "
                    "reset_drive_state()) to re-sync the full vectors"
                )

    def _sync_rows(self, r, rows) -> None:
        """Move the FG lines of ``rows`` to ``r`` and update the counts."""
        fg, snap, diff = self._fg, self._snap, self._diff
        on, total, s = self._on, self._sum, self.block
        for i in rows:
            new, old = int(r[i]), int(fg[i])
            if new == old:
                continue
            fg[i] = new
            b, off = divmod(i, s)
            on[b] += (new != 0) - (old != 0)
            total[b] += new - old
            for k in self._row_tiles[b]:
                last = snap[k, off]
                if last == old:
                    diff[k] += 1
                elif last == new:
                    diff[k] -= 1

    def _activate(self, c, cols):
        """Drive the DL lines of the blocks of ``cols``; count their tiles.

        A block's DL lines are nonzero only at the columns of its last
        drive, so those and ``cols`` are the only lines that can move.
        The active tiles' FG drives become their last.
        """
        s, dl, rows, group = self.block, self._dl, self._rows, self._group
        on, total, diff, snap = self._on, self._sum, self._diff, self._snap
        by_block: dict[int, list[int]] = {0: []} if self._always else {}
        for j in cols:
            by_block.setdefault(j // s, []).append(j)
        top = conversions = cells = slots = fg_toggles = dl_toggles = 0
        blocks = []
        for cb, driven in by_block.items():
            lo, hi = self._ranges[cb]
            if lo == hi:
                continue  # a structurally empty column block: no tile
            blocks.append(cb)
            for j in set(self._dl_cols[cb]).union(driven):
                line = int(c[j])
                if line != dl[j]:
                    dl_toggles += hi - lo
                    dl[j] = line
            self._dl_cols[cb] = driven
            for k in range(lo, hi):
                b = rows[k]
                rows_on = on[b]
                phases = 2 if abs(total[b]) < rows_on else 1
                columns = len(driven) * group[k]
                conversions += phases * columns
                cells += rows_on * columns
                slot = phases * (-(-columns // self._adcs[k]) or 1)
                if slot > slots:
                    slots = slot
                if phases > top:
                    top = phases
                if diff[k]:
                    fg_toggles += diff[k]
                    diff[k] = 0
                    snap[k] = self.fg_blocks[b]
        return blocks, ActivationStats(
            phases=top,
            adc_conversions=conversions,
            mux_slots=slots,
            sa_codes=conversions,
            fg_toggles=fg_toggles,
            dl_toggles=dl_toggles,
            active_cells=cells,
            settle_time=top * self._settle,
        )


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
        self.backend = check_choice("backend", backend, CROSSBAR_BACKENDS)
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

        # Sign planes in use: a negative plane iff a stored level is negative.
        self._planes_used = 1 + bool((self.quantized.levels < 0).any())

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

        # Column j of Ĵ read as row j of Ĵᵀ: a contiguous row of the image
        # itself when it is symmetric (a tile's off-diagonal block is not).
        symmetric = np.array_equal(self.matrix_hat, self.matrix_hat.T)
        self._columns = self.matrix_hat if symmetric else self.matrix_hat.T
        # The whole array is one tile that senses on every read.
        group = self.bits * self._planes_used
        self._lines = LineState(
            self.n, max(self.n, 1), [0], [0], [group],
            [max(1, self.n * group // self.adc.mux_ratio)],
            self.wire.settle_time(self.n), always=True,
        )
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
        self, sigma_r, sigma_c, v_bg: float, validate: bool = True, flips=None
    ) -> tuple[float, ActivationStats]:
        """Evaluate ``σ_rᵀ Ĵ σ_c · f(V_BG)`` in-situ.

        ``σ_r``/``σ_c`` take values in {−1, 0, +1} (zeros deselect lines).
        Returns the sensed value (in coupling-matrix units) and the activity
        counters of the evaluation.  ``validate=False`` skips the input
        checks (the annealer machines call this once per iteration with
        vectors they construct themselves).

        ``flips`` names the driven columns of an annealer-protocol read:
        ``σ_c`` is nonzero exactly there, and ``σ_r`` differs from the
        previous read's only there and at the previous read's flips.
        The counters then sync just those lines (:class:`LineState`),
        and the driven columns are read as rows of ``Ĵᵀ`` in ascending
        order, the column product of a full read.  With ``validate``
        the contract is checked with a full diff;
        :meth:`reset_drive_state` ends the chain, and a read without
        ``flips`` re-syncs the full vectors.
        """
        r = np.asarray(sigma_r, dtype=np.float64)
        c = np.asarray(sigma_c, dtype=np.float64)
        if validate:
            check_drive(r, c, self.n, v_bg)
        cols, _, stats = self._lines.read(r, c, flips, validate)
        return self._value(r, c, v_bg, cols), stats

    def sense(self, r: np.ndarray, c: np.ndarray, v_bg: float) -> float:
        """The sensed value of :meth:`compute_increment` alone.

        No input checks and no activity accounting: a
        :class:`~repro.arch.tiling.TiledCrossbar` keeps the drive state
        and counters of its tiles itself and asks each tile only for its
        analog read.
        """
        return self._value(r, c, v_bg, np.flatnonzero(c))

    def _value(self, r, c, v_bg, cols) -> float:
        if self.backend == "behavioral":
            return self._behavioral_value(r, c, v_bg, cols)
        return self._device_value(r, c, v_bg, cols)

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
    def _behavioral_value(self, r, c, v_bg: float, cols) -> float:
        # Only the driven columns contribute; slicing keeps the cost at
        # O(n·|F|) per evaluation, matching the physical activation.  The
        # transposed row read is the (n, |F|) column block, in the same
        # memory order as a column gather, so the products are too.
        if len(cols) == 0:
            return 0.0
        block = self._columns[cols].T
        if self._weight_error is not None:
            # Symmetric by construction: its rows are its columns.
            block = block * (1.0 + self._weight_error[cols].T)
        value = float(r @ (block @ c[cols])) * self.factor(v_bg)
        if self.variation.read_noise_sigma > 0.0:
            value = float(
                self.variation.apply_read_noise(np.asarray(value), self._rng)
            )
        return value

    def _device_value(self, r, c, v_bg: float, cols) -> float:
        active_cols = np.asarray(cols, dtype=np.intp)
        if active_cols.size == 0:
            return 0.0
        col_sign = c[active_cols]
        v_fg_on = DEFAULT_READ_VFG
        v_dl_on = DEFAULT_READ_VDL
        total = 0.0
        planes = (
            (+1.0, self.quantized.positive_planes),
            (-1.0, self.quantized.negative_planes),
        )[: self._planes_used]
        for row_sign in (+1.0, -1.0):
            rows_on = r == row_sign
            if not rows_on.any():
                continue
            v_gs = np.where(rows_on, v_fg_on, 0.0)[:, np.newaxis]
            phase_value = 0.0
            for plane_idx, (plane_sign, plane_bits) in enumerate(planes):
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

    def reset_drive_state(self) -> None:
        """Forget the driver-toggle memory (fresh-run line state).

        A shared programmed array serves many anneal runs; each run
        starts with every FG/DL line parked, so the first activation must
        be billed as toggling from scratch rather than diffed against the
        previous run's final line state.  It also ends a ``flips=`` chain.
        """
        self._lines.reset()

    # ------------------------------------------------------------------
    # Programming cost
    # ------------------------------------------------------------------
    def programming_summary(self) -> dict[str, float]:
        """One-time programming cost summary of the stored image.

        Every cell receives one program-or-erase pulse; '1' cells get the
        set pulse.  Reported so the architecture ledger can show the (tiny,
        amortised) write cost next to the per-iteration read costs.  The
        image is immutable, so its cells are counted once, on the first
        call; each call returns a fresh copy.
        """
        return dict(self._programming)

    @cached_property
    def _programming(self) -> dict[str, float]:
        total_cells = 2 * self.bits * self.n * self.n
        ones = self.quantized.cell_count()
        return {
            "cells": float(total_cells),
            "programmed_ones": float(ones),
            "write_pulses": float(total_cells),
            "energy": total_cells * PROGRAM_PULSE_ENERGY,
        }
