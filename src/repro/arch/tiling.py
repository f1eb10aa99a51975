"""Multi-tile crossbar: sparse-aware scaling beyond one physical array.

The paper evaluates a single crossbar per annealer ("Each annealer contains
a single crossbar", Sec. 4), which caps the problem size at the array
dimension.  This extension tiles the coupling matrix over a grid of
independent DG FeFET arrays:

* ``J`` is split into ``⌈n/s⌉ × ⌈n/s⌉`` blocks of side ``s`` (the physical
  array rows), and a tile is programmed **only for blocks containing
  nonzeros** — the tile registry is a sparse dict, not a dense ``grid²``
  list.  A degree-6 graph with locality (banded / toroidal orderings) needs
  a few hundred tiles where a dense grid would program tens of thousands;
* the input's stored entries — the CSR arrays of a
  :class:`~repro.ising.sparse.SparseIsingModel`, or the nonzeros of a
  dense matrix — are quantized *once*, against the whole-matrix LSB, into
  one stored image kept as CSR rows.  The assembled image is therefore
  identical to a monolithic crossbar programming the same matrix, and the
  dense ``(n, n)`` matrix is never formed on the sparse path;
* the tile registry (every block holding an input entry) and each tile's
  sign planes come from the signed levels' blocks, and the programmed-cell
  count is their popcount.  Ideal behavioural tiles hold no cells of their own:
  memory is O(nnz) until the SB matvec hooks cut one dense block per tile
  on their first call.  Device tiles and tiles with variation are
  programmed as full crossbars cut from the image, in row-major order
  from the shared generator, so their frozen draws are reproducible for a
  fixed seed;
* an incremental evaluation activates only the (row-block, col-block) pairs
  where a tile exists **and** the column slice is driven; all activated
  tiles operate in parallel and their partial sums are combined digitally
  (one extra adder-tree level);
* activity counters sum across tiles while the critical path takes the
  *maximum* slot count of any tile;
* the grid owns the FG/DL drive state of every tile in one
  :class:`~repro.circuits.crossbar.LineState`, the kernel the monolithic
  array also counts with.  It keeps per-row-block FG counts and per-tile
  toggle counts up to date, so an annealer read that names its flip set
  (``flips=``) costs O(t) line updates plus a closed form per active
  tile, never a pass over the tiles' lines.

The interface mirrors :class:`~repro.circuits.crossbar.DgFefetCrossbar`
(``matrix_hat``, ``factor``, ``compute_increment``, ``programming_summary``)
so the in-situ machine can drive a tiled array transparently; consumers that
must stay O(nnz) use :meth:`stored_model` instead of the dense
``matrix_hat``.  Library code builds a grid only through
:func:`~repro.arch.cim_annealer.compile_cim_program` (repro-lint RPL007).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.circuits.crossbar import (
    CROSSBAR_BACKENDS,
    PROGRAM_PULSE_ENERGY,
    ActivationStats,
    DgFefetCrossbar,
    LineState,
    check_drive,
)
from repro.circuits.quantize import MatrixQuantizer, popcount
from repro.devices.constants import VBG_MAX
from repro.ising.sparse import SparseIsingModel
from repro.utils.keys import sorted_unique
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_choice, check_count, check_square_symmetric

class TiledCrossbar:
    """A sparse grid of DG FeFET crossbar tiles storing one coupling matrix.

    Parameters
    ----------
    matrix:
        Symmetric coupling matrix of any size — a dense square array or a
        :class:`~repro.ising.sparse.SparseIsingModel` (CSR path; the dense
        matrix is never formed).
    tile_size:
        Physical array rows/columns per tile (the block side ``s``).
    bits / backend / wire / shift_add / variation / seed:
        Forwarded to every tile.

    The grid, not its tiles, owns the FG/DL line state that driver
    toggles are counted against (:meth:`reset_drive_state` parks it), and
    :meth:`compute_increment` derives every tile's counters from it.
    """

    def __init__(
        self,
        matrix,
        tile_size: int,
        bits: int = 4,
        backend: str = "behavioral",
        wire=None,
        shift_add=None,
        variation=None,
        seed=None,
    ) -> None:
        self.tile_size = check_count(
            "tile_size", tile_size, minimum=2,
            hint="a physical tile needs at least 2 rows",
        )
        self.backend = check_choice("backend", backend, CROSSBAR_BACKENDS)
        quantizer = MatrixQuantizer(bits)
        self.bits = quantizer.bits
        if isinstance(matrix, SparseIsingModel):
            self.n = matrix.num_spins
            self.lsb = quantizer.lsb_for_peak(matrix.max_abs_entry())
            indptr, cols, vals = matrix.csr_arrays()
            rows = np.repeat(np.arange(self.n), np.diff(indptr))
        else:
            matrix = check_square_symmetric(matrix, "matrix")
            self.n = matrix.shape[0]
            self.lsb = quantizer.lsb_for(matrix)
            rows, cols = np.nonzero(matrix)
            vals = matrix[rows, cols]
        s = self.tile_size
        self.grid = -(-self.n // s)
        self._bounds = self._block_bounds()

        # The stored image: every input entry at its signed k-bit level, in
        # the input's row-major order, so level-0 entries drop out and the
        # rest form the CSR rows of Ĵ.
        levels = quantizer.levels(vals, self.lsb)
        stored = levels != 0
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        indptr[1:] = np.cumsum(np.bincount(rows[stored], minlength=self.n))
        self._csr = (indptr, cols[stored], self.lsb * levels[stored])
        self._ones = float(popcount(levels))
        # A tile for every block holding an input entry (level 0 too), in
        # row-major order; two planes iff it stores a negative level.
        block = rows // s * self.grid + cols // s
        keys = sorted_unique(block)
        self._planes = 1 + np.isin(keys, block[levels < 0])

        self._tile_kwargs = dict(
            bits=self.bits,
            backend=backend,
            wire=wire,
            shift_add=shift_add,
            variation=variation,
            require_symmetric=False,
            seed=ensure_rng(seed),
        )
        # Device reads and varied cells stay a read per tile, so those
        # tiles are programmed now, in row-major order from the shared
        # rng; ideal behavioural tiles are programmed only on request.
        self._per_tile = backend == "device" or (
            variation is not None and not variation.is_ideal
        )
        self._tiles: dict[tuple[int, int], DgFefetCrossbar | None] = {
            divmod(int(key), self.grid): None for key in keys
        }
        if self._per_tile:
            for bi, bj in self._tiles:
                self._tiles[bi, bj] = self._program(bi, bj)
        # The factor curve, wire and ADC mux are nominal-cell properties,
        # identical across tiles.  Ideal grids keep a 2×2 zero crossbar,
        # which draws nothing; a per-tile grid's would draw, so it reuses
        # its first tile.
        first = next(iter(self._tiles.values()), None)
        self._ref = first or DgFefetCrossbar(
            np.zeros((2, 2)), lsb=self.lsb, **self._tile_kwargs
        )
        self._matrix_hat: np.ndarray | None = None
        self._blocks: list[tuple[int, int, int, int, np.ndarray]] | None = None
        self._build_tile_index()

    def _build_tile_index(self) -> None:
        """The grid's :class:`LineState` over its tiles.

        Tile id ``k`` is the ``k``-th tile in (column block, row block)
        order, the order in which the per-tile path draws its noise.
        """
        s = self.tile_size
        keys = list(self._tiles)
        rc = np.array(keys, dtype=np.intp).reshape(-1, 2)
        order = np.lexsort((rc[:, 0], rc[:, 1]))
        self._tile_row, self._tile_col = rc[order, 0], rc[order, 1]
        self._by_id = [self._tiles[keys[k]] for k in order.tolist()]
        # Columns one driven spin selects (bits × planes) and the ADCs
        # serving each tile, as a monolithic array of side s counts them.
        group = self.bits * self._planes[order].astype(np.intp)
        self._lines = LineState(
            self.n, s, self._tile_row, self._tile_col, group,
            np.maximum(1, s * group // self._ref.adc.mux_ratio),
            self._ref.wire.settle_time(s),
        )

    def _block_bounds(self) -> list[tuple[int, int]]:
        return [
            (i * self.tile_size, min((i + 1) * self.tile_size, self.n))
            for i in range(self.grid)
        ]

    def _block(self, bi: int, bj: int) -> np.ndarray:
        """The ``s × s`` zero-padded block ``(bi, bj)`` of the stored image.

        Cut from the CSR rows of the block's row band; the one source of
        every tile crossbar and every matvec block.
        """
        s = self.tile_size
        (r0, r1), (c0, c1) = self._bounds[bi], self._bounds[bj]
        indptr, indices, data = self._csr
        lo, hi = indptr[r0], indptr[r1]
        rows = np.repeat(np.arange(r1 - r0), np.diff(indptr[r0:r1 + 1]))
        cols = indices[lo:hi]
        inside = (cols >= c0) & (cols < c1)
        out = np.zeros((s, s))
        out[rows[inside], cols[inside] - c0] = data[lo:hi][inside]
        return out

    def _program(self, bi: int, bj: int) -> DgFefetCrossbar:
        """Program block ``(bi, bj)`` of the image as a tile crossbar.

        Requantizing ``lsb · L`` returns ``L``, so the tile stores exactly
        the image's levels.
        """
        return DgFefetCrossbar(self._block(bi, bj), lsb=self.lsb, **self._tile_kwargs)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        """Programmed (nonzero-block) tiles — at most ``grid²``."""
        return len(self._tiles)

    @property
    def grid_tiles(self) -> int:
        """Tile slots of the full grid, ``grid²``."""
        return self.grid * self.grid

    @property
    def occupancy(self) -> float:
        """Fraction of grid slots actually holding a programmed tile."""
        return self.num_tiles / self.grid_tiles if self.grid_tiles else 0.0

    @property
    def planes(self) -> int:
        """Sign planes in use across the grid (2 iff any tile stores one)."""
        return int(self._planes.max(initial=1))

    def tile_at(self, block_row: int, block_col: int) -> DgFefetCrossbar | None:
        """The tile programmed at ``(block_row, block_col)``, if any.

        An ideal grid programs the tile's crossbar on first request (it
        draws nothing) and keeps it.
        """
        key = (block_row, block_col)
        if key not in self._tiles:
            return None
        if self._tiles[key] is None:
            self._tiles[key] = self._program(*key)
        return self._tiles[key]

    @property
    def matrix_hat(self) -> np.ndarray:
        """Dense stored image ``Ĵ`` assembled from the CSR image on demand.

        O(n²) memory — small-instance/test convenience only; large sparse
        flows use :meth:`stored_model` and never build this.
        """
        if self._matrix_hat is None:
            indptr, indices, data = self._csr
            out = np.zeros((self.n, self.n))
            out[np.repeat(np.arange(self.n), np.diff(indptr)), indices] = data
            self._matrix_hat = out
        return self._matrix_hat

    def stored_model(
        self, offset: float = 0.0, name: str = "tiled-crossbar"
    ) -> SparseIsingModel:
        """The stored image ``Ĵ`` as a :class:`SparseIsingModel`.

        Shares the CSR arrays built at construction with every other
        model and with :meth:`compute_increment` — O(1), never an
        ``(n, n)`` array.  Quantization is element-wise on a symmetric
        matrix, so the image is symmetric.
        """
        return SparseIsingModel(*self._csr, None, offset=offset, name=name)

    def factor(self, v_bg: float) -> float:
        """Shared-rail factor (all tiles see the same back-gate voltage)."""
        return self._ref.factor(v_bg)

    def reset_drive_state(self) -> None:
        """Park every tile's FG/DL lines (fresh-run toggle accounting).

        Mirrors :meth:`DgFefetCrossbar.reset_drive_state` across the
        grid so repeat anneals on one programmed plan bill their first
        activation like a cold machine: a parked line reads 0, so the
        first activation counts every driven line as a toggle.  It also
        ends a ``flips=`` chain.
        """
        self._lines.reset()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def compute_increment(
        self, sigma_r, sigma_c, v_bg: float, validate: bool = True, flips=None
    ) -> tuple[float, ActivationStats]:
        """Tile-parallel evaluation of ``σ_rᵀ Ĵ σ_c · f(V_BG)``.

        Only (row-block, col-block) pairs whose tile exists *and* whose
        column slice is driven are activated — for a single-flip proposal
        on a sparse matrix that is the flipped spin's column block times
        the few row blocks holding its neighbours.

        In the behavioral backend the partial sums are combined digitally
        and the shared-rail factor is applied *once* to the combined value
        (tiles are read at ``V_BG^{max}``, where the factor is exactly 1) —
        the same evaluation order as a monolithic array, so behavioral
        tiled and monolithic values agree bit for bit.  The device backend
        keeps the factor inside every tile's analog read, as the physical
        rail does.

        The grid's :class:`~repro.circuits.crossbar.LineState` counts the
        activity.  ``flips`` names the driven columns of an
        annealer-protocol read (``σ_c`` nonzero exactly there, ``σ_r``
        changed only there and at the previous read's flips): the read
        then syncs only those lines, O(t) work however many tiles the
        grid holds.  ``validate`` checks that contract with a full diff;
        :meth:`reset_drive_state` ends the chain, and a read without
        ``flips`` re-syncs the full vectors.  Ideal behavioral tiles read
        their partial sums off the stored image's CSR rows, one row per
        driven column in ascending order; device tiles and tiles with
        variation keep one read per active tile, on its row and column
        slices.
        """
        r = np.asarray(sigma_r, dtype=np.float64)
        c = np.asarray(sigma_c, dtype=np.float64)
        if validate:
            check_drive(r, c, self.n, v_bg)
        cols, blocks, stats = self._lines.read(r, c, flips, validate)
        behavioral = self.backend == "behavioral"
        if self._per_tile:
            tile_vbg = VBG_MAX if behavioral else v_bg
            lines = self._lines
            total = 0.0
            for k in lines.tiles(blocks):
                r_slice = lines.fg_blocks[self._tile_row[k]].astype(np.float64)
                c_slice = lines.dl_blocks[self._tile_col[k]].astype(np.float64)
                total += self._by_id[k].sense(r_slice, c_slice, tile_vbg)
        else:
            total = self._stored_value(r, c, cols)
        if behavioral:
            total *= self.factor(v_bg)
        return total, stats

    def _stored_value(self, r, c, driven) -> float:
        """``σ_rᵀ Ĵ σ_c`` summed over the active tiles' stored cells.

        ``Ĵ`` is symmetric, so driven column ``j`` is CSR row ``j`` of the
        stored image.  Sorted by row index, that row is the segments the
        active tiles hold of column ``j``, in row-block order: one
        contiguous read per driven column (``t`` per proposal).
        """
        indptr, indices, data = self._csr
        total = 0.0
        for j in driven:
            lo, hi = indptr[j], indptr[j + 1]
            total += float(c[j]) * float(data[lo:hi] @ r.take(indices[lo:hi]))
        return total

    def matvec(self, x, validate: bool = True) -> np.ndarray:
        """Digitally-combined behavioral MVM ``Ĵ x`` over the tile grid.

        Every programmed tile evaluates its block's partial product
        ``Ĵ[r0:r1, c0:c1] · x[c0:c1]`` in parallel (read at
        ``V_BG^{max}``, where the shared-rail factor is exactly 1) and the
        partial sums are combined digitally per output row — the extra
        adder-tree level of the sharded array.  O(tiles · s²) work on
        dense blocks cut from the image on the first call, no ``(n, n)``
        assembly.  For dyadic stored images and ±1
        drives every partial sum is exact, so the result is bit-identical
        to :meth:`stored_model`'s CSR SpMV — which is what lets the
        simulated-bifurcation engines run on the tiled machine without a
        separate golden.  The input is not restricted to spins: bSB
        drives the array with continuous DAC levels.
        """
        v = np.asarray(x, dtype=np.float64)
        if validate and v.shape != (self.n,):
            raise ValueError(f"input vector must have shape ({self.n},)")
        out = np.zeros(self.n)
        for r0, r1, c0, c1, block in self._matvec_blocks():
            out[r0:r1] += block @ v[c0:c1]
        return out

    def batch_matvec(self, x, validate: bool = True) -> np.ndarray:
        """``(R, n)`` products ``Ĵ x_r``, one tile pass for all replicas.

        The replica batch is time-multiplexed onto the same grid: each
        tile's block multiplies every replica's column slice in one
        matmul, partial sums combined digitally as in :meth:`matvec`.
        This is the ``matvec=`` hook :class:`~repro.core.sb.SbEngine`
        consumes on the tiled-machine path.
        """
        v = np.asarray(x, dtype=np.float64)
        if v.ndim == 1:
            return self.matvec(v, validate=validate)
        if validate and (v.ndim != 2 or v.shape[1] != self.n):
            raise ValueError(f"input batch must have shape (R, {self.n})")
        out = np.zeros(v.shape)
        for r0, r1, c0, c1, block in self._matvec_blocks():
            out[:, r0:r1] += v[:, c0:c1] @ block.T
        return out

    def _matvec_blocks(self) -> list[tuple[int, int, int, int, np.ndarray]]:
        """Every tile's dense block, in row-major order, cut on first use.

        A BLAS matmul per dense block beats a CSR SpMV on full tiles, so
        the matvec hooks keep them; in-situ runs never call this.
        """
        if self._blocks is None:
            self._blocks = []
            for bi, bj in self._tiles:
                (r0, r1), (c0, c1) = self._bounds[bi], self._bounds[bj]
                block = self._block(bi, bj)[: r1 - r0, : c1 - c0]
                self._blocks.append((r0, r1, c0, c1, block))
        return self._blocks

    # ------------------------------------------------------------------
    # Programming cost
    # ------------------------------------------------------------------
    def programming_summary(self) -> dict[str, float]:
        """One-time programming cost over the *instantiated* tiles.

        Counts the logical cells of each programmed block — empty blocks
        hold no tile and contribute nothing, and the pad cells of edge
        tiles (rows/columns beyond ``n``) are never written, so neither
        inflates the totals.  Tiles add up in row-major order.  ``tiles``
        / ``grid_tiles`` report the sharded geometry alongside the cost.
        Summed once per grid; each call returns a fresh copy.
        """
        return dict(self._programming)

    @cached_property
    def _programming(self) -> dict[str, float]:
        totals = {
            "cells": 0.0,
            "programmed_ones": self._ones,
            "write_pulses": 0.0,
            "energy": 0.0,
        }
        for bi, bj in self._tiles:
            r0, r1 = self._bounds[bi]
            c0, c1 = self._bounds[bj]
            cells = 2.0 * self.bits * (r1 - r0) * (c1 - c0)
            totals["cells"] += cells
            totals["write_pulses"] += cells
            totals["energy"] += cells * PROGRAM_PULSE_ENERGY
        totals["tiles"] = float(self.num_tiles)
        totals["grid_tiles"] = float(self.grid_tiles)
        return totals
