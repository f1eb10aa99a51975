"""Crossbar mapping geometry: the programmed array's physical dimensions.

One ``n × n`` coupling matrix maps onto an ``n × (n·k·planes)`` cell array
(1×k sub-array per element, positive/negative plane split), with one 8:1-
muxed ADC per ``mux_ratio`` columns; the bit planes are *interleaved* across
mux domains so the k columns of a single element land on k different ADCs.

:func:`~repro.arch.cim_annealer.compile_cim_program` builds the mapping
once, from the array it has just programmed: its rows per physical array
(a tile, for a grid), its bits and the sign planes its stored levels use.
Per-read activity is counted by the array itself
(:class:`~repro.circuits.crossbar.LineState`); only the direct-E baselines'
full-array activation counts read the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CrossbarMapping:
    """Physical geometry of a programmed crossbar.

    Attributes
    ----------
    num_spins:
        Rows of one physical array: the matrix dimension ``n`` of a
        monolithic crossbar, the tile side of a grid.
    bits:
        ``k``, bits per element.
    planes:
        1 when no stored level is negative, 2 when a negative plane exists.
    mux_ratio:
        Columns per ADC.
    ordering:
        Spin-ordering strategy the stored layout uses (``"identity"``, or
        a reordering pass such as ``"rcm"`` — see
        :mod:`repro.core.reorder`).
    bandwidth:
        Matrix bandwidth ``max |i − j|`` of the stored couplings in that
        ordering, when known.  Together with ``ordering`` this is the
        layout half of the mapping story: the tile count a sparse grid
        programs scales with the bandwidth, not just with nnz.
    """

    num_spins: int
    bits: int
    planes: int
    mux_ratio: int = 8
    ordering: str = "identity"
    bandwidth: int | None = None

    def __post_init__(self) -> None:
        if self.num_spins < 1 or self.bits < 1 or self.planes not in (1, 2):
            raise ValueError("invalid mapping geometry")
        if self.mux_ratio < 1:
            raise ValueError("mux_ratio must be >= 1")
        if self.bandwidth is not None and self.bandwidth < 0:
            raise ValueError("bandwidth must be >= 0")

    def summary(self) -> dict[str, object]:
        """Geometry + layout report of the programmed array.

        Everything a sizing study needs in one dict: the physical array
        dimensions and ADC population, plus the spin ordering and matrix
        bandwidth the stored layout realises.
        """
        return {
            "num_spins": self.num_spins,
            "bits": self.bits,
            "planes": self.planes,
            "mux_ratio": self.mux_ratio,
            "num_columns": self.num_columns,
            "num_adcs": self.num_adcs,
            "num_cells": self.num_cells,
            "ordering": self.ordering,
            "bandwidth": self.bandwidth,
        }

    @property
    def num_columns(self) -> int:
        """Total physical columns, ``n · k · planes``."""
        return self.num_spins * self.bits * self.planes

    @property
    def num_adcs(self) -> int:
        """ADC count, one per ``mux_ratio`` columns."""
        return max(1, self.num_columns // self.mux_ratio)

    @property
    def num_cells(self) -> int:
        """Total cells in the array."""
        return self.num_spins * self.num_columns

    def full_activation_conversions(self, phases: int = 2) -> int:
        """ADC conversions of a direct-E full-array evaluation."""
        return phases * self.num_columns

    def full_activation_slots(self, phases: int = 2) -> int:
        """Sequential conversion slots of a full-array evaluation.

        Every ADC serves ``mux_ratio`` columns sequentially.
        """
        return phases * self.mux_ratio
